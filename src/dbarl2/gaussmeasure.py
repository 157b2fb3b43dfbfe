"""Gaussian product measure at finite truncation: sampling, quadrature, reduction.

The measure is the product over coordinates i of centered complex Gaussians
with scale a_i (x_i and y_i independent N(0, a_i^2)).  The default scale rule
a_i = 2^-(i+1) keeps the sum of the a_i below 1.  Two quadratures are
provided: seeded Monte Carlo (chunked so results do not depend on scheduling)
and deterministic tensor Gauss-Hermite with the Gaussian weight absorbed into
the nodes.

``reduce_fn`` integrates out the coordinates beyond a target dimension with one
tensor Gauss-Hermite rule of max(2, round(8 sigma_c / sigma_first)) nodes on tail
axis c (1 node is the midpoint rule): (8, 8, 4, 4) for 3 -> 1, (8, 8, 4, 4, 2, 2)
for 4 -> 1; over ``_TAIL_BUDGET`` nodes it raises ``ValueError``.  An axis of m
nodes is exact for its degree < 2m, not for the bumps the library reduces: on 300
seeded bumps on C^3, 3 -> 1 is off a 12-node rule by <= 3.6e-4 sup |f|, 3 -> 2 by 1.2e-6.

When the integrand has a ``support_radius`` R (for a symbolic function, the
radius that ``symfun.support`` derives from its expression), it is evaluated
only on the (head, tail node) pairs that ``support_mask``, the one support-ball
test, keeps: every other term of the tail sum is an exact zero, and a head live
at no node is an exact 0.  Only the heads live at some node are sorted by norm;
each head sums its own nodes in the order of the rule, so tied heads may come
in any order without changing a bit.  |head|^2 is ``sq_norms``, the one
squared norm of the support test, summed column by column (np.sum's bits
below 8 columns).  The integrand (it compiles itself once) is called on
batches of whole tail nodes, at most ``_TAIL_CHUNK`` points unless one node
alone has more, and the sum is accumulated node by node in the order of the
rule, so the values are bitwise those of the per-node loop over all pairs.
Each call builds its batches in one column-major buffer, sized for its
largest batch: every coordinate row of a batch is written whole (the head
rows by contiguous ``take`` into the buffer), so no row of an earlier batch
is read.  Without a radius every pair is live.

``integrals`` is the one integral function of the package, the only place that
reads a rule's nodes and estimates on them (``estimate``: mean and stderr);
``verdict`` is the one pass rule of every record, and ``CheckOutcome`` the one
record a check returns, ``judged`` by ``verdict`` of its margin or ``refused``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .symfun import CylinderFn, Leaf, support_rsq

_SAMPLE_CHUNK = 1 << 16
_GH_BUDGET = 2_000_000
_TAIL_BUDGET = 200_000
_TAIL_NODES = 8  # nodes on the first tail axis
_TAIL_CHUNK = 1 << 14  # points per evaluation of the integrand in ReducedFn


def sq_norms(pts: np.ndarray, cols: int) -> np.ndarray:
    """The squared norm of each point over its first ``cols`` columns, summed
    column by column: the bits of np.sum(pts[:, :cols] ** 2, axis=1) below 8
    columns, and about 12 times faster on the 121^2 points of a mollifier grid."""
    rsq = np.zeros(len(pts))
    for c in range(min(cols, pts.shape[1])):
        rsq += pts[:, c] ** 2
    return rsq


def support_mask(pts: np.ndarray, radius: Optional[float], dim: int) -> np.ndarray:
    """The one support-ball test: the points whose squared norm over the first
    2 dim columns is at most ``support_rsq(radius)`` or not finite (so a NaN or
    an inf reaches the integrand and propagates); every point without a radius."""
    if radius is None:
        return np.ones(len(pts), dtype=bool)
    rsq = sq_norms(pts, 2 * dim)
    return (rsq <= support_rsq(radius)) | ~np.isfinite(rsq)


def default_a(i: int) -> float:
    return 2.0 ** (-(i + 1))


@dataclass(frozen=True)
class GaussianSpec:
    """Scale sequence and truncation dimension of the product measure."""

    trunc_dim: int
    a_rule: Callable[[int], float] = default_a

    def __post_init__(self):
        if self.trunc_dim < 1:
            raise ValueError("trunc_dim must be >= 1")
        for i in range(1, self.trunc_dim + 1):
            if not self.a_rule(i) > 0:
                raise ValueError(f"a_{i} must be positive")

    def a(self, i: int) -> float:
        return self.a_rule(i)

    def sigma_cols(self, n: Optional[int] = None) -> np.ndarray:
        """Per-column standard deviations (x1, y1, x2, y2, ...)."""
        n = self.trunc_dim if n is None else n
        out = np.empty(2 * n)
        for i in range(1, n + 1):
            out[2 * i - 2] = out[2 * i - 1] = self.a(i)
        return out


@dataclass(frozen=True)
class MCEstimate:
    mean: complex
    stderr: float


@dataclass(frozen=True)
class Quadrature:
    """kind = "monte_carlo" (N, seed) or "gauss_hermite" (nodes_per_axis)."""

    kind: str = "monte_carlo"
    N: int = 100_000
    seed: int = 0
    nodes_per_axis: int = 8

    @property
    def deterministic(self) -> bool:
        return self.kind == "gauss_hermite"

    def nodes_weights(self, spec: GaussianSpec):
        """Materialize points (M, 2n), n = spec.trunc_dim, and weights (M,); weights sum to 1."""
        n = spec.trunc_dim
        if self.kind == "monte_carlo":
            return _mc_nodes_weights(spec, self.N, self.seed, n)
        if self.kind == "gauss_hermite":
            m = self.nodes_per_axis
            if m ** (2 * n) > _GH_BUDGET:
                raise ValueError(
                    f"gauss_hermite with {m} nodes in {2 * n} real dims exceeds "
                    f"the {_GH_BUDGET} node budget; use monte_carlo")
            return _gh_tensor((m,) * (2 * n), spec.sigma_cols(n))
        raise ValueError(f"unknown quadrature kind {self.kind!r}")


_hermgauss = lru_cache(np.polynomial.hermite.hermgauss)  # 1-D rules by node count; only read


def _gh_tensor(counts, sig: np.ndarray):
    """Tensor Gauss-Hermite rule, counts[c] nodes on axis c, for independent N(0, sig_c^2)
    axes: points (prod(counts), d) and weights summing to 1.  numpy's 1-D rule breaks down
    from 371 nodes on; a rule with non-finite or all-zero weights is refused."""
    rules = [_hermgauss(m) for m in counts]
    if not all(abs(w1.sum() / math.sqrt(math.pi) - 1.0) < 1e-9 for _, w1 in rules):
        raise ValueError(f"the Gauss-Hermite rule of {counts} nodes has non-finite or zero weights")
    grids = np.meshgrid(*[math.sqrt(2.0) * s * t for s, (t, _) in zip(sig, rules)], indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    w = np.ones(pts.shape[0])
    for g in np.meshgrid(*[w1 / math.sqrt(math.pi) for _, w1 in rules], indexing="ij"):
        w = w * g.reshape(-1)
    return pts, w


@lru_cache(maxsize=4)
def _mc_nodes_weights(spec: GaussianSpec, N: int, seed: int, n: int):
    """The Monte Carlo point set and its equal weights, drawn once per key (read-only)."""
    pts = sample(spec, N, seed, n=n)
    w = np.full(N, 1.0 / N)
    pts.flags.writeable = False
    w.flags.writeable = False
    return pts, w


def sample(spec: GaussianSpec, N: int, seed: int, n: Optional[int] = None) -> np.ndarray:
    """N points in R^(2n); deterministic per (seed, N, n) and chunk-stable."""
    if N < 1:
        raise ValueError("N must be >= 1")
    n = spec.trunc_dim if n is None else n
    sig = spec.sigma_cols(n)
    blocks = []
    for c in range(0, N, _SAMPLE_CHUNK):
        m = min(_SAMPLE_CHUNK, N - c)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                           spawn_key=(c // _SAMPLE_CHUNK,)))
        blocks.append(rng.standard_normal((m, 2 * n)) * sig)
    return np.concatenate(blocks, axis=0) if len(blocks) > 1 else blocks[0]


@lru_cache
def _leggauss(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n (read-only)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _mesh(ax: np.ndarray, d: int) -> np.ndarray:
    """The (len(ax)^d, d) points of the grid ax^d, the last coordinate fastest."""
    return np.stack(np.meshgrid(*([ax] * d), indexing="ij"), axis=-1).reshape(-1, d)


def estimate(vals: np.ndarray, w: np.ndarray, quad: Quadrature) -> MCEstimate:
    """Mean sum(w vals); stderr std(vals)/sqrt(N) for Monte Carlo, 0 for a
    deterministic rule.  Called by ``integrals`` only."""
    mean = complex(np.sum(w * vals))
    if quad.deterministic:
        return MCEstimate(mean, 0.0)
    return MCEstimate(mean, float(np.std(vals) / math.sqrt(len(vals))))


def integrals(quad: Quadrature, spec: GaussianSpec, pairs) -> list:
    """The one integral function: (estimate(a - b), sum(w a), sum(w b)) for each
    pointwise pair (a, b) that ``pairs`` gives on the rule's nodes, b = 0 for a
    single integral.  A residual's two sides share one point set, so its stderr
    is that of the paired difference and the noise they share cancels."""
    pts, w = quad.nodes_weights(spec)
    return [(estimate(a - b, w, quad), complex(np.sum(w * a)), complex(np.sum(w * b)))
            for a, b in pairs(pts)]


def integrate(f: CylinderFn, spec: GaussianSpec, quad: Quadrature) -> MCEstimate:
    """Integral of f against the truncated product measure."""
    if f.dim > spec.trunc_dim:
        raise ValueError(f"integrand dim {f.dim} exceeds truncation {spec.trunc_dim}")
    (est, _, _), = integrals(quad, spec, lambda pts: [(f(pts), 0)])
    return est


class ReducedFn:
    """Partial integral of ``f`` over coordinates beyond ``n`` (tail quadrature),
    a payload that ``reduce_fn`` wraps as a ``Leaf``.

    Exactness and batching of the tail rule as in the module docstring; its
    masking is ``support_mask``'s rule per (head, tail node) pair,
    |head|^2 <= support_rsq(R) - |tail|^2.  Only the heads live at some node
    are sorted by norm (tied heads in any order), so each node's live heads
    are a prefix, no dead pair is built, and every other head is an exact 0.
    Derivatives commute with the tail integral, so d_dx defers to the source.
    """

    def __init__(self, f: CylinderFn, n: int, tail_pts: np.ndarray, tail_w: np.ndarray):
        self.f = f
        self.dim = n
        self.support_radius = f.support_radius
        self._tail_pts = tail_pts
        self._tail_w = tail_w
        self._tail_sq = np.sum(tail_pts ** 2, axis=1)
        self._tail_cols = np.ascontiguousarray(tail_pts.T)

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        h = 2 * self.dim
        N, T = pts.shape[0], self._tail_pts.shape[0]
        if self.support_radius is None:
            order, live = np.arange(N), np.full(T, N)
        else:  # the heads live at some node, by norm: each node's live heads are a prefix
            hsq = sq_norms(pts, h)
            hsq[~np.isfinite(hsq)] = -np.inf  # live at every node, so a NaN stays NaN
            bound = support_rsq(self.support_radius) - self._tail_sq
            order = np.flatnonzero(hsq <= bound.max())
            # each head sums its own nodes in the rule's order, so ties may come in any order
            order = order[np.argsort(hsq[order])]
            live = np.searchsorted(hsq[order], bound, side="right")
        head_cols = [pts[:, c].take(order) for c in range(h)]
        first = np.concatenate(([0], np.cumsum(live)))  # first row of each node
        acc = np.zeros(len(order), dtype=complex)  # in the order of `order`
        # one buffer of columns for every batch: whole nodes, so at most the
        # larger of _TAIL_CHUNK and a node's live heads, and at most all rows
        buf = np.empty((2 * self.f.dim, min(int(first[-1]), max(_TAIL_CHUNK, int(live.max())))))
        s = 0
        while s < T:  # whole nodes s..e-1, at most _TAIL_CHUNK rows (at least one node)
            e = max(s + 1, int(np.searchsorted(first, first[s] + _TAIL_CHUNK, side="right")) - 1)
            c = live[s:e]
            rows = int(first[e] - first[s])
            if rows:
                pos = np.arange(rows) - np.repeat(first[s:e] - first[s], c)
                # the points column by column, each written whole: no stale row is read
                cols = buf[:, :rows]
                for col, row in zip(head_cols, cols):
                    col.take(pos, out=row, mode="clip")
                cols[h:] = np.repeat(self._tail_cols[:, s:e], c, axis=1)
                vals = self.f(cols.T)
                # add.at walks pos in order: node by node, so the sum keeps its order
                np.add.at(acc, pos, np.repeat(self._tail_w[s:e], c) * vals)
            s = e
        out = np.zeros(N, dtype=complex)  # a head live at no node is an exact 0
        out[order] = acc
        return out

    def d_dx(self, i: int) -> "ReducedFn":
        return ReducedFn(self.f.d_dx(i), self.dim, self._tail_pts, self._tail_w)

    def d_dy(self, i: int) -> "ReducedFn":
        return ReducedFn(self.f.d_dy(i), self.dim, self._tail_pts, self._tail_w)


def reduce_fn(f: CylinderFn, n: int, spec: GaussianSpec) -> CylinderFn:
    """f integrated over the coordinates beyond n, a ``ReducedFn`` leaf; f
    itself when it already lives in dimension <= n."""
    if f.dim <= n:
        return f
    tail_sig = spec.sigma_cols(f.dim)[2 * n:]
    counts = tuple(max(2, round(_TAIL_NODES * s / tail_sig[0])) for s in tail_sig)
    if math.prod(counts) > _TAIL_BUDGET:
        raise ValueError(f"a tail rule of {counts} nodes per axis exceeds the "
                         f"{_TAIL_BUDGET} node budget")
    return CylinderFn(Leaf(ReducedFn(f, n, *_gh_tensor(counts, tail_sig))))


def verdict(margin: float, stderr: float, tol: float) -> bool:
    """The one pass rule of every record: margin >= -3 stderr when it carries a
    Monte Carlo stderr, else margin >= -tol.  ``STRICT`` as tol asks margin > 0."""
    if stderr > 0:
        return bool(margin >= -3.0 * stderr)
    return bool(margin >= -tol)


# tol of a strict check: margin >= ulp(0), the least positive float, is margin > 0
STRICT = -math.ulp(0.0)


ERROR = "error"  # the check_id of the record a crashed check leaves


@dataclass
class CheckOutcome:
    """One check: its two sides, stderr, margin and verdict (None when refused,
    with the reason).  The runtime, stamped by ``cli.run_checks``, is
    console-only, so reports stay byte-identical across runs.  Build a record
    with ``judged``, ``refused`` or ``crashed``."""

    check_id: str
    lhs: float
    rhs: float
    stderr: float
    margin: float
    passed: Optional[bool]
    reason: str = ""
    runtime_ms: float = 0.0

    @staticmethod
    def judged(check_id: str, lhs: float, rhs: float, margin: float, stderr: float,
               tol: float) -> "CheckOutcome":
        """The record whose pass is ``verdict(margin, stderr, tol)``."""
        return CheckOutcome(check_id, lhs, rhs, stderr, margin, verdict(margin, stderr, tol))

    @staticmethod
    def refused(check_id: str, reason: str) -> "CheckOutcome":
        """The record of a check whose hypotheses fail: no numbers, no verdict."""
        return CheckOutcome(check_id, 0.0, 0.0, 0.0, 0.0, None, reason=reason)

    @staticmethod
    def crashed(exc: Exception) -> "CheckOutcome":
        """The ``error`` record of a check that raised: no numbers, failed,
        its reason (written to the report) the exception's type and message."""
        return CheckOutcome(ERROR, math.nan, math.nan, math.nan, math.nan, False,
                            reason=f"{type(exc).__name__}: {exc}")

    def row(self):
        return [self.check_id, repr(float(self.lhs)), repr(float(self.rhs)),
                repr(float(self.stderr)), repr(float(self.margin)),
                "true" if self.passed else "false"]

    def json_obj(self):
        """The report record as strict JSON: a non-finite number is null."""
        return {"check_id": self.check_id, "pass": bool(self.passed),
                **{k: json_number(float(getattr(self, k)))
                   for k in ("lhs", "rhs", "stderr", "margin")},
                **({"reason": self.reason} if self.check_id == ERROR else {})}


def json_number(v):
    """A number as strict JSON (RFC 8259) can hold it: a non-finite value is null."""
    return v if math.isfinite(v) else None


@dataclass(frozen=True)
class GaussGreenReport:
    lhs: complex
    rhs: complex
    residual: float
    stderr: float


def gauss_green_residual(f: CylinderFn, m: int, spec: GaussianSpec,
                         quad: Quadrature) -> GaussGreenReport:
    """Residual of: integral of D_{x_m} f  equals  integral of (x_m/a_m^2) f,
    its stderr that of the paired difference (``integrals``)."""
    if max(m, f.dim) > spec.trunc_dim:
        raise ValueError(f"m or the integrand dim {f.dim} exceeds truncation {spec.trunc_dim}")
    (est, lhs, rhs), = integrals(quad, spec, lambda pts: [
        (f.d_dx(m)(pts), (pts[:, 2 * (m - 1)] / spec.a(m) ** 2) * f(pts))])
    return GaussGreenReport(lhs=lhs, rhs=rhs, residual=abs(est.mean), stderr=est.stderr)
