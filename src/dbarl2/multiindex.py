"""Strictly increasing multi-indices, insertion signs, and coefficient families.

Multi-indices are plain tuples of positive integers in strictly increasing
order.  ``epsilon`` is the antisymmetry sign picked up when an index ``i`` is
wedged onto a multi-index ``L``; a ``WeightFamily`` is one positive rule
c[I, J] > 0 on pairs of multi-indices, the weights of the form norms, and
``check_conditions`` checks the three structural conditions the estimates
need (bounded ratio, positive ratio, multiplicativity).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .gaussmeasure import STRICT, CheckOutcome


MultiIndex = tuple  # tuple of positive ints, strictly increasing


def as_multiindex(seq: Iterable[int]) -> MultiIndex:
    """Validate and normalize a strictly increasing multi-index."""
    t = tuple(int(v) for v in seq)
    for k, v in enumerate(t):
        if v < 1:
            raise ValueError(f"multi-index entries must be >= 1, got {v}")
        if k > 0 and t[k - 1] >= v:
            raise ValueError(f"multi-index must be strictly increasing, got {t}")
    return t


def epsilon(i: int, L: MultiIndex, K: MultiIndex) -> int:
    """Sign of the permutation sorting (i, l1, ..., lt) into K; 0 if K != {i} u L.

    Total function: returns 0 whenever i already lies in L or the union does
    not equal K as a set.
    """
    if i in L:
        return 0
    if len(K) != len(L) + 1:
        return 0
    merged = sorted((i,) + tuple(L))
    if tuple(merged) != tuple(K):
        return 0
    # L is sorted, so the inversions of (i, l1, ..., lt) are exactly the
    # entries of L smaller than i.
    inv = bisect_left(L, i)
    return -1 if inv % 2 else 1


def perm_sign_bruteforce(seq: Iterable[int]) -> int:
    """Inversion-count oracle for the sign of the permutation sorting ``seq``."""
    s = list(seq)
    inv = 0
    for a in range(len(s)):
        for b in range(a + 1, len(s)):
            if s[a] > s[b]:
                inv += 1
    return -1 if inv % 2 else 1


def insert(i: int, J: MultiIndex) -> tuple[int, Optional[MultiIndex]]:
    """Insert ``i`` into ``J``: returns (sign, K) with K = sorted({i} u J).

    Returns (0, None) when i is already in J.
    """
    if i in J:
        return 0, None
    K = tuple(sorted((i,) + tuple(J)))
    return epsilon(i, tuple(J), K), K


def insertions(J: MultiIndex, r: int):
    """(i, sign, K) with (sign, K) = insert(i, J) for each i <= r not in J."""
    for i in range(1, r + 1):
        if i not in J:
            sign, K = insert(i, J)
            yield i, sign, K


def contractions(K: MultiIndex):
    """(i, L, epsilon(i, L, K)) with L = K without i, for each i in K."""
    for i in K:
        L = tuple(v for v in K if v != i)
        yield i, L, epsilon(i, L, K)


class InvalidFamilyError(ValueError):
    """A weight family produced a non-positive c[I, J]."""


@dataclass(frozen=True)
class WeightFamily:
    """Weights c[I, J] = rule(I, J) > 0 attached to pairs of strictly
    increasing multi-indices, checked positive where they are evaluated."""

    rule: Callable[[MultiIndex, MultiIndex], float]

    def coeff(self, I: MultiIndex, J: MultiIndex) -> float:
        I = tuple(I)
        J = tuple(J)
        v = float(self.rule(I, J))
        if not v > 0.0:
            raise InvalidFamilyError(f"c[{I},{J}] = {v} is not positive")
        return v


def constant_family(value: float = 1.0) -> WeightFamily:
    """c[I, J] = value."""
    return WeightFamily(lambda I, J: value)


def multiplicative_family(mu=lambda j: 1.0) -> WeightFamily:
    """c[I, J] = prod(mu(j) for j in J), multiplied in the order of J."""

    def rule(I, J):
        v = 1.0
        for j in J:
            v *= mu(j)
        return v

    return WeightFamily(rule)


def prior_work_family(a: Callable[[int], float]) -> WeightFamily:
    """The earlier working-space weights: 2^(|I|+|J|) * prod a_i^2 * prod a_j^2,
    multiplied in the order of I, then J."""
    return WeightFamily(lambda I, J: math.prod([a(v) ** 2 for v in I + J],
                                               start=2.0 ** (len(I) + len(J))))


@dataclass
class ConditionReport:
    c1_sup: float
    c0_inf: float
    multiplicative_ok: bool
    violations: list

    def records(self) -> list:
        """One record each: c1 finite, c0 > 0 (strict) and no multiplicativity
        violation (margin minus their count, -0.0 for none)."""
        c1, c0, bad = self.c1_sup, self.c0_inf, float(len(self.violations))
        rows = [("condition1_c1_finite", c1, math.inf, math.inf if c1 < math.inf else -1.0, 0.0),
                ("condition2_c0_positive", c0, 0.0, c0, STRICT),
                ("condition3_multiplicative", bad, 0.0, -bad, 0.0)]
        return [CheckOutcome.judged(check_id, lhs, rhs, margin, 0.0, tol)
                for check_id, lhs, rhs, margin, tol in rows]

    @property
    def passed(self) -> bool:
        return all(rec.passed for rec in self.records())


def _increasing_tuples(length: int, max_index: int):
    return itertools.combinations(range(1, max_index + 1), length)


def check_conditions(family: WeightFamily, max_index: int, s: int, t: int) -> ConditionReport:
    """Enumerate the ratio extrema and the multiplicativity identity up to max_index.

    The ratios c[I,iJ]/c[I,J] run over entries <= max_index with i not in J:
    the i-in-J terms vanish identically and would force the infimum to 0 for
    every family, emptying the estimate they feed.  The identity holds when
    its sides agree to a relative 1e-12.
    """
    if max_index < s + t + 2:
        raise ValueError(f"max_index must be >= s+t+2 = {s + t + 2}, got {max_index}")

    c1 = -float("inf")
    c0 = float("inf")
    for I in _increasing_tuples(s, max_index):
        for J in _increasing_tuples(t, max_index):
            cIJ = family.coeff(I, J)
            for _, _, K in insertions(J, max_index):
                ratio = family.coeff(I, K) / cIJ
                c1 = max(c1, ratio)
                c0 = min(c0, ratio)

    violations = []
    # Quadruples (J, J', L, K): J = L u {a}, J' = L u {b}, K = L u {a, b}.
    for I in _increasing_tuples(s, max_index):
        for L in _increasing_tuples(t, max_index):
            rest = [v for v in range(1, max_index + 1) if v not in L]
            for a, b in itertools.combinations(rest, 2):
                J = tuple(sorted(L + (a,)))
                Jp = tuple(sorted(L + (b,)))
                K = tuple(sorted(L + (a, b)))
                lhs = family.coeff(I, J) * family.coeff(I, Jp)
                rhs = family.coeff(I, L) * family.coeff(I, K)
                if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs), 1e-300):
                    violations.append({"I": I, "J": J, "Jp": Jp, "L": L, "K": K,
                                       "lhs": lhs, "rhs": rhs})

    return ConditionReport(c1_sup=c1, c0_inf=c0,
                           multiplicative_ok=not violations,
                           violations=violations)
