"""Symbolic cylinder functions of finitely many real coordinates x_i, y_i.

A small expression language with exact symbolic partial derivatives.  It
carries everything the operator layer needs: Wirtinger derivatives, the
Gaussian-adjoint building block delta_i = del_i - zb_i/(2 a_i^2), the weighted
variant sigma_i, and full symbolic conjugation.  Evaluation is vectorized:
points are float arrays of shape (N, 2n) with columns x1, y1, x2, y2, ...

Every one-argument primitive is one row of one table, ``_FUNS`` (its values,
its partial rule, and for a germ the label of its real-argument check), and
one node, ``Fun(name, arg, k)``: the k-th derivative of the primitive at arg.
Besides exp, log, sin and cos, the rows are compactly supported smooth germs,
so their derivatives stay exact:

  * bump(t)   = exp(-1/(1-t^2)) on (-1, 1), 0 outside,
  * the cubic cut-off step of the level-k truncations (a level shifts t),
  * the C-infinity step germ (exp(1/(x-1)) - 1) * exp(-exp(1/(x-1))/x) + 1.

Truncated power series (for weights built from series majorants) are ``Poly1``.

``CylinderFn`` (an expression with a dimension) is the one function type:
every function the package takes or returns is one.  A function known only
by its values (a grid function, a reduced integral) is a payload with
``dim``, ``support_radius``, a call on points and optional ``d_dx``/``d_dy``;
it enters a tree only as an opaque ``Leaf``: evaluation calls it, and its
partials are whatever its own ``d_dx``/``d_dy`` return (zero in the
coordinates beyond its ``dim``).  So there is one algebra, and the Wirtinger
operators act on every function through the tree.

Nodes are made by the constructor functions (``add``, ``mul``, ``div``,
``pw``, ``exp_``, ...) and define no operators.  ``CylinderFn`` is the one
arithmetic: ``+``, ``-`` and ``*`` take a ``CylinderFn``, a number or a
payload (as a ``Leaf``, in its place) and build the node with those
constructors.

Nodes are hash-consed: a constructor returns the one live node with the same
type, scalar fields (floats and complex values by their exact bits) and
children, so structurally equal trees are one object and node equality is
identity.  Nodes are slotted dataclasses with no instance dict.  On a miss the
interning metaclass makes the node itself (``object.__new__``, its field
slots, then its typing ``_op`` and ``max_index``, each computed once from its
children's), and ``support`` memoises in a slot of its own.  ``add`` and
``mul`` flatten and fold their constants in one pass.  Derivatives are kept in
a bounded table keyed by node.

Evaluation compiles one root or several to a ``Tape``: every distinct node
under them, children first, each with its kernel and the slot of its last
consumer, so a subtree common to several coefficients is evaluated once and
each value is dropped as soon as its last consumer has been computed.
``eval_expr`` compiles and runs one; a ``CylinderFn`` compiles its own on its
first call and keeps it, so a caller that evaluates one function on many
point sets (the reduction tail, the Cauchy oracle) just calls it.  A caller
that holds some nodes' values at the points already (``forms``' value memo)
passes them as ``known``: the tape reads them as seeded slots, held as it
would hold them, and computes only what lies above them.  How a
node is computed is fixed when the node is made: a value that is real by
construction (variables, real constants, germs, and sums, products, quotients,
powers, exp, log, sin, cos, conjugates and real polynomials of real values) is
held as float64, any other as complex128, and only the roots are converted to
complex.  The results are those of evaluating everything in complex arithmetic
with every constant a Python complex: where that arithmetic would hold a real
value as complex, the tape computes the same real part, with
``num * (1 / den)`` for a quotient, numpy's complex product chain (``b*b``,
``b*(b*b)``, then binary exponentiation) for an integer power, and complex
``exp`` and ``log``; where it would hold the value as float, the tape keeps
``num / den`` and ``b ** k``.  So on finite values the real parts agree bit
for bit and the imaginary parts up to the sign of a zero.  An opaque leaf's
value counts as complex.
"""

from __future__ import annotations

import cmath
import math
import operator
import re
import struct
import weakref
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as npoly


class EvalError(ArithmeticError):
    """Raised on division by zero, log of a nonpositive real, and kin."""


class ParseError(ValueError):
    """An expression string outside the grammar."""


# ---------------------------------------------------------------------------
# AST: hash-consed nodes
# ---------------------------------------------------------------------------

_PACK1 = struct.Struct("<d").pack
_PACK2 = struct.Struct("<2d").pack


def _field_key(v):
    """Intern key of one field: a child by identity, a float or complex value
    by its exact bits (0.0 and -0.0 stay apart), an opaque payload by id."""
    if isinstance(v, Expr):
        return v
    t = type(v)
    if t is complex:
        return _PACK2(v.real, v.imag)
    if t is float:
        return _PACK1(v)
    if t is int or t is str:
        return v
    if t is tuple:
        return tuple(map(_field_key, v))
    return id(v)  # the node holds the payload, so the id stays unique while it lives


# live nodes by (type, field keys); an entry goes when its node is freed
_INTERNED: dict = {}


def _forget(ref, table=_INTERNED):
    # the table is bound here so that the callback still finds it at shutdown
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Ref(weakref.ref):
    """An intern table entry: a weak reference to a node that carries the
    node's key for ``_forget`` (``weakref.KeyedRef`` without its Python-level
    ``__new__`` and ``__init__``)."""
    __slots__ = ("key",)


class _Interned(type):
    """Node classes whose constructor returns the one live node with the same
    type, scalar fields and children (Filliatre & Conchon, hash-consing).

    Structurally equal trees are therefore one object, so node equality and
    hashing are identity, and an id-keyed memo shares every common subtree.

    A node's key is ``(cls, *map(_field_key, fields))`` (``Expr._key``).  On
    a miss the node is made here: its slots are set, and its ``_op`` and
    ``_max_index`` are computed once, from its children's.
    """

    def __init__(cls, name, bases, ns):
        super().__init__(name, bases, ns)
        if bases:  # a node class: the setters of its fields, in order
            cls._puts = tuple(cls.__dict__[f].__set__ for f in ns["__slots__"])

    def __call__(cls, *args, **kwargs):
        if kwargs:  # dataclasses.replace passes every field by name
            args += tuple(kwargs[f.name] for f in fields(cls)[len(args):])
        key = cls._key(*args)
        ref = _INTERNED.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        node = _new(cls)
        for put, v in zip(cls._puts, args):
            put(node, v)
        op = _RULES[cls](node)
        kids = op[0]
        if kids:
            top = kids[0]._max_index if len(kids) == 1 else max([c._max_index for c in kids])
        elif cls is Var:
            top = node.i
        elif cls is Leaf:
            top = node.fn.dim
        else:
            top = 0
        _put_op(node, op)
        _put_max_index(node, top)
        ref = _INTERNED[key] = _Ref(node, _forget)
        ref.key = key
        return node


_new = object.__new__


@dataclass(frozen=True, eq=False)
class Expr(metaclass=_Interned):
    # _op: how a Tape evaluates the node (its rule's value); _max_index: the
    # largest variable index; _support: support()'s memo, set when first read
    __slots__ = ("_max_index", "_op", "_support", "__weakref__")

    @classmethod
    def _key(cls, *fields):
        """The node's intern key; the classes made most often build it directly."""
        return (cls, *map(_field_key, fields))


_put_op = Expr._op.__set__
_put_max_index = Expr._max_index.__set__
_put_support = Expr._support.__set__


@dataclass(frozen=True, eq=False)
class Const(Expr):
    __slots__ = ("val",)
    val: complex

    @staticmethod
    def _key(val):
        return Const, (_PACK2(val.real, val.imag) if type(val) is complex else _field_key(val))


@dataclass(frozen=True, eq=False)
class Var(Expr):
    __slots__ = ("kind", "i")
    kind: str  # "x" or "y"
    i: int


@dataclass(frozen=True, eq=False)
class Add(Expr):
    __slots__ = ("terms",)
    terms: tuple

    @staticmethod
    def _key(terms):  # a tuple of nodes is its own key
        return Add, (terms if type(terms) is tuple else _field_key(terms))


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    __slots__ = ("factors",)
    factors: tuple

    @staticmethod
    def _key(factors):
        return Mul, (factors if type(factors) is tuple else _field_key(factors))


@dataclass(frozen=True, eq=False)
class Div(Expr):
    __slots__ = ("num", "den")
    num: Expr
    den: Expr


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    __slots__ = ("base", "k")
    base: Expr
    k: int


@dataclass(frozen=True, eq=False)
class Fun(Expr):
    """The k-th derivative of the primitive ``name`` (a key of _FUNS) at arg."""
    __slots__ = ("name", "arg", "k")
    name: str
    arg: Expr
    k: int  # no default, so a node's intern key does not depend on how it is built


@dataclass(frozen=True, eq=False)
class Poly1(Expr):
    """Polynomial in one subexpression, ascending coefficients."""
    __slots__ = ("arg", "coeffs")
    arg: Expr
    coeffs: tuple


@dataclass(frozen=True, eq=False)
class Conj(Expr):
    __slots__ = ("arg",)
    arg: Expr


@dataclass(frozen=True, eq=False)
class Leaf(Expr):
    """An opaque payload (dim, support_radius, a call on points, optional
    d_dx/d_dy), interned by identity."""
    __slots__ = ("fn",)
    fn: object


def _children(e: Expr) -> tuple:
    """The direct subexpressions of a node."""
    return e._op[0]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_REAL_TOL = 1e-9
_EDGE = 1e-6      # bump: treat 1-t^2 <= _EDGE as outside (value < exp(-1e6) ~ 0)
_GERM_CUT = 1e-8  # germ: evaluation window (cut, 1-cut); tails are constants


def _require_real(v, what: str):
    v = np.asarray(v)
    if np.iscomplexobj(v):
        # per point, so the verdict does not depend on how points are batched
        if np.any(np.abs(v.imag) > _REAL_TOL * np.maximum(1.0, np.abs(v))):
            raise EvalError(f"{what} of a non-real argument")
        return v.real
    return v


def bump_values(t, k: int) -> np.ndarray:
    """The k-th derivative of exp(-1/(1-t^2)) at real t, as a float array of t's
    shape; 0 where 1 - t^2 <= _EDGE (an inf), NaN at a NaN.  A batch whose
    points are all inside is computed without a gather."""
    t = np.asarray(t)
    om = 1.0 - t * t
    outside = om <= _EDGE
    if not outside.any():  # a 0-d t gives a numpy scalar: as an array, like the gathered path
        return np.asarray(_bump_inside(t, om, k), dtype=float)
    out = np.zeros(t.shape)
    inside = ~outside  # a NaN is not outside, so it propagates
    if np.any(inside):
        out[inside] = _bump_inside(t[inside], om[inside], k)
    return out


def _bump_inside(t, om, k: int):
    """bump_values at points with om = 1 - t^2 > _EDGE."""
    val = np.exp(-1.0 / om)
    if k > 0:
        val = val * npoly.polyval(t, np.asarray(_bump_numer(k))) / om ** (2 * k)
    return val


def _cubic_values(t, k: int) -> np.ndarray:
    """The k-th derivative of the cubic step at real t (1 below 0, 0 above 1, NaN
    at a NaN)."""
    t = np.asarray(t)
    out = np.zeros(t.shape)
    if k == 0:
        out[t < 0.0] = 1.0
    mid = ~((t < 0.0) | (t > 1.0))  # a NaN is mid, so it propagates
    if np.any(mid):
        out[mid] = npoly.polyval(t[mid], np.asarray(_cubic_poly(k)))
    return out


def _step_values(t, k: int) -> np.ndarray:
    """The k-th derivative of the smooth step germ at real t (1 below 0, 0 above 1,
    NaN at a NaN)."""
    t = np.asarray(t)
    out = np.zeros(t.shape)
    if k == 0:
        out[t <= _GERM_CUT] = 1.0
    mid = ~((t <= _GERM_CUT) | (t >= 1.0 - _GERM_CUT))  # a NaN is mid, so it propagates
    if np.any(mid):
        sub = np.zeros((int(mid.sum()), 2))
        sub[:, 0] = t[mid]
        out[mid] = np.real(eval_expr(_germ_template(k), sub))
    return out


# Typing flags of a node: _R, its value is real, so a tape holds it as
# float64; _C, the all-complex evaluator (every Const a Python complex) holds
# it as complex, so a real value must be the real part of that evaluator's
# complex arithmetic.  A value without _R is complex on the tape too.
_R, _C = 1, 2

# numpy's float64 exp and log differ from the real part of its complex ones in
# the last bit (9,216 exp and 36,448 log values of 200,000 normal samples,
# numpy 2.4.6 on x86-64); its float64 sin and cos agree with the complex ones.
_VIA_COMPLEX = frozenset(("exp", "log"))

# Kernels: kern(vals, ks, arg, pts) computes a node from the values of its
# children at the tape slots ks.


def _k_const(vals, ks, v, pts):
    return v


def _k_var(vals, ks, arg, pts):
    col, name = arg
    if col >= pts.shape[1]:
        raise EvalError(f"point has no coordinate {name}")
    return pts[:, col]


def _k_fold(vals, ks, arg, pts):
    # left to right as written; the first step makes a new value, so the
    # later ones go in place (iop), except at the first complex operand,
    # which promotes it (on a scalar, iop makes a new value)
    op, iop, up = arg
    v = op(vals[ks[0]], vals[ks[1]])
    for j in range(2, len(ks)):
        v = (op if j == up else iop)(v, vals[ks[j]])
    return v


def _k_div(vals, ks, recip, pts):
    den = vals[ks[1]]
    if np.any(den == 0):
        raise EvalError("division by zero")
    if recip:  # numpy's complex quotient of real values
        return vals[ks[0]] * (1.0 / den)
    return vals[ks[0]] / den


def _k_pow(vals, ks, k, pts):
    return vals[ks[0]] ** k


def _k_pow_chain(vals, ks, k, pts):
    # numpy's complex integer power of real values: b, b*b, b*(b*b), then
    # binary exponentiation; float64 b ** k rounds differently from k = 3 on
    b = vals[ks[0]]
    if k <= 2:
        return b if k == 1 else b * b
    if k == 3:
        return b * (b * b)
    acc = None
    while True:
        if k & 1:
            acc = b if acc is None else acc * b
        k >>= 1
        if not k:
            return acc
        b = b * b


def _k_fun(vals, ks, arg, pts):
    f, via_complex = arg
    if via_complex:  # a copy of the real part, so the complex result is freed
        return np.array(f(np.asarray(vals[ks[0]], dtype=complex)).real)
    return f(vals[ks[0]])


def _k_germ(vals, ks, arg, pts):
    values, label, k = arg
    return values(_require_real(vals[ks[0]], label), k)


def _k_poly(vals, ks, arg, pts):
    coeffs, real = arg
    v = vals[ks[0]]
    return npoly.polyval(v if real else np.asarray(v, dtype=complex), coeffs)


def _k_same(vals, ks, arg, pts):
    return vals[ks[0]]


def _k_conj(vals, ks, arg, pts):
    return np.conjugate(vals[ks[0]])


def _k_leaf(vals, ks, fn, pts):
    return np.asarray(fn(pts), dtype=complex)


# Rules: a node -> (children, kernel, kernel argument, flags), from the
# children's flags.  An argument never holds the node (that would be a cycle).

def _r_const(n):
    v = n.val
    if isinstance(v, complex):
        return ((), _k_const, v.real, _R | _C) if v.imag == 0 else ((), _k_const, v, _C)
    return (), _k_const, v, _R


def _r_var(n):
    return (), _k_var, (2 * (n.i - 1) + (n.kind == "y"), f"{n.kind}_{n.i}"), _R


def _r_fold(n):
    if type(n) is Add:
        kids, op, iop = n.terms, operator.add, operator.iadd
    else:
        kids, op, iop = n.factors, operator.mul, operator.imul
    c = 0
    for j, k in enumerate(kids):
        f = k._op[3]
        if not f & _R:  # the first operand that is not real
            return kids, _k_fold, (op, iop, j), _C
        c |= f
    return kids, _k_fold, (op, iop, -1), c


def _r_div(n):
    fa, fb = n.num._op[3], n.den._op[3]
    flags = (_R | ((fa | fb) & _C)) if fa & fb & _R else _C
    return (n.num, n.den), _k_div, flags == _R | _C, flags


def _r_pow(n):
    f = n.base._op[3]
    chain = f & _R and f & _C and 0 < n.k < 100  # numpy's own chain stops at 100
    return (n.base,), (_k_pow_chain if chain else _k_pow), n.k, f


def _r_fun(n):
    values, _, label = _FUNS[n.name]
    if label is not None:  # a germ is real by construction
        return (n.arg,), _k_germ, (values, label, n.k), _R
    f = n.arg._op[3]
    via = bool(f & _R and f & _C) and n.name in _VIA_COMPLEX
    return (n.arg,), _k_fun, (values, via), f


def _r_poly(n):
    f = n.arg._op[3]
    cs = np.asarray(n.coeffs)
    if f & _R and not np.any(cs.imag):  # real coefficients of a real value
        return (n.arg,), _k_poly, (cs.real.copy(), True), _R | _C
    return (n.arg,), _k_poly, (cs, False), _C


def _r_conj(n):
    f = n.arg._op[3]
    return (n.arg,), (_k_same if f & _R else _k_conj), None, f


def _r_leaf(n):
    return (), _k_leaf, n.fn, _C


_RULES = {Const: _r_const, Var: _r_var, Add: _r_fold, Mul: _r_fold, Div: _r_div,
          Pow: _r_pow, Fun: _r_fun, Poly1: _r_poly, Conj: _r_conj, Leaf: _r_leaf}


class Tape:
    """One root or several compiled once: every distinct node under them,
    children first, with its kernel and the slot of its last consumer.  The
    typing rules are in the module docstring.

    ``known`` maps nodes to their complex values at the points the tape is run
    on.  Such a node is a seeded slot, held as the tape would hold it (the
    ``.real`` of a real-typed node), and nothing below it is computed.
    """

    __slots__ = ("roots", "single", "steps", "last", "out_at")

    def __init__(self, e: Union[Expr, Sequence[Expr]], known: Optional[dict] = None):
        self.single = isinstance(e, Expr)
        self.roots = (e,) if self.single else tuple(e)
        known = known or {}
        slot: dict = {}
        steps, last = [], []
        for r in self.roots:
            if r in slot:
                continue
            stack = [(r, iter(() if r in known else r._op[0]))]
            while stack:
                n, it = stack[-1]
                for c in it:
                    if c not in slot:
                        stack.append((c, iter(() if c in known else c._op[0])))
                        break
                else:
                    stack.pop()
                    i = len(steps)
                    if n in known:
                        v = known[n]
                        steps.append((_k_const, (), v.real if n._op[3] & _R else v))
                    else:
                        kids, kern, arg, _ = n._op
                        ks = tuple(map(slot.__getitem__, kids)) if kids else ()
                        for s in ks:
                            last[s] = i
                        steps.append((kern, ks, arg))
                    slot[n] = i
                    last.append(-1)  # a root that no node consumes
        self.steps, self.last = steps, last
        self.out_at: dict = {}  # slot -> (root positions, held as complex before)
        for k, r in enumerate(self.roots):
            self.out_at.setdefault(slot[r], ([], r._op[3] & _C))[0].append(k)

    def __len__(self) -> int:
        return len(self.steps)

    def run(self, pts) -> list:
        """The complex value of every root at points of shape (N, 2n) (one
        point of shape (2n,))."""
        pts = np.asarray(pts, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        N = pts.shape[0]
        last, out_at = self.last, self.out_at
        vals = [None] * len(self.steps)
        outs = [None] * len(self.roots)
        for i, (kern, ks, arg) in enumerate(self.steps):
            v = vals[i] = kern(vals, ks, arg, pts)
            for s in ks:
                if last[s] == i:
                    vals[s] = None
            if i in out_at:  # converted as soon as it is complete
                at, cx = out_at[i]
                # as the all-complex evaluator gave it: a constant it held as
                # complex becomes a broadcast view, a real one a new array
                out = np.asarray(v, dtype=complex) if cx else np.asarray(v)
                if out.ndim == 0:
                    out = np.broadcast_to(out, (N,))
                out = np.asarray(out, dtype=complex)
                for k in at:
                    outs[k] = out
                if last[i] < 0:
                    vals[i] = None
                elif out is not v and np.ndim(v):  # later consumers read the real part
                    vals[i] = out.real
        return outs


def eval_expr(e: Union[Expr, Sequence[Expr]], pts: np.ndarray, known: Optional[dict] = None):
    """Evaluate on points of shape (N, 2n): one root gives an (N,) complex
    array, a sequence of roots gives a list of them.

    The roots are compiled to one ``Tape``: nodes are interned, so a subtree
    common to several roots is evaluated once, and each value is dropped as
    soon as its last consumer has been computed.  ``known`` maps nodes to
    their complex values at pts, computed before: the tape reads them, so
    nothing below them is computed again.
    """
    tape = Tape(e, known)
    outs = tape.run(pts)
    return outs[0] if tape.single else outs


ZERO = Const(0.0)
ONE = Const(1.0)


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, complex)):
        return Const(complex(v))
    raise TypeError(f"cannot coerce {type(v)} to Expr")


def const(v) -> Const:
    return Const(complex(v))


def x(i: int) -> Var:
    if i < 1:
        raise ValueError("variable index must be >= 1")
    return Var("x", i)


def y(i: int) -> Var:
    if i < 1:
        raise ValueError("variable index must be >= 1")
    return Var("y", i)


def z(i: int) -> Expr:
    return add(x(i), mul(const(1j), y(i)))


def zb(i: int) -> Expr:
    return add(x(i), mul(const(-1j), y(i)))


def _is_const(e: Expr, v=None) -> bool:
    return isinstance(e, Const) and (v is None or e.val == v)


def add(*terms) -> Expr:
    """The sum, flat: a nested sum's terms in its place, and every constant
    folded into one, the last term, added left to right from +0."""
    out = []
    cval = 0.0 + 0.0j
    for t in terms:
        tt = type(t)
        if tt is Add:
            for s in t.terms:
                if type(s) is Const:
                    cval += s.val
                else:
                    out.append(s)
        elif tt is Const:
            cval += t.val
        elif isinstance(t, Expr):
            out.append(t)
        else:
            cval += _as_expr(t).val
    if cval != 0:
        out.append(Const(cval))
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Add(tuple(out))


def mul(*factors) -> Expr:
    """The product, flat: a nested product's factors in its place, and every
    constant folded into one, the first factor, multiplied left to right from
    1; ZERO when that constant is 0."""
    out = []
    cval = 1.0 + 0.0j
    for f in factors:
        ft = type(f)
        if ft is Mul:
            for g in f.factors:
                if type(g) is Const:
                    cval *= g.val
                else:
                    out.append(g)
        elif ft is Const:
            cval *= f.val
        elif isinstance(f, Expr):
            out.append(f)
        else:
            cval *= _as_expr(f).val
    if cval == 0:
        return ZERO
    if cval != 1:
        out.insert(0, Const(cval))
    if not out:
        return ONE
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def div(a, b) -> Expr:
    a, b = _as_expr(a), _as_expr(b)
    if _is_const(b):
        if b.val == 0:
            raise ZeroDivisionError("division by constant zero")
        return mul(Const(1.0 / b.val), a)
    if _is_const(a, 0):
        return ZERO
    return Div(a, b)


def pw(base, k: int) -> Expr:
    base = _as_expr(base)
    k = int(k)
    if k == 0:
        return ONE
    if k == 1:
        return base
    if isinstance(base, Const):
        return Const(base.val ** k)
    if k < 0:
        return Div(ONE, Pow(base, -k))
    return Pow(base, k)


def _log_values(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        bad = (a.imag == 0) & (a.real <= 0)
    else:
        bad = a <= 0
    if np.any(bad):
        raise EvalError("log of nonpositive real")
    return np.log(a)


def _germ_partial(e, d):
    return mul(Fun(e.name, e.arg, e.k + 1), d)


# name -> (its values, the partial of a node Fun(name, arg, k) given the
# partial d of arg, and for a germ the label of its real-argument check).
# exp, log, sin and cos take the argument's values (k is 0); a germ's
# values(t, k) are its k-th derivative at real t.
_FUNS = {
    "exp": (np.exp, lambda e, d: mul(e, d), None),
    "log": (_log_values, lambda e, d: div(d, e.arg), None),
    "sin": (np.sin, lambda e, d: mul(_fun("cos", e.arg), d), None),
    "cos": (np.cos, lambda e, d: mul(const(-1), _fun("sin", e.arg), d), None),
    "bump": (bump_values, _germ_partial, "bump"),
    "cubic": (_cubic_values, _germ_partial, "cubic step"),
    "step": (_step_values, _germ_partial, "smooth step"),
}


def _fun(name: str, arg) -> Expr:
    arg = _as_expr(arg)
    if isinstance(arg, Const) and _FUNS[name][2] is None:  # a germ stays a node
        try:
            return Const(complex(_FUNS[name][0](arg.val)))
        except EvalError as exc:
            raise EvalError(f"{exc} constant") from None
    return Fun(name, arg, 0)


def exp_(arg) -> Expr:
    return _fun("exp", arg)


def log_(arg) -> Expr:
    return _fun("log", arg)


def sin_(arg) -> Expr:
    return _fun("sin", arg)


def cos_(arg) -> Expr:
    return _fun("cos", arg)


def bump(arg) -> Expr:
    """exp(-1/(1-t^2)) inside (-1,1), 0 outside; smooth and compactly supported."""
    return _fun("bump", arg)


def cubic_step(arg, level: float) -> Expr:
    """The C^1 cut-off: 1 below `level`, cubic descent on [level, level+1], then 0."""
    return _fun("cubic", add(arg, const(-level)))


def germ_step(arg) -> Expr:
    """The C-infinity step: 1 for t <= 0, smooth descent on (0,1), 0 for t >= 1."""
    return _fun("step", arg)


def poly1(arg, coeffs) -> Expr:
    cs = tuple(complex(c) for c in coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs = cs[:-1]
    if len(cs) == 1:
        return Const(cs[0])
    return Poly1(_as_expr(arg), cs)


def conj_(arg) -> Expr:
    arg = _as_expr(arg)
    if isinstance(arg, Const):
        return Const(arg.val.conjugate())
    if isinstance(arg, Conj):
        return arg.arg
    if isinstance(arg, Var):
        return arg
    return Conj(arg)


# ---------------------------------------------------------------------------
# Traversal
# ---------------------------------------------------------------------------

def _walk(e: Expr):
    """Each distinct node of the tree once (shared subtrees by identity)."""
    seen = set()
    stack = [e]
    while stack:
        n = stack.pop()
        k = id(n)
        if k not in seen:
            seen.add(k)
            yield n
            stack.extend(_children(n))


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _bump_numer(k: int) -> tuple:
    """Numerator polynomial of the k-th bump derivative over (1-t^2)^(2k)."""
    if k == 0:
        return (1.0,)
    N = np.asarray(_bump_numer(k - 1), dtype=float)
    one_m_t2 = np.array([1.0, 0.0, -1.0])
    kk = k - 1
    Nd = npoly.polyder(N) if len(N) > 1 else np.array([0.0])
    mid = npoly.polyadd(npoly.polymul(Nd, one_m_t2),
                        npoly.polymul(np.array([0.0, 4.0 * kk]), N))
    out = npoly.polysub(npoly.polymul(mid, one_m_t2),
                        npoly.polymul(np.array([0.0, 2.0]), N))
    return tuple(out)


_CUBIC_BASE = (1.0, 0.0, -3.0, 2.0)  # (t-1)^2 (2 t + 1)


@lru_cache(maxsize=16)
def _cubic_poly(order: int) -> tuple:
    p = np.asarray(_CUBIC_BASE, dtype=float)
    for _ in range(order):
        p = npoly.polyder(p) if len(p) > 1 else np.array([0.0])
    return tuple(p)


@lru_cache(maxsize=None)
def _germ_template(k: int) -> Expr:
    """k-th derivative of the open-interval germ formula, in the variable x(1)."""
    if k:
        return diff(_germ_template(k - 1), "x", 1)
    t = x(1)
    e_inner = exp_(div(ONE, add(t, const(-1))))
    return add(mul(add(e_inner, const(-1)), exp_(mul(const(-1), div(e_inner, t)))), ONE)


# derivatives of interned nodes, by (node, kind, i); a bounded table outside
# the nodes, since d exp(a) holds exp(a) and a cache on the node would be a
# cycle.  A 4096-entry table ran the benchmark's cases no faster than this
# one but kept more nodes alive for the cyclic collector to scan.
_DIFF_CACHE = 1 << 9


@lru_cache(maxsize=_DIFF_CACHE)
def diff(e: Expr, kind: str, i: int) -> Expr:
    """Exact symbolic partial derivative with respect to x_i or y_i."""
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if (e.kind == kind and e.i == i) else ZERO
    if isinstance(e, Add):
        return add(*(diff(t, kind, i) for t in e.terms))
    if isinstance(e, Mul):
        terms = []
        fs = e.factors
        for j in range(len(fs)):
            dj = diff(fs[j], kind, i)
            if _is_const(dj, 0):
                continue
            terms.append(mul(*fs[:j], dj, *fs[j + 1:]))
        return add(*terms) if terms else ZERO
    if isinstance(e, Div):
        da, db = diff(e.num, kind, i), diff(e.den, kind, i)
        return div(add(mul(da, e.den), mul(const(-1), e.num, db)), pw(e.den, 2))
    if isinstance(e, Pow):
        return mul(const(e.k), pw(e.base, e.k - 1), diff(e.base, kind, i))
    if isinstance(e, Fun):
        return _FUNS[e.name][1](e, diff(e.arg, kind, i))
    if isinstance(e, Poly1):
        if len(e.coeffs) <= 1:
            return ZERO
        dcs = tuple(npoly.polyder(np.asarray(e.coeffs)))
        return mul(poly1(e.arg, dcs), diff(e.arg, kind, i))
    if isinstance(e, Conj):
        return conj_(diff(e.arg, kind, i))
    if isinstance(e, Leaf):
        if i > e.fn.dim:  # a function of the first dim coordinates only
            return ZERO
        return Leaf(e.fn.d_dx(i) if kind == "x" else e.fn.d_dy(i))
    raise TypeError(f"cannot differentiate {type(e)}")


def max_index(e: Expr) -> int:
    """Largest variable index in the expression; a leaf counts as its dim (0 for constants)."""
    return e._max_index


# ---------------------------------------------------------------------------
# Parser (exact grammar; z(i)/zb(i) are sugar over x, y)
# ---------------------------------------------------------------------------

# a number, a name or any other one character; findall skips the whitespace between
_TOKEN = re.compile(r"[0-9.]+(?:[eE][+-]?[0-9]+)?|[A-Za-z]+|\S")
_MAX_NESTING = 100  # parentheses and calls open at once, each two Python frames deep
_VARS = {"x": x, "y": y, "z": z, "zb": zb}
_CALLS = {"exp": exp_, "log": log_, "sin": sin_, "cos": cos_, "bump": bump, "conj": conj_}


def parse(text: str) -> Expr:
    """Parse an expression string; `z(i)` expands to x(i)+i*y(i), `zb(i)` to the conjugate.
    A constant that folds to no value (1/0, log(0), 2^5000) or to a non-finite
    one (exp(1000)) is a ``ParseError``."""
    toks = _TOKEN.findall(text) + [""]  # "" ends the text
    try:
        with np.errstate(all="ignore"):  # a non-finite fold is refused below
            e, j = _parse_sum(toks, 0, 0)
    except ArithmeticError as exc:  # ZeroDivisionError, OverflowError, EvalError
        raise ParseError(f"a constant folds to no value: {exc}") from None
    if toks[j]:
        raise ParseError(f"unexpected {toks[j]!r} after a complete expression")
    if any(type(n) is Const and not cmath.isfinite(n.val) for n in _walk(e)):
        raise ParseError("a constant folds to a non-finite value")
    return e


def _parse_sum(toks: list, j: int, depth: int) -> tuple:
    """The sum that starts at toks[j], and the index of the token after it.

    One ``add`` of all the terms builds the tree of adding them one at a time,
    since add folds its constants left to right from +0 and so never makes a
    zero part negative.  A product builds mul's left fold (``_parse_product``):
    mul multiplies a nested product's constant by 1 again, which can flip the
    sign of a zero part (i*i*i gives -1j left to right but -0.0-1j in one call)."""
    terms, sign = [], "+"
    if toks[j] in ("+", "-"):
        sign, j = toks[j], j + 1
    while True:
        e, j = _parse_factor(toks, j, depth)
        while toks[j] in ("*", "/"):
            if toks[j] == "*":
                e, j = _parse_product(toks, j, depth, e)
            else:
                f, j = _parse_factor(toks, j + 1, depth)
                e = div(e, f)
        terms.append(mul(const(-1), e) if sign == "-" else e)
        sign = toks[j]
        if sign not in ("+", "-"):
            return add(*terms) if len(terms) > 1 else terms[0], j
        j += 1


def _parse_product(toks: list, j: int, depth: int, e: Expr) -> tuple:
    """The node mul(...mul(mul(e, f1), f2)..., fm) of the run '* f1 * ... * fm'
    at toks[j], and the index of the token after it, in one pass: after the
    first mul the fold is its constant ``head`` (or None) and its other
    factors, and each step does mul's constant arithmetic, (1+0j) * head * the
    new factor's constants in order, dropping a constant of exactly 1 and
    collapsing to ZERO at 0, without copying the factors at every step."""
    f, j = _parse_factor(toks, j + 1, depth)
    e = mul(e, f)
    if toks[j] != "*":
        return e, j
    rest = list(e.factors if isinstance(e, Mul) else (e,))
    head = rest.pop(0) if isinstance(rest[0], Const) else None
    while toks[j] == "*":
        f, j = _parse_factor(toks, j + 1, depth)
        cval = 1.0 + 0.0j if head is None else (1.0 + 0.0j) * head.val
        for g in (f.factors if isinstance(f, Mul) else (f,)):
            if isinstance(g, Const):
                cval *= g.val
            else:
                rest.append(g)
        if cval == 0:
            head, rest = ZERO, []
        elif cval != 1:
            head = Const(cval)
        else:
            head = None if rest else ONE
    out = [head] + rest if head is not None else rest
    return (out[0] if len(out) == 1 else Mul(tuple(out))), j


def _parse_factor(toks: list, j: int, depth: int) -> tuple:
    """The factor (an atom, maybe raised to an integer power) that starts at
    toks[j], and the index of the token after it."""
    t = toks[j]
    if t == "(" or t in _CALLS:
        if depth == _MAX_NESTING:
            raise ParseError(f"more than {_MAX_NESTING} nested parentheses")
        e, j = _parse_sum(toks, j + 1 if t == "(" else _expect(toks, j + 1, "("), depth + 1)
        j = _expect(toks, j, ")")
        e = e if t == "(" else _CALLS[t](e)
    elif t in _VARS:
        i = _integer(toks[_expect(toks, j + 1, "(")])
        if i < 1:
            raise ParseError(f"index must be >= 1, not {i}")
        e, j = _VARS[t](i), _expect(toks, j + 3, ")")
    elif t == "i":
        e, j = const(1j), j + 1
    elif t and t[0] in "0123456789.":
        e, j = const(_literal(t)), j + 1
    else:
        raise ParseError(f"expected an atom, not {t or 'the end'!r}")
    if toks[j] == "^":
        neg = toks[j + 1] == "-"
        k = _integer(toks[j + 1 + neg])
        e, j = pw(e, -k if neg else k), j + 2 + neg
    return e, j


def _expect(toks: list, j: int, want: str) -> int:
    if toks[j] != want:
        raise ParseError(f"expected {want!r}, not {toks[j] or 'the end'!r}")
    return j + 1


def _integer(t: str) -> int:
    if not (t.isascii() and t.isdigit()):
        raise ParseError(f"expected an integer, not {t or 'the end'!r}")
    return int(t)


def _literal(t: str) -> float:
    try:
        v = float(t)
    except ValueError:
        raise ParseError(f"bad number literal {t!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"number literal {t} is too large for a float")
    return v


# ---------------------------------------------------------------------------
# Function layer: cylinder functions over the tree; opaque functions as leaves
# ---------------------------------------------------------------------------

def support_rsq(radius: float) -> float:
    """Squared radius of the support ball with its rounding slack: a point with
    squared norm at most this is inside."""
    return radius * radius * (1.0 + 1e-12)


def support(e: Union[Expr, Sequence[Expr]]) -> Optional[tuple]:
    """(r, k) such that e is 0 wherever |z_1..z_k| > r (r = 0: the zero
    function), or None when the tree gives no such ball; memoised on the node.
    A sequence of expressions is read as their sum, so no constants cancel.

    A germ (bump, cubic, step) of c * (d + sum over i <= k of (x_i - a_i)^2 +
    (y_i - b_i)^2), real c > 0 and cd < 1, gives (sqrt(1/c - d) + |(a, b)|,
    k).  A sum is bounded when every nonzero term is (the largest r, over the
    fewest coordinates); a product by its bounded factor over the most
    coordinates (then the smallest r); a quotient by its numerator; a power, a
    conjugate and a polynomial without constant term by their operand; a leaf
    by its function's support_radius over its dim.  Anything else is unbounded.
    """
    if not isinstance(e, Expr):
        live = [p for p in map(support, e) if p is None or p[0]]
        if None in live:
            return None
        return (max(r for r, _ in live), min(k for _, k in live)) if live else (0.0, 0)
    try:
        return e._support
    except AttributeError:  # not read yet
        s = _SUPPORT[type(e)](e)
        _put_support(e, s)
        return s


def _germ_ball(arg: Expr) -> Optional[tuple]:
    """The support of a germ (0 at arguments > 1) at c * (|z_1..z_k - a|^2 + d); a
    square repeated with two centres only adds to the sum, so either bounds it."""
    c, s = 1.0, arg
    if type(arg) is Mul and len(arg.factors) == 2 and type(arg.factors[0]) is Const:
        c, s = arg.factors[0].val, arg.factors[1]
    if c.imag or not c.real > 0 or type(s) is not Add:
        return None
    centre, d = {}, sum(t.val for t in s.terms if type(t) is Const)
    for term in (t for t in s.terms if type(t) is not Const):
        v, a = (term.base if type(term) is Pow and term.k == 2 else None), 0.0
        if type(v) is Add and len(v.terms) == 2 and type(v.terms[1]) is Const:
            v, a = v.terms[0], -v.terms[1].val
        if type(v) is not Var or a.imag:
            return None
        centre[v.kind, v.i] = a.real
    k = len(centre) // 2
    if d.imag or not c.real * d.real < 1 or set(centre) != {
            (kind, i) for i in range(1, k + 1) for kind in "xy"}:
        return None
    return math.sqrt(1.0 - c.real * d.real) / math.sqrt(c.real) + math.hypot(*centre.values()), k


_SUPPORT = {
    Const: lambda e: (0.0, 0) if e.val == 0 else None,
    Var: lambda e: None,
    Add: lambda e: support(e.terms),
    # a zero factor first, then the factor over the most coordinates, then the smallest r
    Mul: lambda e: max(filter(None, map(support, e.factors)),
                       key=lambda p: (p[0] == 0, p[1], -p[0]), default=None),
    Div: lambda e: support(e.num),
    Pow: lambda e: support(e.base),
    Conj: lambda e: support(e.arg),
    Poly1: lambda e: None if e.coeffs[0] else support(e.arg),
    Fun: lambda e: _germ_ball(e.arg) if _FUNS[e.name][2] else None,
    Leaf: lambda e: None if e.fn.support_radius is None else (e.fn.support_radius, e.fn.dim),
}


def support_radius_in(e: Union[Expr, Sequence[Expr]], dim: int) -> Optional[float]:
    """The radius of ``support(e)`` when its ball spans all dim coordinates
    (any dim for the zero function), else None."""
    s = support(e)
    return None if s is None or (s[0] and s[1] < dim) else s[0]


def _operand(v) -> tuple:
    """(expression, dim) of the other operand of CylinderFn arithmetic: a
    CylinderFn's own, a number as a constant, a payload as a Leaf."""
    if isinstance(v, CylinderFn):
        return v.expr, v.dim
    if isinstance(v, (int, float, complex)):
        return const(v), 0
    if not callable(v):  # a text or an Expr is not a function
        raise TypeError(f"a {type(v).__name__} is not a function")
    return Leaf(v), v.dim


class CylinderFn:
    """Symbolic cylinder function: an Expr with a dimension.

    Its support radius is derived from the expression (``support_radius_in``),
    when it is read.  A ``support_radius`` given here is a claim, checked and
    never used: below the derived radius (up to the slack of ``support_rsq``),
    or on an expression with no derived ball, it raises ``ValueError``.

    ``+``, ``-`` and ``*`` build the node with the other operand in its place,
    except that a number is a product's first factor.  A call compiles the
    expression's ``Tape`` the first time and keeps it.
    """

    _tape = None  # compiled on the first call

    def __init__(self, expr: Union[Expr, str], support_radius: Optional[float] = None,
                 dim: Optional[int] = None):
        if isinstance(expr, str):
            expr = parse(expr)
        self.expr = expr
        d = max_index(expr)
        self.dim = d if dim is None else max(int(dim), d)
        if support_radius is not None:  # a claim, checked and never used
            r = self.support_radius
            if r is None or not (support_radius >= 0 and r * r <= support_rsq(support_radius)):
                raise ValueError(f"support radius {support_radius!r} is declared, but " + (
                    f"the expression gives no ball in C^{self.dim}" if r is None
                    else f"the derived one is {r!r}"))

    @property
    def support_radius(self) -> Optional[float]:
        return support_radius_in(self.expr, self.dim)

    def __call__(self, pts) -> np.ndarray:
        if self._tape is None:
            self._tape = Tape(self.expr)
        return self._tape.run(pts)[0]

    def d_dx(self, i: int) -> "CylinderFn":
        return CylinderFn(diff(self.expr, "x", i), dim=self.dim)

    def d_dy(self, i: int) -> "CylinderFn":
        return CylinderFn(diff(self.expr, "y", i), dim=self.dim)

    def is_zero(self) -> bool:
        return _is_const(self.expr, 0)

    def __add__(self, other) -> "CylinderFn":
        e, d = _operand(other)
        return CylinderFn(add(self.expr, e), dim=max(self.dim, d))

    def __radd__(self, other) -> "CylinderFn":
        e, d = _operand(other)
        return CylinderFn(add(e, self.expr), dim=max(self.dim, d))

    def __sub__(self, other) -> "CylinderFn":
        e, d = _operand(other)
        return self + CylinderFn(mul(const(-1.0), e), dim=d)

    def __rsub__(self, other) -> "CylinderFn":
        return other + (-self)

    def __mul__(self, other) -> "CylinderFn":
        if isinstance(other, (int, float, complex)):
            return self.__rmul__(other)
        e, d = _operand(other)
        return CylinderFn(mul(self.expr, e), dim=max(self.dim, d))

    def __rmul__(self, other) -> "CylinderFn":
        e, d = _operand(other)
        return CylinderFn(mul(e, self.expr), dim=max(self.dim, d))

    def __neg__(self) -> "CylinderFn":
        return (-1.0) * self


ZERO_FN = CylinderFn(ZERO)


# ---------------------------------------------------------------------------
# Wirtinger / Gaussian-adjoint operators
# ---------------------------------------------------------------------------

def del_op(f: CylinderFn, i: int) -> CylinderFn:
    """Holomorphic Wirtinger derivative: (d/dx_i - i d/dy_i)/2."""
    e = add(mul(const(0.5), diff(f.expr, "x", i)),
            mul(const(-0.5j), diff(f.expr, "y", i)))
    return CylinderFn(e, dim=f.dim)


def delbar_op(f: CylinderFn, i: int) -> CylinderFn:
    """Antiholomorphic Wirtinger derivative: (d/dx_i + i d/dy_i)/2."""
    e = add(mul(const(0.5), diff(f.expr, "x", i)),
            mul(const(0.5j), diff(f.expr, "y", i)))
    return CylinderFn(e, dim=f.dim)


def delta_op(f: CylinderFn, i: int, a_i: float) -> CylinderFn:
    """delta_i f = del_i f - zb_i/(2 a_i^2) * f."""
    if not a_i > 0:
        raise ValueError("a_i must be positive")
    factor = -1.0 / (2.0 * a_i ** 2)
    e = add(del_op(f, i).expr, mul(const(factor), zb(i), f.expr))
    return CylinderFn(e, dim=max(f.dim, i))


def sigma_op(f: CylinderFn, i: int, a_i: float, varphi: CylinderFn) -> CylinderFn:
    """sigma_i f = delta_i f - f * del_i(varphi)."""
    d = delta_op(f, i, a_i)
    e = add(d.expr, mul(const(-1), f.expr, del_op(varphi, i).expr))
    return CylinderFn(e, dim=max(d.dim, varphi.dim))


def free_variables(e: Expr) -> set:
    """Set of ('x'|'y', i) variables in the expression; a leaf brings all of its dim."""
    out: set = set()
    for n in _walk(e):
        if isinstance(n, Var):
            out.add((n.kind, n.i))
        elif isinstance(n, Leaf):
            out.update((k, i) for i in range(1, n.fn.dim + 1) for k in "xy")
    return out


def fd_check(expr: Expr, point: np.ndarray, h_step: float = 1e-5) -> float:
    """Max deviation between symbolic partials and centered finite differences.

    The finite-difference side is the independent oracle; it never reuses the
    symbolic derivative code.
    """
    point = np.asarray(point, dtype=float).reshape(-1)
    worst = 0.0
    for kind, i in sorted(free_variables(expr)):
        col = 2 * (i - 1) + (0 if kind == "x" else 1)
        pp = point.copy()
        pm = point.copy()
        pp[col] += h_step
        pm[col] -= h_step
        fd = (eval_expr(expr, pp)[0] - eval_expr(expr, pm)[0]) / (2.0 * h_step)
        sym = eval_expr(diff(expr, kind, i), point)[0]
        worst = max(worst, abs(sym - fd))
    return worst


def norm_sq_coords(n: int) -> Expr:
    """Sum of x_i^2 + y_i^2 over i <= n (the squared norm of the truncation)."""
    return add(*(add(pw(x(i), 2), pw(y(i), 2)) for i in range(1, n + 1))) if n >= 1 else ZERO
