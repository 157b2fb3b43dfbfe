import gc
import math
import sys
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from dbarl2 import dbarops as do
from dbarl2 import symfun as sf
from dbarl2.domains import whole_space
from dbarl2.forms import Form, parse_form_literal
from dbarl2.gaussmeasure import GaussianSpec
from dbarl2.multiindex import constant_family
from dbarl2.weights import smooth_step
from dbarl2.symfun import (CylinderFn, EvalError, ParseError, bump, conj_,
                           del_op, delbar_op, delta_op, diff, eval_expr,
                           ZERO_FN, fd_check, parse, sigma_op)

from conftest import (CountingFn, ScalarTwo, as_leaf, bump_fn, grid_of, random_form,
                      random_smooth_expr)


def ev(text, pt):
    return eval_expr(parse(text), np.asarray(pt, dtype=float))[0]


class TestParser:
    def test_z_sugar(self):
        assert ev("z(1)^2", [1.0, 1.0]) == pytest.approx(2j)
        assert ev("zb(1)", [0.5, 0.25]) == pytest.approx(0.5 - 0.25j)

    def test_bump_values(self):
        assert ev("bump(x(1))", [0.0, 0.0]) == pytest.approx(math.exp(-1.0))
        assert ev("bump(x(1))", [2.0, 0.0]) == 0.0

    def test_index_zero_rejected(self):
        with pytest.raises(ParseError):
            parse("x(0)")

    @pytest.mark.parametrize("text", ["cubic(x(1))", "step(x(1))"])
    def test_table_rows_outside_the_grammar(self, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError):
            parse("x(1) + * 2")

    def test_precedence_and_power(self):
        assert ev("2*x(1)^2+1", [3.0, 0.0]) == pytest.approx(19.0)
        assert ev("(x(1)+1)^2/2", [1.0, 0.0]) == pytest.approx(2.0)

    def test_funcs(self):
        assert ev("exp(0*x(1))", [5.0, 0.0]) == pytest.approx(1.0)
        assert ev("conj(z(1))", [0.3, 0.4]) == pytest.approx(0.3 - 0.4j)


_WS = st.sampled_from(["", " ", "  ", "\t", "\n"])
_LITERALS = ["2", "0.5", ".25", "3.", "1e-3", "1.5E+1", "7"]
_CALLS = {"exp": sf.exp_, "log": sf.log_, "sin": sf.sin_, "cos": sf.cos_, "bump": bump,
          "conj": conj_}


def _draw_sum(draw, depth):
    """A sum in the grammar, spaced at random, and the node that applying its
    operators one at a time, left to right, builds through the constructors."""
    def spaced(*parts):
        return "".join(p + draw(_WS) for p in parts)

    def factor():
        kind = draw(st.sampled_from(["number", "i", "i", "var"] + ["paren", "call"] * (depth > 0)))
        if kind == "number":
            text = draw(st.sampled_from(_LITERALS))
            e = sf.const(float(text))
        elif kind == "i":
            text, e = "i", sf.const(1j)
        elif kind == "var":
            name, i = draw(st.sampled_from(["x", "y", "z", "zb"])), draw(st.integers(1, 3))
            text, e = spaced(name, "(", str(i)) + ")", getattr(sf, name)(i)
        else:
            name = draw(st.sampled_from(sorted(_CALLS))) if kind == "call" else ""
            inner, e = _draw_sum(draw, depth - 1)
            text, e = spaced(name, "(" + inner) + ")", _CALLS[name](e) if name else e
        k = draw(st.none() | st.integers(-3, 3))
        if k is not None:
            text, e = spaced(text, "^", "-" * (k < 0)) + str(abs(k)), sf.pw(e, k)
        return text, e

    def term():
        text, e = factor()
        for _ in range(draw(st.integers(0, 3))):
            op, (ftext, f) = draw(st.sampled_from("*/")), factor()
            text, e = spaced(text, op) + ftext, sf.mul(e, f) if op == "*" else sf.div(e, f)
        return text, e

    sign = draw(st.sampled_from(["", "+", "-"]))
    text, e = term()
    text, e = spaced("", sign) + text, sf.mul(sf.const(-1), e) if sign == "-" else e
    for _ in range(draw(st.integers(0, 2))):
        op, (ttext, t) = draw(st.sampled_from("+-")), term()
        text, e = spaced(text, op) + ttext, sf.add(e, t if op == "+" else sf.mul(sf.const(-1), t))
    return spaced(text), e


# factors of a product, with the nodes the parser builds for them: i and the
# constants whose zero parts carry a sign, zeros, an underflow, nested products
_PRODUCT_FACTORS = {
    "i": sf.const(1j), "(0-1)": sf.add(sf.const(0.0), sf.mul(sf.const(-1), sf.const(1.0))),
    "(i*i)": sf.mul(sf.const(1j), sf.const(1j)), "x(1)": sf.x(1), "y(2)": sf.y(2),
    "z(1)": sf.z(1), "2": sf.const(2.0), "0.5": sf.const(0.5), "0": sf.const(0.0),
    "1e-200": sf.const(1e-200), "(2*x(1))": sf.mul(sf.const(2.0), sf.x(1)),
    "(0*x(1))": sf.mul(sf.const(0.0), sf.x(1)),
    "(i*x(1)*y(1))": sf.mul(sf.mul(sf.const(1j), sf.x(1)), sf.y(1)),
}
_DIVISORS = ["i", "(0-1)", "(i*i)", "x(1)", "z(1)", "2", "0.5", "(2*x(1))"]


@st.composite
def _text_and_node(draw):
    with np.errstate(all="ignore"):
        try:
            text, e = _draw_sum(draw, 2)
        except (ZeroDivisionError, EvalError):  # a constant folds to no value
            assume(False)
    return text, e


class TestParseOnePass:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(_text_and_node())
    @example(("i*i*i*x(1)", sf.mul(sf.mul(sf.mul(sf.const(1j), sf.const(1j)), sf.const(1j)),
                                   sf.x(1))))  # -1j; one mul of the four gives -0.0-1j
    def test_the_tree_of_applying_each_operator_in_turn(self, case):
        text, node = case
        with np.errstate(all="ignore"):
            assert parse(text) is node

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(_PRODUCT_FACTORS)),
           st.lists(st.one_of(st.tuples(st.just("*"), st.sampled_from(sorted(_PRODUCT_FACTORS))),
                              st.tuples(st.just("/"), st.sampled_from(_DIVISORS))), max_size=30))
    @example("i", [("*", "i"), ("*", "i"), ("*", "x(1)")])  # -1j, not -0.0-1j
    @example("2", [("*", "0.5"), ("*", "2"), ("*", "0.5")])  # ONE, not a complex 1
    @example("x(1)", [("*", "0"), ("*", "y(2)")])  # ZERO
    @example("1e-200", [("*", "1e-200"), ("*", "x(1)")])  # underflows to ZERO
    def test_a_product_is_the_left_fold(self, first, steps):
        # the very node of applying mul or div one factor at a time, left to right
        text, e = first, _PRODUCT_FACTORS[first]
        for op, f in steps:
            text += op + f
            e = sf.mul(e, _PRODUCT_FACTORS[f]) if op == "*" else sf.div(e, _PRODUCT_FACTORS[f])
        assert parse(text) is e

    def test_a_long_product_parses_in_linear_time(self):
        start = time.perf_counter()
        e = parse("*".join(["x(1)"] * 20_000))
        assert time.perf_counter() - start < 1.0
        assert e.factors == (sf.x(1),) * 20_000

    @pytest.mark.parametrize("n", [2000, 20000])
    def test_a_sum_is_one_add(self, monkeypatch, n):
        # a run of '*' is one mul, its first step (see _parse_product)
        calls = {"add": 0, "mul": 0}

        def counted(name, build):
            def call(*args):
                calls[name] += 1
                return build(*args)
            return call

        for name in calls:
            monkeypatch.setattr(sf, name, counted(name, getattr(sf, name)))
        e = parse(" + ".join(f"{k}*x(1)*y({k % 3 + 1})" for k in range(1, n + 1)))
        assert calls == {"add": 1, "mul": n}
        assert len(e.terms) == n

    @pytest.mark.parametrize("opener", ["(", "exp(", "conj("])
    def test_nesting_past_the_bound_is_a_parse_error(self, opener):
        deep, want = sf._MAX_NESTING, sf.x(1)
        for _ in range(deep):
            want = {"(": want, "exp(": sf.exp_(want), "conj(": conj_(want)}[opener]
        assert parse(opener * deep + "x(1)" + ")" * deep) is want
        with pytest.raises(ParseError, match=f"more than {deep} nested parentheses"):
            parse(opener * (deep + 1) + "x(1)" + ")" * (deep + 1))

    @pytest.mark.parametrize("text", ["1e400*x(1)", "x(1) - 2.5E+308", "1" + "0" * 400])
    def test_a_literal_too_large_for_a_float_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="too large for a float"):
            parse(text)

    def test_a_literal_that_underflows_is_zero(self):
        assert parse("1e-400*x(1)") is sf.ZERO
        assert parse("1.7976931348623157e308") is sf.const(sys.float_info.max)

    @pytest.mark.parametrize("text", ["x(\u0663)", "\u00b2", "x(1)^\u00b2", "\u00e9xp(x(1))"])
    def test_digits_and_names_are_ascii(self, text):
        with pytest.raises(ParseError):
            parse(text)


class TestEval:
    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1/x(1)", [0.0, 0.0])

    def test_log_nonpositive(self):
        with pytest.raises(EvalError):
            ev("log(x(1))", [-1.0, 0.0])

    def test_log_positive(self):
        assert ev("log(exp(x(1)))", [0.7, 0.0]) == pytest.approx(0.7)

    def test_vectorized_shape(self):
        pts = np.random.default_rng(0).normal(size=(50, 2))
        vals = eval_expr(parse("x(1)*y(1)"), pts)
        assert vals.shape == (50,)
        np.testing.assert_allclose(vals.real, pts[:, 0] * pts[:, 1])


    def test_walkers_leave_no_cyclic_garbage(self):
        e = parse("exp(x(1)*y(2))*bump((x(1)^2+y(1)^2+x(2)^2)/0.64)"
                  "+sin(x(2))^2/(1+x(1)^2)")
        pts = np.random.default_rng(3).standard_normal((50, 4))
        gc.collect()
        gc.disable()
        try:
            eval_expr(e, pts)
            sf.max_index(e)
            assert CylinderFn(e).support_radius is None  # the sine term is unbounded
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_real_check_is_per_point(self):
        def raises(v):
            try:
                sf._require_real(v, "test")
            except EvalError:
                return True
            return False

        parts = {
            "small_nonreal": np.array([1e-3 + 1e-6j]),
            "small_real": np.array([1e-3 + 1e-13j]),
            "large": np.array([1e4 + 1e-6j]),
        }
        assert raises(parts["small_nonreal"])
        assert not raises(parts["small_real"])
        assert not raises(parts["large"])
        for a in parts.values():
            for b in parts.values():
                both = np.concatenate([a, b])
                assert raises(both) == (raises(a) or raises(b))


class TestDerivatives:
    def test_product_rule(self):
        e = diff(parse("x(1)*x(2)"), "x", 1)
        pts = np.array([[1.0, 0, 5.0, 0]])
        assert eval_expr(e, pts)[0] == pytest.approx(5.0)

    def test_constant_derivative(self):
        assert sf._is_const(diff(sf.const(4.2), "y", 3), 0)

    def test_smooth_not_frechet_fixture(self):
        # truncated infinite product whose x_i-partials all equal 2 pi at (1/j)_j
        N = 5
        facs = []
        for j in range(1, N + 1):
            w = 2 * j * j * math.pi
            facs.append(sf.add(1, sf.mul(sf.pw(sf.x(j), 2),
                                         sf.sin_(sf.mul(sf.const(w), sf.x(j))))))
            facs.append(sf.add(1, sf.mul(sf.pw(sf.y(j), 2),
                                         sf.sin_(sf.mul(sf.const(w), sf.y(j))))))
        e = sf.mul(*facs)
        z0 = np.zeros(2 * N)
        for j in range(N):
            z0[2 * j] = 1.0 / (j + 1)
        for i in range(1, N + 1):
            d = eval_expr(diff(e, "x", i), z0)[0]
            assert d.real == pytest.approx(2 * math.pi, abs=1e-9)

    def test_fd_random_smooth(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            e = random_smooth_expr(rng, n_vars=2, depth=4)
            pt = rng.normal(scale=0.4, size=4)
            assert fd_check(e, pt, 1e-5) <= 1e-6

    def test_fd_exp(self):
        assert fd_check(parse("exp(x(1))"), np.array([0.0, 0.0]), 1e-5) <= 1e-9

    def test_fd_constant_exact(self):
        assert fd_check(sf.const(3.0), np.array([0.1, 0.2]), 1e-5) == 0.0


class TestWirtinger:
    def test_holomorphic_kernel(self):
        pts = np.random.default_rng(3).normal(size=(100, 12), scale=0.5)
        for i in range(1, 7):
            for j in range(1, 7):
                dz = delbar_op(CylinderFn(sf.z(j)), i)(pts)
                dzb = del_op(CylinderFn(sf.zb(j)), i)(pts)
                assert np.max(np.abs(dz)) <= 1e-14
                assert np.max(np.abs(dzb)) <= 1e-14

    def test_kronecker(self):
        pts = np.random.default_rng(4).normal(size=(50, 8), scale=0.5)
        for i in range(1, 5):
            for j in range(1, 5):
                v = delbar_op(CylinderFn(sf.zb(j)), i)(pts)
                expect = 1.0 if i == j else 0.0
                assert np.max(np.abs(v - expect)) <= 1e-14

    def test_wirtinger_pair(self):
        d, db = del_op(CylinderFn("x(1)^2"), 1), delbar_op(CylinderFn("x(1)^2"), 1)
        pts = np.array([[0.5, 0.2]])
        assert d(pts)[0] == pytest.approx(0.5)
        assert db(pts)[0] == pytest.approx(0.5)

    def test_delta_of_one(self):
        a = 0.25
        d = delta_op(CylinderFn("1"), 1, a)
        pts = np.array([[0.5, 0.1]])
        assert d(pts)[0] == pytest.approx(-(0.5 - 0.1j) / (2 * a * a))

    def test_sigma_reduces_to_delta(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 2), scale=0.3)
        f = CylinderFn("sin(x(1))*y(1)")
        a = 0.25
        s = sigma_op(f, 1, a, CylinderFn("0"))
        d = delta_op(f, 1, a)
        np.testing.assert_allclose(s(pts), d(pts), atol=1e-15)

    def test_conj_involution(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(50, 4), scale=0.5)
        for _ in range(10):
            e = random_smooth_expr(rng, n_vars=2, depth=3)
            v1 = eval_expr(conj_(conj_(e)), pts)
            v0 = eval_expr(e, pts)
            assert np.max(np.abs(v1 - v0)) <= 1e-14


class TestSupport:
    def test_bump_support_enforced(self):
        f = CylinderFn("bump((x(1)^2+y(1)^2)/0.25)", support_radius=0.5)
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(1000, 2))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        pts *= 0.5 + rng.random((1000, 1)) * 2.0
        assert np.max(np.abs(f(pts))) == 0.0

    def test_radius_combination(self):
        a = CylinderFn("bump(x(1)^2+y(1)^2)")
        b = CylinderFn("bump((x(1)^2+y(1)^2)/4)")
        assert (a * b).support_radius == 1.0
        assert (a + b).support_radius == 2.0
        # a bounds a ball in C^1; in C^2 the product is a cylinder
        prod = a * CylinderFn("x(2)")
        assert prod.dim == 2 and prod.support_radius is None
        assert prod(np.array([[0.0, 0.0, 5.0, 0.0]]))[0] != 0.0  # |z| = 5 > 1
        assert (a + CylinderFn("x(2)")).support_radius is None
        assert (a + ZERO_FN).support_radius == 1.0  # zero adds nothing
        assert (a * ZERO_FN).support_radius == 0.0  # zero absorbs
        c = CylinderFn("bump(x(1)^2+y(1)^2+x(2)^2+y(2)^2)", support_radius=1.0)
        assert (c * CylinderFn("x(1)")).support_radius == 1.0  # full-dim factor bounds

    def test_rules(self):
        ball = "x(1)^2+y(1)^2+x(2)^2+y(2)^2"
        assert sf.support(parse(f"bump(({ball})/0.64)")) == (pytest.approx(0.8), 2)
        assert sf.support(parse("bump(((x(1)-0.1)^2+y(1)^2)/0.36)")) == (pytest.approx(0.7), 1)
        assert sf.support(parse("bump((x(1)+0.3)^2+(y(1)-0.4)^2)")) == (pytest.approx(1.5), 1)
        assert sf.support(sf.Fun("bump", parse(f"({ball})/4"), 3)) == (2.0, 2)  # a derivative
        # arguments that are not c * |z - a|^2 over whole coordinates, c > 0
        for arg in ("x(1)", "x(1)^2", "x(1)^2+y(2)^2", "x(1)^2+x(1)^2", "-(x(1)^2+y(1)^2)",
                    "i*(x(1)^2+y(1)^2)", "x(1)^2+y(1)^2+1", "2*x(1)^2+y(1)^2"):
            assert sf.support(parse(f"bump({arg})")) is None, arg
        bmp = "bump(x(1)^2+y(1)^2)"
        assert sf.support(sf.ZERO) == (0.0, 0) and ZERO_FN.support_radius == 0.0
        for text in ("1", "x(1)", f"exp({bmp})", f"sin({bmp})", f"1+{bmp}", f"x(1)/{bmp}"):
            assert sf.support(parse(text)) is None, text
        for text in (f"x(1)*{bmp}", f"{bmp}/(1+x(1)^2)", f"{bmp}^3", f"conj(i*{bmp})",
                     f"x(1)*{bmp}+y(1)*bump((x(1)^2+y(1)^2)/0.25)"):
            assert sf.support(parse(text)) == (1.0, 1), text
        assert sf.support(sf.poly1(parse(bmp), (0.0, 1.0, 2.0))) == (1.0, 1)
        assert sf.support(sf.poly1(parse(bmp), (1.0, 1.0))) is None
        # a product goes by its factor over the most coordinates, then the smallest
        assert sf.support(parse(f"bump(({ball})/4)*bump(({ball})/9)*{bmp}")) == (2.0, 2)
        # a sum over the fewest
        assert sf.support(parse(f"bump(({ball})/4)+bump((x(1)^2+y(1)^2)/9)")) == (3.0, 1)
        # a sequence is a sum whose constants do not cancel
        assert sf.support([sf.ONE, sf.const(-1)]) is None and sf.support([]) == (0.0, 0)
        leaf = sf.Leaf(CountingFn(bump_fn(2, 0.5)))
        assert sf.support(leaf) == (pytest.approx(0.5), 2)
        assert sf.support(sf.Leaf(ScalarTwo(2))) is None
        # CylinderFn reads the ball only over its own dim
        assert CylinderFn(parse(bmp), dim=2).support_radius is None

    def test_germ_rule(self):
        # bump, cubic and step are each 0 where their argument is > 1, so one rule
        # bounds c * (|z - a|^2 + d) for all three: the ball of radius sqrt(1/c - d)
        assert sf.support(smooth_step(2.0, whole_space().eta(2)).expr) == (math.sqrt(3.0), 2)
        step = sf.germ_step(sf.mul(sf.const(2.0), sf.add(parse("x(1)^2+y(1)^2"), sf.const(-0.25))))
        assert sf.support(step) == (pytest.approx(math.sqrt(0.75), rel=1e-15), 1)
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(2000, 4))
        pts *= (1.0 + 1e-9 + rng.random((2000, 1))) / np.linalg.norm(pts, axis=1, keepdims=True)
        pts[:, 0] += 0.1  # |z - a| > 1 for a = (0.1, 0, 0, 0)
        arg = parse("2*((x(1)-0.1)^2+y(1)^2+x(2)^2+y(2)^2-0.5)")
        for name in ("bump", "cubic", "step"):
            germ = sf.Fun(name, arg, 0)
            assert sf.support(germ) == (pytest.approx(1.1), 2), name
            assert np.max(np.abs(eval_expr(germ, pts))) == 0.0, name
            assert np.max(np.abs(eval_expr(germ, np.zeros((1, 4))))) > 0.0, name
            # 1/c - d <= 0: the argument is >= 1 everywhere, and the rule gives no ball
            assert sf.support(sf.Fun(name, parse("x(1)^2+y(1)^2+1"), 0)) is None, name

    def test_old_false_declarations_raise(self, fam):
        # each a radius an earlier test declared and its expression does not have
        assert abs(ev("bump(x(1))", [0.5, 5.0])) == pytest.approx(0.2636, abs=1e-4)
        for text, radius in (("bump(x(1))", 1.0), ("1+x(1)", 0.8)):
            with pytest.raises(ValueError, match="gives no ball"):
                CylinderFn(text, support_radius=radius)
        with pytest.raises(ValueError, match="gives no ball"):
            CylinderFn("bump(x(1))", support_radius=1.0) * CylinderFn("x(2)^2")
        with pytest.raises(ValueError, match="gives no ball"):
            parse_form_literal([{"I": [], "J": [2], "coeff": "y(2)^2"}], (0, 1), fam,
                               support_radius=2.0)

    def test_declared_radius_is_a_checked_claim(self):
        text = "x(1)*bump((x(1)^2+y(1)^2)/0.64)"
        for radius in (0.8, np.nextafter(0.8, 0.0), 1.0):  # an ulp below passes
            assert CylinderFn(text, support_radius=radius).support_radius == \
                CylinderFn(text).support_radius
        for radius in (0.5, 0.8 * (1 - 1e-9), -0.8, float("nan")):
            with pytest.raises(ValueError, match="the derived one is"):
                CylinderFn(text, support_radius=radius)
        with pytest.raises(ValueError, match="the derived one is"):
            CylinderFn("bump(((x(1)-0.1)^2+y(1)^2)/0.36)", support_radius=0.65)


@st.composite
def _bump_germ(draw):
    """A bump germ (or one of its first derivatives) of c |z_1..z_k - a|^2."""
    k = draw(st.integers(1, 2))
    terms = [sf.pw(sf.add(v(i), sf.const(-draw(st.sampled_from([0.0, 0.1, -0.3])))), 2)
             for i in range(1, k + 1) for v in (sf.x, sf.y)]
    c = draw(st.sampled_from([0.5, 1.0, 1.5625, 4.0]))
    return sf.Fun("bump", sf.mul(sf.const(c), sf.add(*terms)), draw(st.integers(0, 1)))


@st.composite
def _bounded_tree(draw, depth=2):
    """Products, sums, quotients, powers, conjugates and polynomials of bump germs."""
    a = draw(_bump_germ())
    if depth == 0 or draw(st.booleans()):
        return a
    b = draw(_bounded_tree(depth - 1))
    op = draw(st.sampled_from(["mul", "add", "div", "pow", "poly", "conj"]))
    if op == "mul":
        return sf.mul(a, draw(st.sampled_from([sf.x(1), sf.y(2), sf.const(2 - 1j), b])))
    if op == "add":
        return sf.add(a, sf.mul(sf.const(-0.5), b))
    if op == "div":
        return sf.div(sf.mul(a, b), sf.add(sf.ONE, sf.pw(sf.x(2), 2)))
    if op == "pow":
        return sf.pw(sf.add(a, b), 2)
    if op == "poly":
        return sf.poly1(sf.add(a, b), (0.0, 1.0, -2.0))
    return conj_(sf.mul(sf.const(1j), a, b))


_CTX = do.OperatorContext(GaussianSpec(2), constant_family(1.0), CylinderFn("x(1)^2"),
                          CylinderFn("0.5*(x(1)^2+y(2)^2)"), CylinderFn("0"),
                          CylinderFn("x(1)^2"))


@settings(max_examples=60, deadline=None)
@given(_bounded_tree(), st.sampled_from(["none", "dbar1", "dbar2", "Tstar"]),
       st.integers(0, 2 ** 32 - 1))
def test_support_holds_the_sampled_support(e, op, seed):
    """support(e) is never smaller than the support sampled on random points."""
    if op.startswith("dbar"):
        e = delbar_op(CylinderFn(e), int(op[-1])).expr
    elif op == "Tstar":
        f = Form((0, 1), {((), (1,)): CylinderFn(e)}, _CTX.family)
        e = do.Tstar(f, _CTX).coeff((), ()).expr
    s = sf.support(e)
    assert s is not None  # every such tree is bounded, and the rules see it
    r, k = s
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(400, 4))
    if k == 0:  # the zero function
        assert not np.any(eval_expr(e, pts))
        return
    head = pts[:, :2 * k]
    head *= (rng.random((400, 1)) * (2.0 * r + 0.5)) / np.linalg.norm(head, axis=1)[:, None]
    vals = eval_expr(e, pts)
    live = np.linalg.norm(head, axis=1)[vals != 0]
    assert np.all(live <= r * (1 + 1e-12)), (r, k, live.max())


class TestLeaf:
    """Opaque functions enter the tree as Leaf nodes."""

    @pytest.fixture
    def grid(self):
        return grid_of(CylinderFn("(1+x(1)*y(1))*bump((x(1)^2+y(1)^2)/0.64)",
                                  support_radius=0.8), 1, 1.0, 41)

    @pytest.fixture
    def pts(self):
        return np.random.default_rng(11).normal(size=(60, 2), scale=0.3)

    def test_grid_times_cylinder(self, grid, pts):
        cf = CylinderFn("exp(x(1))")
        prod = grid * cf
        assert isinstance(prod, CylinderFn)
        assert np.array_equal(prod(pts), grid(pts) * cf(pts))

    def test_reduced_plus_cylinder(self, spec2):
        from dbarl2.gaussmeasure import ReducedFn, reduce_fn
        red = reduce_fn(bump_fn(2, 0.8), 1, spec2)
        assert isinstance(red.expr.fn, ReducedFn)
        cf = CylinderFn("sin(x(1))")
        total = red + cf
        assert isinstance(total, CylinderFn)
        pts = np.random.default_rng(12).normal(size=(40, 2), scale=0.3)
        assert np.array_equal(total(pts), red(pts) + cf(pts))

    def test_a_payload_keeps_its_place(self, grid):
        # a values-only operand is a Leaf where it stands; a number leads a product
        cf, leaf = CylinderFn("exp(x(1))+y(2)"), sf.Leaf(grid)
        assert (grid * cf).expr is (as_leaf(grid) * cf).expr is sf.mul(leaf, cf.expr)
        assert (cf * grid).expr is sf.mul(cf.expr, leaf)
        assert (grid + cf).expr is (as_leaf(grid) + cf).expr is sf.add(leaf, cf.expr)
        assert (cf + grid).expr is sf.add(cf.expr, leaf)
        assert (grid - cf).expr is sf.add(leaf, sf.mul(sf.const(-1.0), cf.expr))
        assert (cf - grid).expr is sf.add(cf.expr, sf.mul(sf.const(-1.0), leaf))
        assert (2 * cf).expr is (cf * 2).expr is sf.mul(sf.const(2), cf.expr)
        # folded in the other order, 2j * -1j would be 2 - 0j, not 2 + 0j
        i2 = CylinderFn("2*i*x(1)")
        assert (i2 * -1j).expr is (-1j * i2).expr is sf.mul(sf.const(-1j), i2.expr) \
            is not sf.mul(i2.expr, sf.const(-1j))
        assert (2 - cf).expr is sf.add(sf.const(2), sf.mul(sf.const(-1.0), cf.expr))
        assert (grid * cf).dim == (cf - grid).dim == 2 and (2 * as_leaf(grid)).dim == 1
        for other in ("x(2)", sf.x(2), None):
            with pytest.raises(TypeError):
                cf + other

    def test_negated_grid(self, grid, pts):
        neg = -as_leaf(grid)
        assert isinstance(neg, CylinderFn)
        assert np.array_equal(neg(pts), (-1.0) * grid(pts))

    def test_delbar_of_leaf_product_is_the_product_rule(self, grid, pts):
        f = CylinderFn("x(1)^2*y(1)+y(1)")
        got = delbar_op(grid * f, 1)(pts)
        gx, gy = grid.d_dx(1)(pts), grid.d_dy(1)(pts)
        fx, fy = f.d_dx(1)(pts), f.d_dy(1)(pts)
        want = 0.5 * (gx * f(pts) + grid(pts) * fx) + 0.5j * (gy * f(pts) + grid(pts) * fy)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_leaf_dim_counts_as_variables(self):
        leaf = sf.Leaf(ScalarTwo(3))
        e = sf.mul(sf.x(1), leaf)
        assert sf.max_index(e) == 3
        assert sf.free_variables(e) == {(k, i) for k in "xy" for i in (1, 2, 3)}
        assert CylinderFn(e).dim == 3

    def test_leaves_compare_by_payload(self, grid):
        a, b = sf.Leaf(grid), sf.Leaf(ScalarTwo(1))
        assert a != b
        assert a == sf.Leaf(grid) and hash(a) == hash(sf.Leaf(grid))

    def test_partials_beyond_the_leaf_dim_vanish(self, grid, spec2):
        from dbarl2.gaussmeasure import reduce_fn
        assert diff(sf.Leaf(grid), "x", 2) is sf.ZERO
        assert diff(sf.Leaf(reduce_fn(bump_fn(2, 0.8), 1, spec2)), "y", 2) is sf.ZERO

    def test_delbar_of_a_reduced_product_is_the_product_rule(self, spec2):
        from dbarl2.gaussmeasure import reduce_fn
        red = reduce_fn(bump_fn(2, 0.8, poly="1+x(1)*y(2)"), 1, spec2)
        pts = np.random.default_rng(13).normal(size=(30, 4), scale=0.3)
        prod = CylinderFn("x(2)", dim=2) * red
        dbar_red = 0.5 * (red.d_dx(1)(pts) + 1j * red.d_dy(1)(pts))
        assert np.max(np.abs(delbar_op(prod, 1)(pts) - pts[:, 2] * dbar_red)) <= 1e-12
        assert np.max(np.abs(delbar_op(prod, 2)(pts) - 0.5 * red(pts))) <= 1e-12

    def test_dbar_of_the_approximation_output(self, spec2, fam):
        from dbarl2.dbarops import dbar
        from dbarl2.domains import whole_space
        from dbarl2.forms import Form
        from dbarl2.gaussmeasure import Quadrature
        from dbarl2.reduction import approx_pipeline
        f = Form((0, 0), {((), ()): bump_fn(2, 0.4, poly="1+x(1)")}, fam)
        out = approx_pipeline(f, whole_space(), 2.0, [1], [0.2], spec2,
                              Quadrature("monte_carlo", N=20_000, seed=404), 101).output
        df = dbar(out)
        assert set(df.coeffs) == {((), (1,)), ((), (2,))}
        pts = np.random.default_rng(14).normal(size=(20, 4), scale=0.3)
        for fn in df.coeffs.values():
            assert np.all(np.isfinite(fn(pts)))


def _structural_counts(roots) -> tuple:
    """(tree size counting repeats, number of structurally distinct subtrees).

    Numbers each subtree by (type, scalar fields, children's numbers), bottom
    up over the tree as written, so node identity plays no part.
    """
    numbers: dict = {}

    def walk(n):
        kids = [walk(c) for c in sf._children(n)]
        scalars = []
        for fld in fields(n):
            v = getattr(n, fld.name)
            if isinstance(v, sf.Expr) or (type(v) is tuple and v and isinstance(v[0], sf.Expr)):
                continue
            scalars.append(id(v) if isinstance(n, sf.Leaf) else repr(v))
        key = (type(n).__name__, tuple(scalars), tuple(k for k, _ in kids))
        return numbers.setdefault(key, len(numbers)), 1 + sum(size for _, size in kids)

    tree = sum(walk(r)[1] for r in roots)
    return tree, len(numbers)


def _operator_tree(spec2, fam):
    from dbarl2.dbarops import OperatorContext, Tstar, dbar
    ctx = OperatorContext(spec2, fam, CylinderFn("x(1)^2"),
                          CylinderFn("0.5*(x(1)^2+y(2)^2)"), CylinderFn("0"),
                          CylinderFn("x(1)^2"))
    f = random_form(np.random.default_rng(1), (0, 1), 2, 0.8, fam)
    return dbar(Tstar(f, ctx))


def _every_node_kind(leaf_fn):
    x1, y1 = sf.x(1), sf.y(1)
    return sf.add(
        sf.mul(sf.const(0.5 + 0.25j), x1, sf.Leaf(leaf_fn)),
        sf.div(sf.exp_(y1), sf.add(sf.pw(x1, 2), sf.const(1.0))),
        sf.bump(x1), sf.cubic_step(y1, 0.0), sf.germ_step(x1),
        sf.poly1(y1, (1.0, 2.0, 3.0)), conj_(sf.mul(x1, sf.const(1j), y1)))


class TestInterning:
    """Nodes are hash-consed: one live object per structure."""

    def test_equal_parses_are_one_object(self):
        text = "exp(x(1)*y(2))*bump((x(1)^2+y(1)^2)/0.64)+sin(x(2))^2/(1+x(1)^2)"
        assert parse(text) is parse(text)
        assert diff(parse(text), "x", 1) is diff(parse(text), "x", 1)

    def test_signed_zeros_stay_apart(self):
        assert sf.Const(0.0) is not sf.Const(-0.0)
        assert sf.Const(-0.0) is sf.Const(-0.0)
        assert sf.const(complex(1.0, 0.0)) is not sf.const(complex(1.0, -0.0))
        assert sf.poly1(sf.x(1), (0.0, 1.0)) is not sf.poly1(sf.x(1), (-0.0, 1.0))
        assert sf.Const(0.0) is not sf.Const(0j)

    def test_table_returns_to_its_size_after_a_drop(self):
        before = len(sf._INTERNED)
        e = parse("cos(x(3)*0.918273645)+y(3)^7/(2.71828+x(3))")
        assert len(sf._INTERNED) > before
        del e
        assert len(sf._INTERNED) == before

    def test_rebuilds_return_the_interned_node(self):
        e = _every_node_kind(ScalarTwo(1))
        assert {type(n) for n in sf._walk(e)} == set(sf._RULES)
        for n in sf._walk(e):
            assert replace(n) is n

    def test_dbar_tstar_leaves_no_cyclic_garbage(self, spec2, fam):
        gc.collect()
        gc.disable()
        try:
            tree = _operator_tree(spec2, fam)
            del tree
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_operator_tree_walks_its_distinct_structures(self, spec2, fam):
        roots = tuple(fn.expr for fn in _operator_tree(spec2, fam).coeffs.values())
        tree, distinct = _structural_counts(roots)
        assert len(sf.Tape(roots)) == distinct
        assert tree > 8 * distinct


class TestSharedEval:
    """Several roots on one point set share one memo."""

    @pytest.fixture
    def pts(self):
        return np.random.default_rng(15).normal(size=(200, 4), scale=0.4)

    def test_roots_equal_their_own_evaluation(self, pts):
        rng = np.random.default_rng(16)
        roots = [random_smooth_expr(rng) for _ in range(6)]
        b = bump_fn(2, 0.8, poly="x(1)-y(2)").expr
        roots += [b, diff(b, "y", 2), sf.mul(roots[0], b), roots[0], sf.const(2.5)]
        got = eval_expr(roots, pts)
        assert len(got) == len(roots)
        for r, v in zip(roots, got):
            assert np.array_equal(v, eval_expr(r, pts))

    def test_a_shared_leaf_is_called_once(self, pts, spec2, fam):
        from dbarl2.forms import Form, norm_sq
        from dbarl2.gaussmeasure import Quadrature
        counting = CountingFn(bump_fn(2, 0.8))
        roots = [sf.mul(sf.x(1), sf.Leaf(counting)), sf.add(sf.Leaf(counting), sf.y(2))]
        eval_expr(roots, pts)
        assert counting.calls == 1
        form = Form((0, 1), {((), (1,)): counting * CylinderFn("x(1)"),
                             ((), (2,)): counting + CylinderFn("y(2)")}, fam)
        norm_sq(form, None, spec2, Quadrature("monte_carlo", N=500, seed=3))
        assert counting.calls == 2

    def test_an_error_in_any_root_propagates(self, pts):
        good, bad = parse("x(1)*y(2)"), parse("1/(x(1)-x(1))")
        for roots in ([good, bad], [bad, good], [good, good, bad]):
            with pytest.raises(EvalError):
                eval_expr(roots, pts)


class TestGerms:
    def test_cubic_step_midpoint(self):
        e = sf.cubic_step(sf.x(1), 2)
        assert ev_expr(e, 2.5) == pytest.approx(0.5)
        assert ev_expr(e, 2.0) == pytest.approx(1.0)
        assert ev_expr(e, 3.0) == pytest.approx(0.0)

    def test_germ_step_plateaus(self):
        e = sf.germ_step(sf.x(1))
        assert ev_expr(e, -1.0) == 1.0
        assert ev_expr(e, 2.0) == 0.0
        mid = ev_expr(e, 0.5)
        assert 0.0 < mid < 1.0

    def test_germ_derivative_matches_fd(self):
        e = sf.germ_step(sf.x(1))
        for t in (0.2, 0.5, 0.8):
            assert fd_check(e, np.array([t, 0.0]), 1e-6) <= 1e-8

    def test_germ_of_a_constant_has_one_value_per_point(self):
        # a germ keeps its argument's shape, so a constant broadcasts as exp(0.5) does
        pts = np.zeros((5, 2))
        assert CylinderFn("bump(0.5)")(pts).shape == CylinderFn("exp(0.5)")(pts).shape == (5,)
        for e in (bump(sf.const(0.5)), sf.cubic_step(sf.const(0.5), 0.0),
                  sf.germ_step(sf.const(0.5))):
            v = eval_expr(e, pts)
            assert v.shape == (5,) and np.all(v == v[0])

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_bump_inside_batch_matches_the_gathered_path(self, k):
        t = np.random.default_rng(31).uniform(-0.999, 0.999, 500)
        mixed = np.concatenate([t, [2.0, -1.0, 0.99999995]])[::-1]
        assert sf.bump_values(t, k).tobytes() == sf.bump_values(mixed, k)[::-1][:500].tobytes()
        # a 0-d argument keeps the 0-d float array of the gathered path
        inside, outside = sf.bump_values(np.asarray(0.3), k), sf.bump_values(np.asarray(2.0), k)
        assert type(inside) is type(outside) is np.ndarray
        assert inside.shape == outside.shape == () and inside.dtype == outside.dtype == float
        assert inside == sf.bump_values(np.array([0.3]), k)[0]

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_germs_give_nan_at_nan_and_their_tails_at_inf(self, k):
        x1 = sf.x(1)
        # (germ, its value at -inf, its value at +inf)
        for e, lo, hi in ((bump(x1), 0.0, 0.0), (sf.cubic_step(x1, 0.0), float(k == 0), 0.0),
                          (sf.germ_step(x1), float(k == 0), 0.0)):
            for _ in range(k):
                e = diff(e, "x", 1)
            with np.errstate(invalid="ignore"):
                got = eval_expr(e, np.array([[np.nan, 0.0], [-np.inf, 0.0], [np.inf, 0.0],
                                             [0.5, 0.0]])).real
            assert np.isnan(got[0]) and got[1:3].tolist() == [lo, hi]
            assert got[3] == eval_expr(e, np.array([[0.5, 0.0]])).real[0]
        with np.errstate(invalid="ignore"):
            assert np.isnan(sf.bump_values(np.array([np.nan]), k)).all()

    def test_bump_cylinder_gives_nan_at_nan(self):
        f = CylinderFn("bump((x(1)^2+y(1)^2)/0.64)")
        with np.errstate(invalid="ignore"):
            got = f(np.array([[np.nan, 0.1], [np.inf, 0.1], [0.1, 0.1]]))
        assert np.isnan(got[0]) and got[1] == 0.0 and 0.0 < got[2].real < 1.0

    def test_bump_higher_derivatives_match_fd(self):
        e = diff(bump(sf.x(1)), "x", 1)
        for t in (0.0, 0.3, 0.7):
            assert fd_check(e, np.array([t, 0.0]), 1e-6) <= 1e-7


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(sf._FUNS))
def test_every_primitive_partial_matches_fd(name, k):
    # the k-th derivative by the partial rule, at points inside every germ's descent
    e = sf._fun(name, sf.x(1))
    for _ in range(k):
        e = diff(e, "x", 1)
    if sf._FUNS[name][2] is not None:  # a germ's k-th derivative is one node
        assert e is sf.Fun(name, sf.x(1), k)
    for t in (0.3, 0.7):
        scale = max(1.0, abs(ev_expr(diff(e, "x", 1), t)))
        assert fd_check(e, np.array([t, 0.0])) <= 1e-7 * scale


def ev_expr(e, t):
    return eval_expr(e, np.array([t, 0.0]))[0].real


# ---------------------------------------------------------------------------
# The tape against the all-complex evaluator it replaced
# ---------------------------------------------------------------------------

def _reference(roots, pts):
    """The all-complex evaluator: a memo of every node under the roots,
    children first, each value as numpy gives it when every Const is a
    Python complex; the roots converted to complex at the end.  Returns the
    root values and whether every node value was finite."""
    pts = np.asarray(pts, dtype=float)
    memo, finite = {}, True
    for n in _postorder(roots):
        v = memo[n] = _node_value(n, memo, pts)
        finite = finite and bool(np.all(np.isfinite(v)))
    outs = []
    for r in roots:
        out = np.asarray(memo[r])
        if out.ndim == 0:
            out = np.broadcast_to(out, (pts.shape[0],))
        outs.append(np.asarray(out, dtype=complex))
    return outs, finite


def _postorder(roots):
    seen, order = set(), []

    def visit(n):
        if n not in seen:
            seen.add(n)
            for c in sf._children(n):
                visit(c)
            order.append(n)

    for r in roots:
        visit(r)
    return order


def _node_value(n, memo, pts):
    """One node from its children's values, with numpy's own promotion."""
    if isinstance(n, sf.Const):
        return n.val
    if isinstance(n, sf.Var):
        col = 2 * (n.i - 1) + (n.kind == "y")
        if col >= pts.shape[1]:
            raise EvalError(f"point has no coordinate {n.kind}_{n.i}")
        return pts[:, col]
    if isinstance(n, sf.Add):
        v = memo[n.terms[0]]
        for t in n.terms[1:]:
            v = v + memo[t]
        return v
    if isinstance(n, sf.Mul):
        v = memo[n.factors[0]]
        for t in n.factors[1:]:
            v = v * memo[t]
        return v
    if isinstance(n, sf.Div):
        den = memo[n.den]
        if np.any(den == 0):
            raise EvalError("division by zero")
        return memo[n.num] / den
    if isinstance(n, sf.Pow):
        return memo[n.base] ** n.k
    if isinstance(n, sf.Fun) and n.name in ("exp", "log", "sin", "cos"):
        return sf._FUNS[n.name][0](memo[n.arg])
    if isinstance(n, sf.Fun) and n.name == "bump":
        return sf.bump_values(sf._require_real(memo[n.arg], "bump"), n.k)
    if isinstance(n, sf.Fun) and n.name == "cubic":
        t = np.asarray(sf._require_real(memo[n.arg], "cubic step"))
        out = np.zeros(t.shape, dtype=float)
        if n.k == 0:
            out[t < 0.0] = 1.0
        mid = (t >= 0.0) & (t <= 1.0)
        if np.any(mid):
            out[mid] = npoly.polyval(t[mid], np.asarray(sf._cubic_poly(n.k)))
        return out
    if isinstance(n, sf.Fun) and n.name == "step":
        t = np.asarray(sf._require_real(memo[n.arg], "smooth step"))
        out = np.zeros(t.shape, dtype=float)
        if n.k == 0:
            out[t <= sf._GERM_CUT] = 1.0
        mid = (t > sf._GERM_CUT) & (t < 1.0 - sf._GERM_CUT)
        if np.any(mid):
            sub = np.zeros((int(mid.sum()), 2))
            sub[:, 0] = t[mid]
            out[mid] = np.real(_reference([sf._germ_template(n.k)], sub)[0][0])
        return out
    if isinstance(n, sf.Poly1):
        return npoly.polyval(np.asarray(memo[n.arg], dtype=complex), np.asarray(n.coeffs))
    if isinstance(n, sf.Conj):
        return np.conjugate(memo[n.arg])
    if isinstance(n, sf.Leaf):
        return n.fn(pts)
    raise TypeError(type(n))


class _Wave:
    """An opaque function with complex values (real ones when ``real``)."""

    dim, support_radius = 2, None

    def __init__(self, real: bool):
        self.real = real

    def __call__(self, pts):
        v = np.cos(3.0 * pts[:, 0]) * pts[:, 3] + 0.5
        return v.astype(complex) if self.real else v * np.exp(1j * pts[:, 1])


_LEAVES = (_Wave(True), _Wave(False), ScalarTwo(2))
_GRID = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])  # zeros for quotients and logs
_SMALL = st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0]) | st.floats(-3.0, 3.0, width=64)


@st.composite
def _leaf(draw, real):
    kind = draw(st.sampled_from(("float", "complex", "zero_imag", "zero_imag", "var", "var",
                                 "leaf")))
    if kind == "float":
        return sf.Const(draw(_SMALL))
    if kind == "complex" and not real:
        return sf.Const(complex(draw(_SMALL), draw(_SMALL.filter(bool))))
    if kind in ("complex", "zero_imag"):
        return sf.Const(complex(draw(_SMALL), draw(st.sampled_from([0.0, -0.0]))))
    if kind == "var":
        return draw(st.sampled_from([sf.x(1), sf.y(1), sf.x(2), sf.y(2)]))
    return sf.Leaf(draw(st.sampled_from(_LEAVES[:1] if real else _LEAVES)))


_KINDS = ("add", "mul", "div", "pow", "exp", "log", "sin", "cos", "bump", "cubic",
          "step", "poly", "conj")


@st.composite
def _tree(draw, depth=3, real=False):
    """A random tree over every node kind (only real values when ``real``).
    No n-ary node has only constants, and no quotient or power has a constant
    base or a constant over a constant, so Python scalars never meet."""
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(_leaf(real))
    kind = draw(st.sampled_from(_KINDS))

    def sub(r=real):
        return draw(_tree(depth - 1, r))

    if kind in ("add", "mul"):
        ops = [sub() for _ in range(draw(st.integers(2, 4)))]
        if all(isinstance(o, sf.Const) for o in ops):
            ops[0] = sf.x(1)
        return (sf.Add if kind == "add" else sf.Mul)(tuple(ops))
    if kind == "div":
        num, den = sub(), sub()
        return sf.Div(num, sf.Add((sf.y(1), den)) if isinstance(den, sf.Const) else den)
    if kind == "pow":
        base = sub()
        return sf.Pow(sf.Mul((sf.x(2), base)) if isinstance(base, sf.Const) else base,
                      draw(st.integers(1, 7)))
    if kind == "log" and draw(st.booleans()):  # an argument that is often positive
        return sf.Fun(kind, sf.Add((sf.Pow(sub(), 2), sf.Const(0.5 + 0j))), 0)
    if kind in ("exp", "log", "sin", "cos"):
        return sf.Fun(kind, sub(), 0)
    if kind == "cubic":  # a level shifts the argument, as cubic_step builds it
        arg = sf.cubic_step(sub(True), draw(st.sampled_from([-0.5, 0.0, 0.5]))).arg
        return sf.Fun(kind, arg, draw(st.integers(0, 3)))
    if kind in ("bump", "step"):
        return sf.Fun(kind, sub(True), draw(st.integers(0, 2)))
    if kind == "poly":
        cs = draw(st.lists(_SMALL, min_size=2, max_size=4))
        if not real and draw(st.booleans()):
            cs = [complex(c, draw(_SMALL)) for c in cs]
        return sf.Poly1(sub(), tuple(complex(c) for c in cs))
    return sf.Conj(sub())


class TestTape:
    """The typed tape gives the all-complex evaluator's values, bit for bit."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(e=_tree(), seed=st.integers(0, 2 ** 32 - 1),
           grid=st.lists(st.tuples(_GRID, _GRID, _GRID, _GRID), max_size=3), data=st.data())
    def test_tape_equals_the_all_complex_evaluator(self, e, seed, grid, data):
        # random points (rounding differs between kernels there) and grid points
        pts = np.random.default_rng(seed).uniform(-1.5, 1.5, (64, 4))
        pts = np.concatenate([pts, np.reshape(grid, (-1, 4))])
        nodes = list(sf._walk(e))
        roots = [e] + data.draw(st.lists(st.sampled_from(nodes), max_size=3)) + [e]
        with np.errstate(all="ignore"):
            try:
                want, finite = _reference(roots, pts)
            except EvalError as exc:
                for arg in (e, roots):  # the first failing node is e's in both
                    with pytest.raises(EvalError) as got:
                        eval_expr(arg, pts)
                    assert str(got.value) == str(exc)
                return
            assume(finite)
            single, got = eval_expr(e, pts), eval_expr(roots, pts)
        for g, w in zip([single] + got, want[:1] + want):
            assert g.shape == w.shape == (len(pts),)
            assert np.array_equal(g.real, w.real) and np.array_equal(g.imag, w.imag)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(e=_tree(), seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_seeded_nodes_give_the_cold_values(self, e, seed, data):
        # values of some nodes, computed before as roots, seed a later tape:
        # its root is that of a cold evaluation, bit for bit (NaNs and zero signs too)
        pts = np.random.default_rng(seed).uniform(-1.5, 1.5, (64, 4))
        nodes = [n for n in sf._walk(e) if not isinstance(n, sf.Const)]
        seeds = data.draw(st.lists(st.sampled_from(nodes), max_size=3)) if nodes else []
        with np.errstate(all="ignore"):
            try:
                cold = eval_expr(e, pts)
            except EvalError:
                return
            known = dict(zip(seeds, eval_expr(seeds, pts)))
            got = eval_expr(e, pts, known=known)
        bits = lambda v: np.ascontiguousarray(v).view(np.uint64)  # a constant is a broadcast
        assert np.array_equal(bits(got), bits(cold))

    def test_nothing_below_a_seeded_node_is_computed(self):
        counting = CountingFn(bump_fn(2, 0.8))
        inner = sf.mul(sf.x(1), sf.Leaf(counting))
        e = sf.add(sf.exp_(inner), sf.y(2))
        pts = np.random.default_rng(18).normal(size=(50, 4))
        known = {inner: eval_expr(inner, pts)}
        cold = eval_expr(e, pts)
        calls = counting.calls
        assert np.array_equal(eval_expr(e, pts, known=known), cold)
        assert counting.calls == calls

    def test_real_parts_follow_the_complex_rules(self):
        # the all-complex evaluator holds x(1)^3 as float (b ** 3) and
        # (x(1) * (1+0j))^3 as complex (b * (b * b)); the quotients, exp and log alike
        pts = np.random.default_rng(17).normal(size=(4000, 2))
        one = sf.Const(1 + 0j)
        x1, y1 = sf.x(1), sf.y(1)
        for e in (sf.Pow(x1, 3), sf.Pow(sf.Mul((one, x1)), 3),
                  sf.Div(y1, x1), sf.Div(sf.Mul((one, y1)), x1),
                  sf.Fun("exp", sf.Mul((one, x1)), 0),
                  sf.Fun("log", sf.Mul((one, sf.Pow(x1, 2))), 0)):
            (want,), _ = _reference([e], pts)
            assert np.array_equal(eval_expr(e, pts).real, want.real)


# ---------------------------------------------------------------------------
# The node layer: slotted interned nodes made on the metaclass's miss path
# ---------------------------------------------------------------------------

def _recipe(n):
    """n as plain data that holds no node: (class, field values), a child as
    its own recipe and a tuple of children as a list of them."""
    args = []
    for fld in fields(n):
        v = getattr(n, fld.name)
        if isinstance(v, sf.Expr):
            v = _recipe(v)
        elif type(v) is tuple and v and isinstance(v[0], sf.Expr):
            v = [_recipe(c) for c in v]
        args.append(v)
    return type(n), tuple(args)


def _build(recipe, reverse):
    """The node of a recipe, every child made before its parent: first to
    last, or last to first when reverse."""
    cls, args = recipe

    def made(v):
        if isinstance(v, list):
            kids = [None] * len(v)
            for j in (reversed(range(len(v))) if reverse else range(len(v))):
                kids[j] = _build(v[j], reverse)
            return tuple(kids)
        return _build(v, reverse) if type(v) is tuple and isinstance(v[0], type) else v

    out = list(args)
    for j in (reversed(range(len(args))) if reverse else range(len(args))):
        out[j] = made(args[j])
    return cls(*out)


def _bits(v):
    """A kernel argument as comparable data: floats and complex values by
    their bits, arrays by dtype and bytes, tuples item by item."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if type(v) is tuple:
        return tuple(map(_bits, v))
    return sf._field_key(v) if type(v) in (float, complex) else v


def _cold_support(e):
    """support(e) through the rules alone: every node's own rule again, no
    memo read or written (a sequence keeps its rule, which maps the patched
    support over it)."""
    memoised = sf.support
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sf, "support", lambda n: (
            sf._SUPPORT[type(n)](n) if isinstance(n, sf.Expr) else memoised(n)))
        return sf.support(e)


class TestNodeLayer:
    """Nodes made on the miss path are the nodes a cold build gives."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_a_rebuilt_tree_is_the_cold_tree(self, data, seed):
        recipe = _recipe(data.draw(_tree()))  # the drawn tree is freed
        before = set(sf._INTERNED)
        first = _build(recipe, reverse=False)
        assert _build(recipe, reverse=True) is first
        for n in sf._walk(first):
            self._check_node(n)
        # nodes hold no cycles, so reference counting frees them: no entry the
        # builds made outlives them, before any collection (the collector may
        # free other entries meanwhile, so the table's size is no measure here,
        # and a full gc.collect() per example would be most of this test's time)
        del first, n
        assert sf._INTERNED.keys() <= before
        # the tape of the rebuilt tree: one step per distinct structure, the
        # all-complex evaluator's values
        e = _build(recipe, reverse=True)
        assert len(sf.Tape(e)) == _structural_counts([e])[1]
        pts = np.random.default_rng(seed).uniform(-1.5, 1.5, (64, 4))
        with np.errstate(all="ignore"):
            try:
                (want,), finite = _reference([e], pts)
            except EvalError as exc:
                with pytest.raises(EvalError, match=str(exc)):
                    eval_expr(e, pts)
                return
            got = eval_expr(e, pts)
        if finite:
            assert np.array_equal(got.real, want.real) and np.array_equal(got.imag, want.imag)

    @staticmethod
    def _check_node(n):
        """n's key, slots, typing, largest index and support are a cold build's."""
        vals = [getattr(n, fld.name) for fld in fields(n)]
        assert type(n)._key(*vals) == (type(n), *map(sf._field_key, vals))
        assert not hasattr(n, "__dict__")
        assert _bits(n._op) == _bits(sf._RULES[type(n)](n))
        assert n._max_index == max(
            [m.i if isinstance(m, sf.Var) else m.fn.dim if isinstance(m, sf.Leaf) else 0
             for m in sf._walk(n)])
        assert sf.support(n) == _cold_support(n) == sf.support(n)

    def test_a_tree_of_every_kind_leaves_the_table_as_it_was(self):
        gc.collect()
        size = len(sf._INTERNED)
        e = _every_node_kind(_Wave(True))  # a new payload, so a new leaf
        assert len(sf._INTERNED) > size
        del e
        gc.collect()
        assert len(sf._INTERNED) == size

    def test_odd_scalars_keep_their_keys(self):
        # a value of another type than the usual one is keyed as _field_key keys
        # it: by bits, or by identity, never merged with the usual one
        for cls, args in ((sf.Const, (np.float64(0.5),)), (sf.Const, (complex(0.0, -0.0),)),
                          (sf.Add, ([sf.x(1), sf.y(1)],)), (sf.Mul, ([sf.x(1), sf.y(1)],))):
            assert cls._key(*args) == (cls, *map(sf._field_key, args))
        assert sf.Var("x", np.int64(1)) is not sf.x(1)
        assert sf.Const(complex(0.0, -0.0)) is not sf.Const(0j)

    def test_nodes_have_no_instance_dict(self):
        e = _every_node_kind(ScalarTwo(1))
        for n in sf._walk(e):
            assert not hasattr(n, "__dict__") and repr(n).startswith(type(n).__name__)
            # the metaclass sets the slots in the order of the constructor's arguments
            assert type(n).__slots__ == tuple(fld.name for fld in fields(n))
        assert set(sf.Expr.__slots__) == {"_max_index", "_op", "_support", "__weakref__"}


def _add_ref(*terms):
    """add as two passes: flatten, then fold the constants (the reference)."""
    flat = []
    for t in map(sf._as_expr, terms):
        flat.extend(t.terms if isinstance(t, sf.Add) else (t,))
    cval = 0.0 + 0.0j
    out = []
    for t in flat:
        if isinstance(t, sf.Const):
            cval += t.val
        else:
            out.append(t)
    if cval != 0:
        out.append(sf.Const(cval))
    return sf.ZERO if not out else out[0] if len(out) == 1 else sf.Add(tuple(out))


def _mul_ref(*factors):
    """mul as two passes: flatten, then fold the constants (the reference)."""
    flat = []
    for f in map(sf._as_expr, factors):
        flat.extend(f.factors if isinstance(f, sf.Mul) else (f,))
    cval = 1.0 + 0.0j
    out = []
    for f in flat:
        if isinstance(f, sf.Const):
            cval *= f.val
        else:
            out.append(f)
    if cval == 0:
        return sf.ZERO
    if cval != 1:
        out.insert(0, sf.Const(cval))
    return sf.ONE if not out else out[0] if len(out) == 1 else sf.Mul(tuple(out))


_X1, _Y2 = sf.x(1), sf.y(2)
_OPERANDS = st.one_of(
    st.sampled_from([_X1, _Y2, sf.ZERO, sf.ONE, sf.Const(-0.0), sf.Const(complex(0.0, -0.0)),
                     sf.add(_X1, sf.const(2.0)), sf.add(_Y2, sf.const(-0.5j), _X1),
                     sf.mul(sf.const(3j), _Y2), sf.mul(_X1, _Y2), sf.exp_(_X1),
                     sf.Const(math.inf), sf.Const(complex(math.nan, 1.0)), 2, -1, 0.0, 1j]),
    _SMALL.map(sf.Const), st.tuples(_SMALL, _SMALL).map(lambda p: sf.Const(complex(*p))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(_OPERANDS, max_size=6))
def test_one_pass_add_and_mul_are_the_two_pass_folds(ops):
    # the same node: the same operands, constants and signs of zero parts
    with np.errstate(all="ignore"):
        assert sf.add(*ops) is _add_ref(*ops)
        assert sf.mul(*ops) is _mul_ref(*ops)
