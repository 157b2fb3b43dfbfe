import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarl2.multiindex import (InvalidFamilyError, WeightFamily, as_multiindex,
                               check_conditions, constant_family, epsilon, insert,
                               multiplicative_family, perm_sign_bruteforce,
                               prior_work_family)


def oracle_epsilon(i, L, K):
    """Independent sign oracle: brute-force inversion count of (i, *L)."""
    if i in L:
        return 0
    if tuple(sorted((i,) + tuple(L))) != tuple(K):
        return 0
    return perm_sign_bruteforce((i,) + tuple(L))


def test_examples_from_definition():
    assert epsilon(2, (1, 3), (1, 2, 3)) == -1
    assert epsilon(1, (1, 3), (1, 2, 3)) == 0
    assert epsilon(4, (1, 3), (1, 3, 4)) == 1


def test_insert_examples():
    assert insert(2, (1, 3)) == (-1, (1, 2, 3))
    assert insert(3, (3, 5)) == (0, None)
    assert insert(1, ()) == (1, (1,))


def test_epsilon_mismatched_union_is_zero():
    assert epsilon(2, (1, 3), (1, 2, 4)) == 0
    assert epsilon(2, (1, 3), (1, 3, 4)) == 0


@given(st.integers(1, 8),
       st.lists(st.integers(1, 8), unique=True, max_size=4))
@settings(max_examples=200, deadline=None)
def test_insert_epsilon_roundtrip(i, Lraw):
    L = tuple(sorted(Lraw))
    sign, K = insert(i, L)
    if sign == 0:
        assert i in L
    else:
        assert epsilon(i, L, K) == sign
        assert sign == oracle_epsilon(i, L, K)


def test_as_multiindex_validation():
    assert as_multiindex([1, 4, 9]) == (1, 4, 9)
    with pytest.raises(ValueError):
        as_multiindex([2, 2])
    with pytest.raises(ValueError):
        as_multiindex([0, 1])


def test_coeff_examples():
    assert constant_family(1.0).coeff((1,), (2,)) == 1.0
    fam = multiplicative_family(mu=lambda j: 1.0 / j)
    assert fam.coeff((1,), (2, 3)) == pytest.approx(1.0 / 6.0)
    prior = prior_work_family(lambda i: 2.0 ** (-(i + 1)))
    # 2^2 * (1/4)^2 * (1/8)^2 with a1 = 1/4, a2 = 1/8
    assert prior.coeff((1,), (2,)) == pytest.approx(1.0 / 256.0)


def test_custom_family_positivity():
    bad = WeightFamily(lambda I, J: -1.0)
    with pytest.raises(InvalidFamilyError):
        bad.coeff((), (1,))


@pytest.mark.parametrize("make", [
    lambda: constant_family(-1.0), lambda: constant_family(0.0),
    lambda: multiplicative_family(mu=lambda j: -1.0),
    lambda: multiplicative_family(mu=lambda j: 0.0),
], ids=["constant-neg", "constant-zero", "multiplicative-neg", "multiplicative-zero"])
def test_every_family_kind_is_checked_positive(make):
    with pytest.raises(InvalidFamilyError):
        make().coeff((), (1,))


def test_check_conditions_refuses_a_nonpositive_family():
    with pytest.raises(InvalidFamilyError):
        check_conditions(multiplicative_family(mu=lambda j: -1.0), max_index=4, s=0, t=0)


def test_check_conditions_constant():
    rep = check_conditions(constant_family(1.0), max_index=5, s=0, t=0)
    assert rep.c1_sup == 1.0
    assert rep.c0_inf == 1.0
    assert rep.multiplicative_ok


def test_check_conditions_multiplicative():
    fam = multiplicative_family(mu=lambda j: 1.0 + 1.0 / j)
    rep = check_conditions(fam, max_index=6, s=0, t=0)
    assert rep.c0_inf == pytest.approx(7.0 / 6.0)
    assert rep.c1_sup == pytest.approx(2.0)
    assert rep.multiplicative_ok


def test_check_conditions_violation():
    def cb(I, J):
        return 3.0 if (I, J) == ((), (1, 2)) else 1.0

    rep = check_conditions(WeightFamily(cb), max_index=4, s=0, t=0)
    assert not rep.multiplicative_ok
    first = rep.violations[0]
    assert first["J"] == (1,) and first["Jp"] == (2,)
    assert first["L"] == () and first["K"] == (1, 2)


def test_check_conditions_precondition():
    with pytest.raises(ValueError):
        check_conditions(constant_family(1.0), max_index=2, s=1, t=1)


def test_multiplicative_families_always_pass():
    for mu in (lambda j: 1.0, lambda j: 1.0 / j, lambda j: 2.0 ** (-j)):
        fam = multiplicative_family(mu=mu)
        for s, t in ((0, 0), (1, 0), (0, 1)):
            rep = check_conditions(fam, max_index=s + t + 3, s=s, t=t)
            assert rep.multiplicative_ok


def test_prior_work_family_c0_decays():
    a = lambda i: 2.0 ** (-(i + 1))
    fam = prior_work_family(a)
    values = []
    for N in (4, 6, 8):
        rep = check_conditions(fam, max_index=N, s=0, t=0)
        assert rep.c0_inf == pytest.approx(2.0 * a(N) ** 2, rel=1e-12)
        values.append(rep.c0_inf)
    assert values[0] > values[1] > values[2]
