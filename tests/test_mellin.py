import math
import random
from fractions import Fraction as F

import mpmath
import pytest

from mevreg.cli import _thm_pairs
from mevreg.eisenstein import EisensteinSpec, EllipticParam, e_series
from mevreg import mellin as ML
from mevreg import mev as M
from mevreg import regulator as RG
from mevreg.regint import AdmissibleForm, modular_letter, word_integral_zero_to_infinity
from mevreg.specfun import ZETA3, ZETA_PRIME_MINUS2, bernoulli_poly

from oracles import (
    CUT,
    lvalue_factors,
    max_abs_coeff,
    mellin_g_product_quadrature,
    series_from_terms,
)

X = EllipticParam

# frozen from the quadrature-Mellin oracle (agrees with the continuation
# to 1.4e-15): L'(G1;5_{1,2} G1;5_{2,1}, -1)
L_DERIV_N5 = 0.012858605842927707


def test_closed_g3_constant_value():
    # M(G3_{0,x}, 0) = -2 zeta'(-2) B1({x}); at x = 1/4 this is -zeta(3)/(8 pi^2)
    res = ML.mellin_eisenstein_closed(EisensteinSpec("G", 3, X(0, F(1, 4))), 0.0)
    want = -2.0 * ZETA_PRIME_MINUS2 * bernoulli_poly(1, F(1, 4))
    assert res.is_constant_term_of_laurent
    assert abs(res.value - want) < 1e-9
    assert res.value.real == pytest.approx(-ZETA3 / (8 * math.pi**2), abs=1e-9)


def test_closed_g3_family_of_values():
    for num, den in [(1, 4), (1, 5), (2, 5), (3, 7), (1, 7), (5, 12), (1, 3), (5, 6)]:
        x = F(num, den)
        res = ML.mellin_eisenstein_closed(EisensteinSpec("G", 3, X(0, x)), 0.0)
        want = -2.0 * ZETA_PRIME_MINUS2 * bernoulli_poly(1, x)
        assert abs(res.value - want) < 1e-9


def test_closed_e2_at_1_gives_single_value():
    x = X(F(1, 3), F(1, 4))
    res = ML.mellin_eisenstein_closed(EisensteinSpec("E", 2, x), 1.0)
    assert not res.is_constant_term_of_laurent
    assert abs(-2 * math.pi * res.value - M.lambda_single_closed(x)) < 1e-12


def test_closed_rejects_unknown_family():
    with pytest.raises(ValueError):
        ML.mellin_eisenstein_closed(EisensteinSpec("H", 2, X(F(1, 5), F(2, 5))), 1.0)


def test_numeric_matches_closed_single_series():
    x = X(F(1, 5), F(2, 5))
    closed = ML.mellin_eisenstein_closed(EisensteinSpec("G", 2, x), 3.0).value
    numeric = ML.mellin_numeric(
        ML.eisenstein_form(EisensteinSpec("G", 2, x)), 3.0
    ).value
    assert abs(closed - numeric) < 1e-10


def test_pole_bookkeeping_grid():
    # no poles away from {0, k}: the two pipelines agree on a grid
    for spec in (
        EisensteinSpec("E", 2, X(F(1, 5), F(2, 5))),
        EisensteinSpec("E", 3, X(F(2, 7), F(1, 5))),
        EisensteinSpec("G", 3, X(F(1, 5), F(3, 5))),
    ):
        for s in (-1.5, -1.0, -0.5, 0.5, 1.3, 2.5, 3.5, 4.25):
            if s == round(s) and (s <= 0 or s == spec.weight or s == 1):
                continue
            closed = ML.mellin_eisenstein_closed(spec, s)
            numeric = ML.mellin_numeric(ML.eisenstein_form(spec), s)
            assert not closed.is_constant_term_of_laurent
            assert abs(closed.value - numeric.value) < 1e-10


def test_numeric_zero_and_polynomial_forms():
    empty = series_from_terms({}, F(12))
    assert ML.mellin_numeric(AdmissibleForm(empty, empty), 1.7).value == 0.0
    poly = series_from_terms({(F(0), 0): 2.0, (F(0), 1): -1.0}, F(12))
    assert ML.mellin_numeric(AdmissibleForm(poly, empty), 1.7).value == 0.0


def test_numeric_pole_flagging():
    # a polynomial stratum tau^m on the inf side puts a simple pole at s = -m
    inf = series_from_terms({(F(0), 1): 2.0, (F(1), 0): 1.0}, F(12))
    zero = series_from_terms({(F(1), 0): 1.0}, F(12))
    res = ML.mellin_numeric(AdmissibleForm(inf, zero), -1.0)
    assert res.is_constant_term_of_laurent
    # residue of -c i^m/(s+m) at s = -1 with c = 2, m = 1 is -2i
    assert res.pole_residue == pytest.approx(-2j)


def test_engine_equals_i_mellin_at_1():
    # int_0^oo omega = i M(f, 1) for five admissible weight-2 test forms
    params = [
        X(F(1, 5), F(3, 7)),
        X(F(2, 5), F(1, 5)),
        X(F(1, 3), F(1, 4)),
        X(F(3, 7), F(2, 7)),
        X(F(5, 12), F(1, 6)),
    ]
    for x in params:
        spec = EisensteinSpec("E", 2, x)
        eng = word_integral_zero_to_infinity([modular_letter(2, x)])
        mel = ML.mellin_numeric(ML.eisenstein_form(spec), 1.0).value
        assert abs(eng - 1j * mel) < 1e-9


def test_truncation_robustness():
    # halving the cutoff moves M by less than 1e-11
    x, y = X(F(1, 5), F(2, 5)), X(F(2, 5), F(1, 5))
    full = ML.mellin_numeric(ML.g_product_form([(1, x), (1, y)], F(12)), -1.0).value
    half = ML.mellin_numeric(ML.g_product_form([(1, x), (1, y)], F(6)), -1.0).value
    assert abs(full - half) < 1e-11


# ---------------------------------------------------------------------------
# L-derivative
# ---------------------------------------------------------------------------


def test_l_deriv_value_and_symmetry():
    x, y = X(F(1, 5), F(2, 5)), X(F(2, 5), F(1, 5))
    got = ML.l_deriv_weight2_at_minus1(x, y)
    assert got == pytest.approx(L_DERIV_N5, abs=1e-10)
    assert ML.l_deriv_weight2_at_minus1(y, x) == pytest.approx(got, abs=1e-13)
    with pytest.raises(ValueError):
        ML.l_deriv_weight2_at_minus1(X(0, F(1, 5)), y)


def test_l_deriv_against_quadrature_oracle():
    x, y = X(F(1, 5), F(1, 5)), X(F(3, 7), F(2, 7))
    m_quad = mellin_g_product_quadrature([(1, x), (1, y)], -1.0)
    level = 35
    want = -(level / (2 * math.pi)) * m_quad.real
    assert ML.l_deriv_weight2_at_minus1(x, y) == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("level", [5, 7, 11])
def test_lvalue_mellin_against_quadrature_oracle(level):
    # the quadrature shares no code with the incomplete-gamma continuation,
    # so it checks the Mellin value that thm1 and thm2 both read
    for a, b in _thm_pairs(level):
        plus, minus = lvalue_factors(a, b)
        want = sum(mellin_g_product_quadrature(f, -1.0) for f in (plus, minus))
        assert abs(RG._lvalue_mellin(a, b, CUT) - want) <= 1e-13


def _mellin_terms_exact(form: AdmissibleForm, s: float) -> complex:
    """The terms of ``mellin_numeric`` summed at 30 digits, from the same float
    coefficients and points 2 pi j / L, with mpmath's incomplete gamma."""
    with mpmath.workdps(30):
        total = mpmath.mpc(0)
        for side, sign in ((form.inf_side, 1), (form.zero_side, -1)):
            for j, m, c in zip(side.j.tolist(), side.m.tolist(), side.c.tolist()):
                w = mpmath.mpc(c * 1j**m)
                r = s + m if sign > 0 else m + 2 - s
                if j == 0:
                    total += -sign * w / r
                else:
                    a = mpmath.mpf(2 * math.pi * (j / side.L))
                    total += sign * w * a ** (-r) * mpmath.gammainc(r, a)
        return complex(total)


@pytest.mark.parametrize("level", [47, 97])
def test_mellin_numeric_sums_lvalue_terms_to_rounding(level):
    # at a = (1/N, 2/N), b = (3/N, (N-5)/N), |M| = 0.36 at N = 97 and the
    # order of summation alone once cost 1.4e-13; two seeded pairs besides
    rng = random.Random(level)
    pairs = [(X(F(1, level), F(2, level)), X(F(3, level), F(level - 5, level)))]
    while len(pairs) < 3:
        a, b = (X(F(rng.randrange(1, level), level), F(rng.randrange(1, level), level))
                for _ in range(2))
        if not any(p.has_zero_coord for p in (a, b, -(a + b))):
            pairs.append((a, b))
    for a, b in pairs:
        plus, minus = lvalue_factors(a, b)
        form = ML.g_product_form(plus) + ML.g_product_form(minus)
        got = ML.mellin_numeric(form, -1.0).value
        assert got == RG._lvalue_mellin(a, b, CUT)
        assert abs(got - _mellin_terms_exact(form, -1.0)) <= 3e-15, (a, b)


def test_l_deriv_diagonal_combination_vanishes():
    # G1 at a parameter of shape (alpha, -alpha) is the zero series, so the
    # symmetric combination behind the main identity vanishes at a = b =
    # (alpha, alpha)
    from mevreg.eisenstein import g_series

    for alpha in (F(1, 5), F(2, 7), F(1, 3)):
        assert max_abs_coeff(g_series(1, X(alpha, -alpha))) < 1e-15
    a = X(F(1, 5), F(1, 5))
    plus = ML.g_product_form([(1, X(a.x1, a.x2)), (1, X(a.x1, -a.x2))])
    minus = ML.g_product_form([(1, X(a.x1, -a.x2)), (1, X(a.x1, a.x2))])
    # every product contains the vanishing factor, so the L-part is zero
    assert max_abs_coeff(plus.inf_side) == 0.0
    assert abs(ML.mellin_numeric(plus + minus, -1.0).value) == 0.0


# ---------------------------------------------------------------------------
# The exponent-swap identity
# ---------------------------------------------------------------------------


def test_exponent_swap_identity_random_instances():
    rng = random.Random(41)
    count = 0
    while count < 10:
        den = rng.choice([5, 7])
        u = X(F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den))
        v = X(F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den))
        ell = rng.choice([2, 3])
        direct = ML.im_i_direct(u, v, ell)
        swapped = ML.im_i_rz(u, v, ell)
        assert abs(direct - swapped) < 1e-8
        count += 1


def test_exponent_swap_parity_in_v():
    # E-parity: moving v to -v flips the weight-(ell) letter by (-1)^ell
    u, v = X(F(1, 5), F(2, 5)), X(F(1, 5), F(1, 5))
    for ell in (2, 3):
        lhs = ML.im_i_direct(u, -v, ell)
        rhs = (-1) ** ell * ML.im_i_direct(u, v, ell)
        assert abs(lhs - rhs) < 1e-12


def test_exponent_swap_diagonal_structure():
    # u = v = (alpha, alpha): the swapped side pairs G1_{a,a} with G1_{a,-a},
    # and the latter vanishes identically
    a = F(1, 5)
    u = v = X(a, a)
    assert abs(ML.im_i_rz(u, v, 2)) < 1e-14
    assert abs(ML.im_i_direct(u, v, 2)) < 1e-10


def test_weight22_links_to_double_value():
    # I^(2,2)_{u,v} = Lambda(u,v)/(2 pi), so the imaginary parts match the
    # engine's double value directly
    u, v = X(F(1, 5), F(2, 5)), X(F(2, 7), F(3, 7))
    lam = M.lambda_mev([u, v]).value
    assert ML.im_i_direct(u, v, 2) == pytest.approx(
        lam.imag / (2 * math.pi), abs=1e-12
    )


def test_im_i_guards():
    with pytest.raises(ValueError):
        ML.im_i_direct(X(0, F(1, 5)), X(F(1, 5), F(1, 5)), 3)
    with pytest.raises(ValueError):
        ML.im_i_rz(X(F(1, 5), F(1, 5)), X(F(1, 5), F(1, 5)), 1)


# ---------------------------------------------------------------------------
# Constant-term cancellations behind the swap theorem
# ---------------------------------------------------------------------------


def _icot(x: F) -> complex:
    return complex(0.0, 1.0 / math.tan(math.pi * float(x % 1)))


@pytest.mark.parametrize(
    "u,v,ell",
    [
        (X(F(1, 5), F(2, 5)), X(F(1, 5), F(1, 5)), 3),
        (X(F(2, 7), F(1, 7)), X(F(3, 7), F(2, 7)), 3),
    ],
)
def test_boundary_term_cancellations(u, v, ell):
    # the two constant-term contributions cancel against the Laurent parts
    # of the companion transforms: Im(T2) + B = 0 and Im(T3) + A = 0
    mstar_e_0 = ML.mellin_eisenstein_closed(EisensteinSpec("E", ell, v), 0.0).value
    a0v = e_series(ell, v).coeff(0, 0)
    t2 = math.pi * bernoulli_poly(2, u.x2) * (mstar_e_0 - a0v)
    mp = ML.mellin_eisenstein_closed(
        EisensteinSpec("G", ell - 1, X(v.x1, u.x2)), -1.0
    ).value
    mm = ML.mellin_eisenstein_closed(
        EisensteinSpec("G", ell - 1, X(v.x1, -u.x2)), -1.0
    ).value
    b_term = -0.25j * _icot(v.x2) * (mp + mm)
    assert abs(t2.imag + b_term.real) < 1e-8
    assert abs(b_term.imag) < 1e-10

    mstar_e2_2 = ML.mellin_eisenstein_closed(EisensteinSpec("E", 2, u), 2.0)
    assert mstar_e2_2.is_constant_term_of_laurent
    t3 = -2 * math.pi * bernoulli_poly(ell, v.x1) / ell * mstar_e2_2.value
    a_term = 0.25j * _icot(u.x1) * (mp - mm)
    assert abs(t3.imag + a_term.real) < 1e-8
    assert abs(a_term.imag) < 1e-10
