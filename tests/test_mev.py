import math
import random
from fractions import Fraction as F

import pytest

from mevreg.eisenstein import EllipticParam
from mevreg import mev as M
from mevreg import mellin as ML
from mevreg.eisenstein import EisensteinSpec

from oracles import lambda_double_quadrature

X = EllipticParam
TWO_PI_I = 2j * math.pi

# frozen from the nested-quadrature oracle (two tolerances agreed to 6e-17)
LAMBDA_DOUBLE_15_25__35_15 = 0.14276282032116142 - 0.12598096120231564j


def test_request_validation():
    with pytest.raises(ValueError):
        M.MevResult(value=0j, truncation_bound=-1.0)


def test_single_closed_form_cases():
    assert M.lambda_single_closed(X(F(1, 4), F(1, 4))) == pytest.approx(
        1j * math.pi / 8, abs=1e-15
    )
    assert M.lambda_single_closed(X(0, F(1, 2))) == pytest.approx(
        math.log(2), abs=1e-15
    )
    assert M.lambda_single_closed(X(F(1, 2), 0)) == pytest.approx(
        -math.log(2), abs=1e-15
    )
    with pytest.raises(ValueError):
        M.lambda_single_closed(X(0, 0))


def test_single_engine_matches_closed():
    rng = random.Random(21)
    cases = [X(0, F(1, 2)), X(F(1, 2), 0), X(0, F(3, 7)), X(F(2, 5), 0)]
    while len(cases) < 20:
        cases.append(X(F(rng.randint(1, 6), 7), F(rng.randint(1, 4), 5)))
    for x in cases:
        res = M.lambda_mev([x])
        assert abs(res.value - M.lambda_single_closed(x)) < 1e-10
        assert res.truncation_bound < 1e-11


def test_mev_rejects_boundary_for_longer_words():
    with pytest.raises(ValueError):
        M.lambda_mev([X(0, F(1, 3)), X(F(1, 5), F(2, 5))])
    with pytest.raises(ValueError):
        M.lambda_mev([X(F(1, 5), F(2, 5)), X(0, 0)])


def test_double_value_against_quadrature_oracle():
    x, y = X(F(1, 5), F(2, 5)), X(F(3, 5), F(1, 5))
    got = M.lambda_mev([x, y]).value
    assert abs(got - LAMBDA_DOUBLE_15_25__35_15) < 1e-10
    # live oracle at two quadrature resolutions
    coarse = lambda_double_quadrature(x, y, 1e-8)
    fine = lambda_double_quadrature(x, y, 1e-11)
    assert abs(coarse - fine) < 1e-8
    assert abs(got - fine) < 1e-9


def test_sigma_reversal_of_double():
    x, y = X(F(1, 5), F(2, 5)), X(F(3, 5), F(1, 5))
    lhs = M.lambda_mev([x.sigma(), y.sigma()]).value
    rhs = M.lambda_mev([y, x]).value
    assert abs(lhs - rhs) < 1e-12


def test_signed_values():
    assert abs(M.lambda_signed([X(F(1, 3), F(1, 7))], ["+"])) < 1e-12
    assert M.lambda_signed([X(F(1, 3), F(2, 3))], ["-"]) == pytest.approx(
        -math.pi / 18, abs=1e-12
    )
    a, b = X(F(1, 5), F(2, 7)), X(F(3, 7), F(1, 6))
    cancel = M.lambda_signed([a, b], "-+") + M.lambda_signed([b, a], "+-")
    assert abs(cancel) < 1e-10
    with pytest.raises(ValueError):
        M.lambda_signed([a], ["*"])


def test_signed_matches_real_imag_of_holomorphic():
    # L(x) = L+(x) + i L-(x) for interior parameters
    x = X(F(2, 7), F(3, 5))
    lam = M.lambda_mev([x]).value
    assert M.lambda_signed([x], "+") == pytest.approx(lam.real, abs=1e-12)
    assert M.lambda_signed([x], "-") == pytest.approx(lam.imag, abs=1e-12)


def test_lambda_general_closed_form():
    # length-1 closed form (-1)^{m+1} B_{k-m}(x1) B_m(x2) / ((k-m) m)
    from mevreg.specfun import bernoulli_poly

    for k, m, x in [
        (3, 1, X(F(1, 4), F(1, 3))),
        (3, 2, X(F(1, 5), F(2, 5))),
        (4, 2, X(F(1, 5), F(2, 5))),
        (2, 1, X(F(2, 7), F(1, 7))),
    ]:
        got = M.lambda_general([k], [x], [m])
        want = (
            (-1) ** (m + 1)
            * bernoulli_poly(k - m, x.x1)
            * bernoulli_poly(m, x.x2)
            / ((k - m) * m)
        )
        assert abs(got - want) < 1e-12


def test_lambda_general_n1_is_normalised_single():
    x = X(F(1, 5), F(2, 5))
    got = M.lambda_general([2], [x], [1])
    assert abs(TWO_PI_I * got - M.lambda_single_closed(x)) < 1e-12


def test_lambda_general_vs_mellin_route():
    # int_0^oo E^(k) tau^{m-1} d tau = i^m M(E^(k), m) off the poles
    k, m, x = 4, 2, X(F(1, 5), F(2, 5))
    got = M.lambda_general([k], [x], [m])
    mel = ML.mellin_eisenstein_closed(EisensteinSpec("E", k, x), float(m)).value
    assert abs(got - (1j) ** m * mel) < 1e-11


def test_lambda_general_power_guard():
    with pytest.raises(ValueError):
        M.lambda_general([2], [X(F(1, 5), F(2, 5))], [2])


def test_shuffle_of_singles():
    rng = random.Random(31)
    for _ in range(20):
        x = X(F(rng.randint(1, 6), 7), F(rng.randint(1, 4), 5))
        y = X(F(rng.randint(1, 4), 5), F(rng.randint(1, 6), 7))
        lhs = M.lambda_mev([x]).value * M.lambda_mev([y]).value
        rhs = M.lambda_mev([x, y]).value + M.lambda_mev([y, x]).value
        assert abs(lhs - rhs) < 1e-9


def test_length_drop_all_positions():
    params = [X(F(1, 5), F(2, 5)), X(F(3, 7), F(1, 7)), X(F(2, 5), F(4, 5))]
    step = F(1, 4096)
    for p in (1, 2, 3):
        vals = {}
        for j in (-2, -1, 1, 2):
            shifted = list(params)
            xp = params[p - 1]
            shifted[p - 1] = EllipticParam(xp.x1, xp.x2 + j * step)
            vals[j] = M.lambda_mev(shifted).value
        fd = (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * float(step))
        rhs = M.length_drop_rhs(params, p)
        assert abs(fd - rhs) < 1e-6


def test_word_length_caps_are_named_in_their_messages():
    from mevreg import regint as R

    x = X(F(1, 5), F(2, 5))
    letter = R.siegel_letter(x)
    cap = R.MAX_WORD_LENGTH
    message = f"^word length must be between 1 and {cap}$"
    for integral in (R.word_integral_to_infinity, R.word_integral_zero_to_infinity):
        with pytest.raises(ValueError, match=message):
            integral([letter] * (cap + 1))
    with pytest.raises(ValueError, match=message):
        R.shuffle_expand([letter] * (cap + 1), [letter])

    cap = M.MAX_MEV_LENGTH
    message = f"^supported lengths are 1..{cap}$"
    with pytest.raises(ValueError, match=message):
        M.lambda_mev([x] * (cap + 1))
    with pytest.raises(ValueError, match=message):
        M.lambda_signed([x] * (cap + 1), "+" * (cap + 1))
    for lam in (M.lambda_mev, lambda params: M.lambda_signed(params, "")):
        with pytest.raises(ValueError, match=message):
            lam([])
