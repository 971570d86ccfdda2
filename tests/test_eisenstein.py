import cmath
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mevreg.eisenstein import (
    EisensteinSpec,
    EllipticParam,
    TauQSeries,
    e_series,
    eichler_series,
    g_series,
    gn_series,
    h_series,
    log_siegel_series,
    qdump_rows,
    sigma_companion,
)
from mevreg.regint import evaluate_at
from mevreg.specfun import bernoulli_poly, periodic_zeta

from oracles import coeff_of, max_abs_coeff, series_derivative, series_from_terms, terms_of

X = EllipticParam
TWO_PI_I = 2j * math.pi


def eval_complex_tau(series: TauQSeries, tau: complex) -> complex:
    """Test-local evaluation at a general upper-half-plane point."""
    total = 0.0 + 0.0j
    for (alpha, m), c in terms_of(series).items():
        total += c * tau**m * cmath.exp(TWO_PI_I * float(alpha) * tau)
    return total


def series_max_diff(a: TauQSeries, b: TauQSeries) -> float:
    keys = set(terms_of(a)) | set(terms_of(b))
    return max(abs(coeff_of(a, *k) - coeff_of(b, *k)) for k in keys) if keys else 0.0


# ---------------------------------------------------------------------------
# Parameters and sigma action
# ---------------------------------------------------------------------------


def test_sigma_param():
    assert X(F(1, 4), F(1, 3)).sigma() == X(F(1, 3), F(3, 4))
    assert X(0, 0).sigma() == X(0, 0)
    x = X(F(2, 7), F(3, 5))
    y = x
    for _ in range(4):
        y = y.sigma()
    assert y == x


def test_param_normalisation():
    p = EllipticParam(F(7, 5), F(-1, 3))
    assert p.x1 == F(2, 5) and p.x2 == F(2, 3)
    assert (-p).x1 == F(3, 5)
    assert p.level() == 15


# ---------------------------------------------------------------------------
# E-family
# ---------------------------------------------------------------------------


def test_e_series_constant_terms():
    assert coeff_of(e_series(2, X(F(1, 4), F(2, 5))), 0, 0) == pytest.approx(
        -1.0 / 96.0, abs=1e-15
    )
    # x1 = 0, x2 = 1/2: -(1/2)(1 + e(1/2))/(1 - e(1/2)) = 0
    assert abs(coeff_of(e_series(1, X(0, F(1, 2))), 0, 0)) < 1e-15
    assert coeff_of(e_series(1, X(F(1, 3), F(1, 7))), 0, 0) == pytest.approx(
        1.0 / 3.0 - 0.5, abs=1e-15
    )
    assert coeff_of(e_series(1, X(0, 0)), 0, 0) == 0


def test_e_series_weight2_origin_rejected():
    with pytest.raises(ValueError):
        e_series(2, X(0, 0))
    with pytest.raises(ValueError):
        EisensteinSpec("E", 2, X(0, 0))


def test_e_series_parity():
    rng = random.Random(2)
    for _ in range(30):
        k = rng.choice([1, 2, 3])
        x = X(F(rng.randint(0, 6), 7), F(rng.randint(0, 4), 5))
        if k == 2 and x.is_zero:
            continue
        a, b = e_series(k, x), e_series(k, -x)
        assert series_max_diff(a, b.scale((-1) ** k)) < 1e-13


def test_e_series_brute_force_evaluation():
    # 2000-term double sum of the raw expansion at tau = i
    x = X(F(1, 5), F(1, 5))
    got = evaluate_at(e_series(2, x), 1.0)
    q = math.exp(-2 * math.pi)
    total = complex(bernoulli_poly(2, x.x1) / 2)
    for m in range(1, 2001):
        for res, conj in ((x.x1, False), (F(4, 5), True)):
            n = res
            while float(m * n) <= 40:
                phase = cmath.exp(
                    (-1 if conj else 1) * TWO_PI_I * m * float(x.x2)
                )
                total -= phase * float(n) * q ** float(m * n)
                n += 1
    assert abs(got - total) < 1e-12


def test_modularity_sigma_numeric():
    # E_x(-1/tau) = tau^k E_{x sigma}(tau) at tau = i and tau = 0.3 + 0.9i
    for k, x in [(2, X(F(1, 5), F(2, 5))), (3, X(F(2, 7), F(1, 7))), (1, X(F(1, 3), F(1, 4)))]:
        s = e_series(k, x, F(40))
        s_sig = e_series(k, x.sigma(), F(40))
        for tau in (1j, 0.3 + 0.9j):
            lhs = eval_complex_tau(s, -1 / tau)
            rhs = tau**k * eval_complex_tau(s_sig, tau)
            assert abs(lhs - rhs) < 1e-10


def test_modularity_translation_coefficient_level():
    # q^alpha -> e(alpha) q^alpha matches the parameter moved by T = ((1,1),(0,1))
    k, x = 2, X(F(1, 5), F(2, 5))
    xt = X(x.x1, x.x1 + x.x2)
    a, b = e_series(k, x), e_series(k, xt)
    for (alpha, m), c in terms_of(a).items():
        phase = cmath.exp(TWO_PI_I * float(F(alpha) % 1))
        assert abs(coeff_of(b, alpha, m) - phase * c) < 1e-12


def test_differential_relation_in_x2():
    # d/d(x2) E^(k+1) = d/d(tau) E^(k) at tau = i, rational step 1/4096
    step = F(1, 4096)
    for k, x in [(1, X(F(1, 5), F(2, 5))), (2, X(F(2, 7), F(3, 7)))]:
        up = e_series(k + 1, X(x.x1, x.x2 + step))
        dn = e_series(k + 1, X(x.x1, x.x2 - step))
        fd = (evaluate_at(up, 1.0) - evaluate_at(dn, 1.0)) / (2 * float(step))
        exact = evaluate_at(series_derivative(e_series(k, x)), 1.0)
        assert abs(fd - exact) < 1e-6


def test_g_differential_relation():
    # d/d(x2) G^(k) = 2 pi i tau G^(k+1) at tau = i (delta-normalised form
    # of the relation: delta_{x2} G = tau G^(k+1)); five-point stencil at
    # rational spacing 1/4096
    step = F(1, 4096)
    for k, x in [(1, X(F(1, 5), F(1, 5))), (2, X(F(2, 5), F(3, 5)))]:
        vals = {
            j: evaluate_at(g_series(k, X(x.x1, x.x2 + j * step)), 1.0)
            for j in (-2, -1, 1, 2)
        }
        fd = (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * float(step))
        want = TWO_PI_I * 1j * evaluate_at(g_series(k + 1, x), 1.0)
        assert abs(fd - want) < 1e-6


def test_partial_fourier_transform_to_level_series():
    # sum over x2 mod N of e(-u x2 / N) E^(k)_{(x1/N, x2/N)} equals
    # -N^{2-k} G^(k);N_{(x1, u)}, coefficient-exact
    for n_lv in (3, 5):
        for k in (1, 2, 3):
            x1, u = 1, 2
            acc = None
            for x2 in range(n_lv):
                if k == 2 and x1 % n_lv == 0 and x2 == 0:
                    continue
                phase = cmath.exp(-TWO_PI_I * u * x2 / n_lv)
                term = e_series(k, X(F(x1, n_lv), F(x2, n_lv))).scale(phase)
                acc = term if acc is None else acc + term
            # both sides live in q^{1/N} with the same tau variable
            target = gn_series(k, n_lv, (x1, u)).scale(-float(n_lv) ** (2 - k))
            assert series_max_diff(acc, target) < 1e-11


# ---------------------------------------------------------------------------
# G-family and the level series
# ---------------------------------------------------------------------------


def test_g_series_constant_terms():
    assert coeff_of(g_series(1, X(0, F(1, 3))), 0, 0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert coeff_of(g_series(3, X(F(1, 5), 0)), 0, 0) == pytest.approx(
        -bernoulli_poly(3, F(1, 5)) / 3.0, abs=1e-15
    )
    assert coeff_of(g_series(2, X(F(1, 5), F(2, 5))), 0, 0) == 0.0


def test_g_series_alpha_minus_alpha_vanishes():
    assert max_abs_coeff(g_series(1, X(F(1, 5), F(4, 5)))) < 1e-15


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 17).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n - 1), st.integers(0, n - 1))
    ),
    st.integers(1, 4),
    st.sampled_from([F(4), F(25, 2)]),
)
def test_gn_series_scaling_identity(point, k, cutoff):
    # G^(k)_{x/N}(N tau) = N^{1-k} G^(k);N_x, every coefficient to 1e-13 relative
    n_lv, a, b = point
    g = g_series(k, X(F(a, n_lv), F(b, n_lv)), cutoff)
    lhs = series_from_terms(
        {(alpha * n_lv, m): c for (alpha, m), c in terms_of(g).items()},
        g.cutoff * n_lv,
    )
    rhs = gn_series(k, n_lv, (a, b), g.cutoff * n_lv).scale(float(n_lv) ** (1 - k))
    assert set(terms_of(lhs)) == set(terms_of(rhs))
    for key, c in terms_of(lhs).items():
        assert abs(terms_of(rhs)[key] - c) <= 1e-13 * abs(c), key


def test_gn_series_constant_terms():
    assert coeff_of(gn_series(1, 5, (0, 2)), 0, 0) == pytest.approx(
        -bernoulli_poly(1, F(2, 5)), abs=1e-15
    )
    assert coeff_of(gn_series(2, 5, (2, 0)), 0, 0) == pytest.approx(
        -5 * bernoulli_poly(2, F(2, 5)) / 2, abs=1e-15
    )


# ---------------------------------------------------------------------------
# H-family
# ---------------------------------------------------------------------------


def test_h_series_constant_terms():
    got = coeff_of(h_series(2, X(F(1, 3), F(1, 4))), 0, 0)
    want = periodic_zeta(-F(1, 4), -1)
    assert abs(got - want) < 1e-13
    assert coeff_of(h_series(1, X(0, 0)), 0, 0) == 0.0


def test_h_sigma_partner_numeric():
    # H^(k)_x(i/y) = (iy)^k G^(k)_x(iy), including the weight-1 case that
    # pins the sign of the sigma companion of the G-family
    y = 1.3
    for k, x in [(2, X(F(1, 5), F(2, 5))), (1, X(F(1, 5), F(2, 5))), (3, X(F(2, 7), F(1, 7)))]:
        lhs = evaluate_at(h_series(k, x), 1.0 / y)
        rhs = (1j * y) ** k * evaluate_at(g_series(k, x), y)
        assert abs(lhs - rhs) < 1e-10


def test_sigma_companion_table():
    spec = EisensteinSpec("G", 1, X(F(1, 5), F(2, 5)))
    comp, sign = sigma_companion(spec)
    assert comp.family == "H" and sign == -1
    spec = EisensteinSpec("H", 3, X(F(1, 5), F(2, 5)))
    comp, sign = sigma_companion(spec)
    assert comp.family == "G" and sign == 1
    spec = EisensteinSpec("E", 2, X(F(1, 5), F(2, 5)))
    comp, sign = sigma_companion(spec)
    assert comp.param == X(F(2, 5), F(4, 5)) and sign == 1


# ---------------------------------------------------------------------------
# Siegel-unit logarithm and Eichler integrals
# ---------------------------------------------------------------------------


def test_log_siegel_derivative():
    for x in (X(F(1, 5), F(2, 7)), X(0, F(1, 3)), X(F(1, 2), F(1, 2))):
        d = series_derivative(log_siegel_series(x))
        target = e_series(2, x).scale(TWO_PI_I)
        assert series_max_diff(d, target) < 1e-12


def test_log_siegel_branch_constant():
    s = log_siegel_series(X(0, F(1, 2)))
    assert coeff_of(s, 0, 0) == pytest.approx(math.log(2), abs=1e-14)
    # interior x1: no (0,0) term at all, so the real part is 0
    s = log_siegel_series(X(F(1, 5), F(2, 5)))
    assert coeff_of(s, 0, 0) == 0.0


def test_log_siegel_rejects_origin():
    with pytest.raises(ValueError):
        log_siegel_series(X(0, 0))


def test_eichler_series():
    x = X(F(1, 4), F(1, 3))
    ei = eichler_series(3, x)
    assert series_max_diff(series_derivative(ei), e_series(3, x).scale(TWO_PI_I)) < 1e-12
    assert coeff_of(ei, 0, 0) == 0.0
    # tail: coefficient of q^alpha is c_alpha / alpha
    base = e_series(3, x)
    for (alpha, m), c in terms_of(base).items():
        if alpha != 0:
            assert abs(coeff_of(ei, alpha, m) - c / float(alpha)) < 1e-15


# ---------------------------------------------------------------------------
# Container invariants and the dump format
# ---------------------------------------------------------------------------


def test_tauqseries_invariants():
    s = series_from_terms({(F(1, 2), 0): 1.0, (F(20), 0): 3.0, (F(2), 1): 0.0}, F(12))
    assert (F(20), 0) not in terms_of(s)  # beyond cutoff
    assert (F(2), 1) not in terms_of(s)  # exact zero dropped
    with pytest.raises(ValueError):
        series_from_terms({(F(-1), 0): 1.0}, F(12))
    with pytest.raises(ValueError):
        series_from_terms({(F(1), -1): 1.0}, F(12))


def test_cached_series_are_immutable():
    s = e_series(2, X(F(1, 5), F(2, 5)))
    assert s is e_series(2, X(F(1, 5), F(2, 5)))  # the lru_cache hands out one object
    for arr in (s.j, s.m, s.c):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        s.cutoff = F(3)
    # numbers only: no exact-exponent view is built or stored on the series
    assert not any(hasattr(s, name) for name in ("terms", "coeff", "_terms", "__iter__"))
    assert coeff_of(s, F(1, 5), 0) == coeff_of(e_series(2, X(F(1, 5), F(2, 5))), F(1, 5), 0)


def test_grid_representation():
    s = g_series(1, X(F(1, 5), F(2, 7)))
    assert s.L == 35
    assert list(s.j) == sorted(s.j) and (s.j <= 12 * 35).all()
    assert len(s) == len(terms_of(s)) == s.c.size and (s.c != 0).all()
    for (alpha, m), c in terms_of(s).items():
        assert alpha * s.L == int(alpha * s.L)
    # a non-integer cutoff keeps exactly the exponents alpha <= 25/2
    full = e_series(2, X(F(2, 7), F(1, 3)), F(13))
    cut = e_series(2, X(F(2, 7), F(1, 3)), F(25, 2))
    assert terms_of(cut) == {k: c for k, c in terms_of(full).items() if k[0] <= F(25, 2)}


def test_cutoff_and_grid_limits():
    with pytest.raises(ValueError):
        series_from_terms({(F(1), 0): 1.0}, F(-3))
    with pytest.raises(ValueError):
        e_series(2, X(F(1, 5), F(2, 5)), F(-3))
    with pytest.raises(ValueError):  # 12 * L beyond int64
        series_from_terms({(F(1, 2**62), 0): 1.0}, F(12))
    with pytest.raises(ValueError):
        TauQSeries.from_grid(5, [1, 2], [0, -1], [1.0, 1.0], F(12))
    empty = series_from_terms({}, F(0))
    assert len(empty) == 0 and max_abs_coeff(empty) == 0.0


def test_qdump_rows_sorted():
    s = e_series(2, X(F(1, 5), F(2, 5)), F(3))
    rows = qdump_rows(s)
    assert all(len(r.split(",")) == 5 for r in rows)
    keys = []
    for r in rows:
        num, den, m = r.split(",")[:3]
        keys.append((F(int(num), int(den)), int(m)))
    assert keys == sorted(keys)
