import cmath
import math
import random
import subprocess
import sys
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from mevreg import specfun as sf
from oracles import child_env, e2pi

CATALAN = 0.9159655941772190


def test_bernoulli_poly_examples():
    assert sf.bernoulli_poly(1, 0.25) == pytest.approx(-0.25, abs=1e-15)
    assert sf.bernoulli_poly(1, 0.5) == pytest.approx(0.0, abs=1e-15)
    # B_2(t) = t^2 - t + 1/6 via the sum-of-powers recurrence at t = 0
    assert sf.bernoulli_poly(2, 0) == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_bernoulli_poly_range_errors():
    with pytest.raises(ValueError):
        sf.bernoulli_poly(0, 0.5)
    with pytest.raises(ValueError):
        sf.bernoulli_poly(7, 0.5)


def test_bernoulli_reflection():
    rng = random.Random(7)
    for _ in range(25):
        t = rng.uniform(-1.0, 2.0)
        for k in (1, 2, 3):
            lhs = sf.bernoulli_poly(k, 1.0 - t)
            rhs = (-1) ** k * sf.bernoulli_poly(k, t)
            assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------


def _gamma_rel_err(s: complex) -> float:
    with mpmath.workdps(30):
        ref = mpmath.gamma(mpmath.mpc(s))
        return float(abs((sf.gamma_fn(s) - ref) / ref))


@settings(max_examples=300, deadline=None)
@given(st.floats(-3.9, 8.0))
@example(3.0)
@example(0.5)
@example(-2.0000000000000004)
def test_gamma_fn_real_axis_matches_mpmath(x):
    # Gamma(x) ~ 1/x overflows the double range for |x| below about 5.6e-309
    assume(abs(x) > 1e-300 and not sf._is_nonpositive_int(complex(x)))
    assert _gamma_rel_err(x) <= 2e-15
    assert sf.gamma_fn(x).imag == 0.0


@settings(max_examples=300, deadline=None)
@given(st.floats(-4.0, 8.0), st.floats(-20.0, 20.0))
@example(-3.99, 1e-3)
@example(0.4999, 0.01)
@example(8.0, 20.0)
def test_gamma_fn_complex_matches_mpmath(re, im):
    s = complex(re, im)
    # at least 0.01 from a pole
    assume(re > 0.01 or abs(s - round(re)) >= 0.01)
    assert _gamma_rel_err(s) <= 3e-14


def test_gamma_fn_poles():
    for s in (0, -1, -3, complex(-2, 0)):
        with pytest.raises(sf.PoleError):
            sf.gamma_fn(s)
    with pytest.raises(OverflowError):
        sf.gamma_fn(172.0)


def _loaded_by_import(module: str) -> bool:
    """Whether ``import mevreg, mevreg.cli`` in a fresh interpreter loads ``module``."""
    code = f"import sys, mevreg, mevreg.cli; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_does_not_load_scipy():
    assert not _loaded_by_import("scipy")


def test_import_does_not_load_mpmath():
    # only the dilogarithm uses mpmath, and imports it on its first call
    assert not _loaded_by_import("mpmath")


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------


def test_hurwitz_examples():
    # brute-force oracle for (1/2, 2): sum (k + 1/2)^{-2} = pi^2/2
    assert sf.hurwitz_zeta(F(1, 2), 2) == pytest.approx(math.pi**2 / 2, abs=1e-12)
    assert sf.hurwitz_zeta(F(1, 3), 0) == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert sf.hurwitz_zeta(F(0), 0) == pytest.approx(-0.5, abs=1e-14)


def test_hurwitz_pole():
    with pytest.raises(sf.PoleError):
        sf.hurwitz_zeta(F(1, 3), 1)
    # zeta_H(s, 1/2) = 1/(s-1) - psi(1/2) + O(s-1); psi(1/2) = -gamma - 2 log 2,
    # and _hurwitz_core leaves out the pole part 1/(s-1)
    const = sf._hurwitz_core(1.0 + 0j, np.array([0.5])).real.item()
    assert const == pytest.approx(0.5772156649015329 + 2 * math.log(2), abs=1e-10)


def _partial_sum_oracle(y: F, s: complex, terms=400_000) -> complex:
    """Direct partial sums plus the classical tail correction."""
    a = float(y % 1) if y % 1 != 0 else 1.0
    n = np.arange(terms, dtype=float) + a
    partial = np.sum(n ** (-s))
    w = terms + a
    return partial + w ** (1 - s) / (s - 1) + 0.5 * w ** (-s)


def test_hurwitz_against_partial_sums():
    rng = random.Random(11)
    for _ in range(20):
        y = F(rng.randint(0, 11), rng.choice([3, 5, 7, 12]))
        s = complex(rng.uniform(1.6, 4.0), rng.uniform(-3.0, 3.0))
        ref = _partial_sum_oracle(y, s)
        assert abs(sf.hurwitz_zeta(y, s) - ref) < 1e-10


def test_hurwitz_negative_and_complex():
    # exact Bernoulli values at nonpositive integers
    for y in (F(1, 5), F(3, 7), F(0)):
        a = y if y != 0 else F(1)
        for n in (0, 1, 2, 3):
            want = -sf._bernoulli_poly_any(n + 1, a) / (n + 1)
            assert sf.hurwitz_zeta(y, -n) == pytest.approx(want, abs=1e-13)
    # reflection region spot-check against an independent partial-sum route:
    # zeta(y, s) with Re s < 1/2 via the functional equation must be smooth
    # across the switch line
    v1 = sf.hurwitz_zeta(F(2, 7), 0.5 + 0.3j)
    v2 = sf.hurwitz_zeta(F(2, 7), 0.4999 + 0.3j)
    assert abs(v1 - v2) < 1e-2


# ---------------------------------------------------------------------------
# Periodic zeta
# ---------------------------------------------------------------------------


def test_periodic_examples():
    assert sf.periodic_zeta(F(1, 2), 1) == pytest.approx(-math.log(2), abs=1e-13)
    assert sf.periodic_zeta(F(1, 4), 0) == pytest.approx((-1 + 1j) / 2, abs=1e-13)
    assert sf.periodic_zeta(F(0), 0) == pytest.approx(-0.5, abs=1e-14)
    with pytest.raises(sf.PoleError):
        sf.periodic_zeta(F(0), 1)


def test_periodic_cosine_sine_series():
    rng = random.Random(3)
    for _ in range(8):
        y = F(rng.randint(1, 6), 7)
        s = 2.5
        plus = sf.periodic_zeta(y, s) + sf.periodic_zeta(-y, s)
        minus = sf.periodic_zeta(y, s) - sf.periodic_zeta(-y, s)
        n = np.arange(1, 200_001, dtype=float)
        cos_ref = 2.0 * np.sum(np.cos(2 * math.pi * float(y) * n) / n**s)
        sin_ref = 2j * np.sum(np.sin(2 * math.pi * float(y) * n) / n**s)
        assert abs(plus - cos_ref) < 1e-9
        assert abs(minus - sin_ref) < 1e-9


def test_periodic_at_half_is_alternating_series():
    # phat(1/2, s) = sum (-1)^n n^{-s}; alternating tail bound < 1e-10
    s = 2.5
    n = np.arange(1, 30_001, dtype=float)
    ref = np.sum((-1.0) ** n / n**s)
    assert abs(sf.periodic_zeta(F(1, 2), s) - ref) < 1e-10


def test_roots_of_unity_equal_e2pi_exactly():
    for q in list(range(1, 65)) + [96, 4096, 28672]:
        roots = sf.roots_of_unity(q)
        assert len(roots) == q
        for j in range(q):
            want = e2pi(F(j, q))
            assert roots[j] == want
            assert math.copysign(1.0, roots[j].real) == math.copysign(1.0, want.real)
            assert math.copysign(1.0, roots[j].imag) == math.copysign(1.0, want.imag)
    with pytest.raises(ValueError):
        sf.roots_of_unity(0)


# ---------------------------------------------------------------------------
# Hurwitz and periodic zeta against mpmath (property tests)
# ---------------------------------------------------------------------------

MP_TOL = 1e-13


@st.composite
def zeta_shifts(draw):
    """y = p/q with q in 1..13 or q = 4096, p in [0, q)."""
    q = draw(st.one_of(st.integers(1, 13), st.just(4096)))
    return F(draw(st.integers(0, q - 1)), q)


_real_s = st.floats(-3.0, 4.5, allow_nan=False)
zeta_points = st.one_of(
    _real_s,
    st.builds(complex, _real_s, st.floats(-6.0, 6.0, allow_nan=False)),
    # integers: the exact Bernoulli branch at s <= 0 and the poles' neighbours
    st.integers(-3, 4).map(float),
    # both sides of the switch line Re s = 1/2
    st.builds(complex, st.floats(0.45, 0.55), st.floats(-2.0, 2.0)),
)


def _hurwitz_ref(y: F, s: complex) -> complex:
    """mpmath's zeta_H(s, {y}) at 30 digits, at s = 0 when |s| < 1e-20.

    mpmath rounds 1 - s to 1 there and divides by zero; the first-order
    term s * d/ds is far below the tolerance.
    """
    a = mpmath.mpf(y.numerator) / y.denominator if y else mpmath.mpf(1)
    with mpmath.workdps(30):
        return complex(mpmath.zeta(mpmath.mpc(s if abs(s) >= 1e-20 else 0.0), a))


def _periodic_ref(y: F, s: complex) -> complex:
    """mpmath's polylog(s, e(y)), at the nearest integer n when |s - n| < 1e-20.

    Near a positive integer mpmath's polylog cancels two poles and loses
    about -log10|s - n| digits, so those are added to the 30; the periodic
    zeta is entire for y != 0, so snapping moves it by far less than the
    tolerance.
    """
    if y == 0:
        return _hurwitz_ref(y, s)
    n = round(complex(s).real)
    gap = abs(s - n)
    if gap < 1e-20:
        s, gap = n, 1.0
    with mpmath.workdps(30 + max(0, math.ceil(-math.log10(gap)))):
        z = mpmath.expjpi(2 * mpmath.mpf(y.numerator) / y.denominator)
        return complex(mpmath.polylog(mpmath.mpc(s), z))


def _assert_mp_close(fn, y, s, ref) -> None:
    """fn(y, s) within MP_TOL of max(1, |ref|); PrecisionError if ref overflows."""
    ref = complex(ref)
    if not math.isfinite(abs(ref)):
        with pytest.raises(sf.PrecisionError):
            fn(y, s)
        return
    got = fn(y, s)
    assert abs(got - ref) <= MP_TOL * max(1.0, abs(ref)), (got, ref)


@settings(max_examples=150, deadline=None)
@given(zeta_shifts(), zeta_points)
def test_hurwitz_zeta_matches_mpmath(y, s):
    assume(s != 1)
    _assert_mp_close(sf.hurwitz_zeta, y, s, _hurwitz_ref(y, s))


@settings(max_examples=100, deadline=None)
@given(zeta_shifts(), zeta_points)
def test_periodic_zeta_matches_mpmath(y, s):
    assume(y != 0 or s != 1)
    # At s = -n the exact Bernoulli sum loses digits as q grows; the
    # strict xfail below measures that at q = 4096.
    assume(y.denominator <= 13 or not sf._is_nonpositive_int(complex(s)))
    _assert_mp_close(sf.periodic_zeta, y, s, _periodic_ref(y, s))


def test_periodic_reflection_at_large_denominator():
    # Lerch's equation needs two Euler-Maclaurin values whatever q is
    y, s = F(1, 4096), -0.5
    _assert_mp_close(sf.periodic_zeta, y, s, _periodic_ref(y, s))


@pytest.mark.xfail(
    strict=True,
    reason="exact Bernoulli branch: q terms of size q^(n+1) cancel to O(1) at s = -n",
)
def test_periodic_zeta_bernoulli_branch_at_large_denominator():
    # periodic_zeta(1365/4096, -3) keeps about 5 digits (relative error 1e-5)
    y, s = F(1365, 4096), -3
    _assert_mp_close(sf.periodic_zeta, y, s, _periodic_ref(y, s))


# ---------------------------------------------------------------------------
# Bloch-Wigner
# ---------------------------------------------------------------------------


def test_bloch_wigner_basics():
    assert sf.bloch_wigner(0.75) == 0.0
    assert sf.bloch_wigner(0.0) == 0.0
    assert sf.bloch_wigner(1.0) == 0.0
    assert sf.bloch_wigner(None) == 0.0
    assert sf.bloch_wigner(complex("inf")) == 0.0
    z = 0.3 + 0.4j
    assert sf.bloch_wigner(z.conjugate()) == pytest.approx(-sf.bloch_wigner(z), abs=1e-14)


def test_bloch_wigner_catalan():
    # oracle: Im sum i^n/n^2 = sum_k (-1)^k/(2k+1)^2, alternating
    k = np.arange(0, 60_000, dtype=float)
    ref = np.sum((-1.0) ** k / (2 * k + 1) ** 2)
    assert sf.bloch_wigner(1j) == pytest.approx(ref, abs=1e-9)
    assert sf.bloch_wigner(1j) == pytest.approx(CATALAN, abs=1e-15)
    assert sf.bloch_wigner(1j) == pytest.approx(CATALAN, abs=1e-12)


def test_bloch_wigner_inversion_relations():
    rng = random.Random(5)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        d = sf.bloch_wigner(z)
        assert sf.bloch_wigner(1 / z) == pytest.approx(-d, abs=1e-11)
        assert sf.bloch_wigner(1 - z) == pytest.approx(-d, abs=1e-11)


def test_bloch_wigner_five_term():
    # D(v) + 2 D((1-v)/(1-u)) + D(u/v) - D(u) = 0 on root-of-unity pairs
    rng = random.Random(9)
    for _ in range(100):
        n = rng.choice([5, 7, 9, 11, 12])
        j, k = rng.randint(1, n - 1), rng.randint(1, n - 1)
        u = cmath.exp(2j * math.pi * j / n)
        v = cmath.exp(2j * math.pi * k / n)
        if abs(u - 1) < 1e-12 or abs(v - 1) < 1e-12 or abs(u - v) < 1e-12:
            continue
        r = (
            sf.bloch_wigner(v)
            + 2.0 * sf.bloch_wigner((1 - v) / (1 - u))
            + sf.bloch_wigner(u / v)
            - sf.bloch_wigner(u)
        )
        assert abs(r) < 1e-10


# ---------------------------------------------------------------------------
# Incomplete gamma
# ---------------------------------------------------------------------------


def test_incomplete_gamma_examples():
    assert sf.upper_incomplete_gamma(1, 1) == pytest.approx(math.exp(-1), abs=1e-14)
    assert sf.upper_incomplete_gamma(2, 3) == pytest.approx(4 * math.exp(-3), abs=1e-14)
    # frozen from the quadrature oracle of the defining integral
    assert sf.upper_incomplete_gamma(0.5, 2) == pytest.approx(
        0.08064711796031769, abs=1e-12
    )


def test_incomplete_gamma_quadrature_oracle():
    for s, x in [(0.5, 2.0), (2.0, 3.0), (-1.0, 0.7), (3.2, 1.3)]:
        ref, _ = quad(
            lambda t: t ** (s - 1) * math.exp(-t), x, 80.0, limit=300, epsabs=1e-13
        )
        assert sf.upper_incomplete_gamma(s, x) == pytest.approx(ref, abs=1e-11)


def test_incomplete_gamma_complex_order():
    s = 1.5 + 0.5j
    x = 2.5
    ref_re, _ = quad(
        lambda t: (t ** (s - 1) * math.exp(-t)).real, x, 80.0, limit=300, epsabs=1e-13
    )
    ref_im, _ = quad(
        lambda t: (t ** (s - 1) * math.exp(-t)).imag, x, 80.0, limit=300, epsabs=1e-13
    )
    assert sf.upper_incomplete_gamma(s, x) == pytest.approx(
        complex(ref_re, ref_im), abs=1e-11
    )


def _gammainc(s: complex, x: float) -> complex:
    with mpmath.workdps(30):
        return complex(mpmath.gammainc(mpmath.mpc(s), mpmath.mpf(x)))


# The grids of mellin_numeric: 2 pi j / L, j = 1 .. cutoff * L.
GRID_LEVELS = (1, 2, 3, 5, 7, 11, 13, 35, 91, 4096)
ORDERS = st.one_of(
    st.floats(-3.0, 7.0),
    st.integers(-3, 7).map(float),
    st.integers(-6, 14).map(lambda k: k / 2),
    st.builds(complex, st.floats(-3.0, 7.0), st.floats(-3.0, 3.0)),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    ORDERS,
    st.sampled_from(GRID_LEVELS),
    st.sampled_from((F(4), F(25, 2), F(12))),
    st.lists(st.floats(0.0, 1.0), max_size=6),
)
@example(-2.0, 4096, F(12), [0.5])
@example(complex(0.37, -1.84), 4096, F(12), [])
@example(-2.5, 1, F(4), [0.1])
def test_incomplete_gamma_grid_matches_mpmath(s, level, cutoff, picks):
    x = 2 * math.pi * (np.arange(1, int(cutoff * level) + 1) / level)
    got = sf.upper_incomplete_gamma_grid(s, x)
    last = len(x) - 1
    for i in {0, last, *(round(p * last) for p in picks)}:
        ref = _gammainc(s, x[i])
        # e^(-t) at a rounded node t near x is off by up to x * 2^-53 relative
        assert abs(got[i] - ref) <= (2e-15 + 2.2e-16 * x[i]) * abs(ref), (i, x[i])


def test_incomplete_gamma_small_x_branch_matches_mpmath():
    # below x = |s| + 1.5 the scalar routine reads the grid kernel; the
    # continued fraction it starts from carries up to 5e-15 at that point
    rng = random.Random(17)
    for _ in range(200):
        s = rng.choice([rng.uniform(-3, 7), rng.randint(-3, 7), rng.randint(-6, 14) / 2])
        if rng.random() < 0.3:
            s = complex(s, rng.uniform(-3, 3))
        x = rng.uniform(1e-3, abs(s) + 1.5)
        ref = _gammainc(s, x)
        assert abs(sf.upper_incomplete_gamma(s, x) - ref) <= 1e-14 * abs(ref), (s, x)


def test_incomplete_gamma_errors_and_underflow():
    with pytest.raises(ValueError):
        sf.upper_incomplete_gamma(1.0, 0.0)
    with pytest.raises(ValueError):
        sf.upper_incomplete_gamma(1.0, -2.0)
    with pytest.raises(ValueError, match="x > 0"):
        sf.upper_incomplete_gamma_grid(1.0, np.array([0.0, 1.0]))
    val, flag = sf._gamma_upper_cached(1.0 + 0j, 800.0)
    assert flag and val == 0.0
    assert sf.upper_incomplete_gamma(1.0, 800.0) == 0.0
    val, flag = sf._gamma_upper_cached(1.0 + 0j, 1.0)
    assert not flag
