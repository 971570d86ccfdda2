"""Independent oracles used by the test-suite.

Everything here deliberately avoids the term-wise antiderivative engine and
the incomplete-gamma continuation: values are produced by literal adaptive
quadrature of the defining integrals (with explicit polynomial-part
subtraction where the regularisation requires it), or by direct partial
summation.  The tests freeze oracle outputs or run the oracles live and
compare pipelines.  The module also holds the series and subprocess helpers
that only the tests use.
"""

from __future__ import annotations

import cmath
import math
import os
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

import mevreg
from mevreg.eisenstein import (
    EllipticParam,
    TauQSeries,
    e_series,
    g_series,
    h_series,
    log_siegel_series,
)
from mevreg.identities import IdentityReport
from mevreg.regint import (
    AdmissibleForm,
    evaluate_at,
    mul_series,
    one_series,
    siegel_letter,
    word_integral_to_infinity,
    word_integral_zero_to_infinity,
)
from mevreg.specfun import bernoulli_poly

CUT = Fraction(12)


def quad_complex(f, lo, hi, eps=1e-11, limit=300):
    re, _ = quad(lambda y: f(y).real, lo, hi, limit=limit, epsabs=eps, epsrel=eps)
    im, _ = quad(lambda y: f(y).imag, lo, hi, limit=limit, epsabs=eps, epsrel=eps)
    return complex(re, im)


def e2pi(x: Fraction | float) -> complex:
    """Root of unity / unit-circle point e(x) = exp(2*pi*i*x), x taken mod 1.

    The reference for ``specfun.roots_of_unity``: exact at the quarter turns,
    ``cmath.exp`` of the reduced float elsewhere.
    """
    if isinstance(x, Fraction):
        x = x % 1
        if x == 0:
            return 1.0 + 0.0j
        if 2 * x == 1:
            return -1.0 + 0.0j
        if 4 * x == 1:
            return 1.0j
        if 4 * x == 3:
            return -1.0j
    t = float(x) % 1.0
    return cmath.exp(2j * math.pi * t)


def series_from_terms(terms, cutoff) -> TauQSeries:
    """Series of the terms {(alpha, tau power): coefficient} with alpha <= cutoff.

    Zero coefficients and exponents beyond the cutoff are dropped first; the
    grid is the lcm of the denominators of the rest.  ``from_grid`` rejects a
    negative exponent, a negative tau power, a negative cutoff and a grid
    index beyond int64.
    """
    cutoff = Fraction(cutoff)
    kept = [
        (Fraction(alpha), m, c)
        for (alpha, m), c in terms.items()
        if c != 0 and Fraction(alpha) <= cutoff
    ]
    L = math.lcm(1, *(alpha.denominator for alpha, _, _ in kept))
    return TauQSeries.from_grid(
        L,
        [alpha.numerator * (L // alpha.denominator) for alpha, _, _ in kept],
        [m for _, m, _ in kept],
        [c for _, _, c in kept],
        cutoff,
    )


def terms_of(series: TauQSeries) -> dict:
    """The exact view {(Fraction(j, L), m): coefficient} of a series, in (j, m) order."""
    L = series.L
    return {
        (Fraction(j, L), m): c
        for j, m, c in zip(series.j.tolist(), series.m.tolist(), series.c.tolist())
    }


def coeff_of(series: TauQSeries, alpha, m: int = 0) -> complex:
    """Coefficient of tau^m q^alpha; 0 when the series has no such term."""
    return terms_of(series).get((Fraction(alpha), m), 0.0 + 0.0j)


def qdump_rows_reference(series: TauQSeries) -> list[str]:
    """``eisenstein.qdump_rows`` as it was written over the Fraction view."""
    return [
        f"{alpha.numerator},{alpha.denominator},{m},{c.real!r},{c.imag!r}"
        for (alpha, m), c in terms_of(series).items()
    ]


def series_residual_reference(name: str, combo: TauQSeries) -> IdentityReport:
    """``identities._series_residual`` as it was written over the Fraction view."""
    worst_key, worst = None, 0.0
    for key, c in terms_of(combo).items():
        if abs(c) > worst:
            worst, worst_key = abs(c), key
    return IdentityReport(name, worst, worst_key)


def child_env(**extra: str) -> dict:
    """Environment of a child interpreter that imports mevreg from the tree under test."""
    src = os.path.dirname(os.path.dirname(mevreg.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def series_derivative(f: TauQSeries) -> TauQSeries:
    """d/d(tau): tau^m q^alpha -> m tau^{m-1} q^alpha + 2 pi i alpha tau^m q^alpha."""
    lowered = f.m >= 1
    moving = f.j != 0
    return TauQSeries.from_grid(
        f.L,
        np.concatenate([f.j[lowered], f.j[moving]]),
        np.concatenate([f.m[lowered] - 1, f.m[moving]]),
        np.concatenate(
            [
                f.m[lowered] * f.c[lowered],
                2j * math.pi * (f.j[moving] / f.L) * f.c[moving],
            ]
        ),
        f.cutoff,
    )


def max_abs_coeff(f: TauQSeries) -> float:
    return float(np.abs(f.c).max(initial=0.0))


# ---------------------------------------------------------------------------
# Regularised double integral of weight-2 letters, by nested quadrature
# ---------------------------------------------------------------------------


def lambda_double_quadrature(x: EllipticParam, y: EllipticParam, eps=1e-11) -> complex:
    """(2 pi i)^2 int_0^oo E2_x E2_y (regularised), with the split at i and
    every one-variable regularised integral done by polynomial-part
    subtraction plus quadrature."""

    def a0(p):
        return bernoulli_poly(2, p.x1) / 2.0

    def tail(v, a0v):
        srs = e_series(2, v, CUT)

        def t(y1):
            dec = quad_complex(lambda y2: evaluate_at(srs, y2) - a0v, y1, 45.0, eps)
            return 1j * dec - a0v * 1j * y1

        return t

    def piece_inf(xs, ys):
        exs = e_series(2, xs, CUT)
        ax, ay = a0(xs), a0(ys)
        t_y = tail(ys, ay)

        def integrand(yv):
            return evaluate_at(exs, yv) * t_y(yv) + ax * ay * 1j * yv

        return 1j * quad_complex(integrand, 1.0, 45.0, eps) - ax * ay * 0.5

    def single_inf(v):
        return tail(v, a0(v))(1.0)

    xs, ys = x.sigma(), y.sigma()
    total = piece_inf(ys, xs)  # int_0^i of the word, through path reversal
    total += (-single_inf(xs)) * single_inf(y)
    total += piece_inf(x, y)
    return (2j * math.pi) ** 2 * total


# ---------------------------------------------------------------------------
# Mellin transforms of G-products, by quadrature
# ---------------------------------------------------------------------------


def lvalue_factors(a: EllipticParam, b: EllipticParam):
    """The two G1 x G1 products of the regulator's Mellin side, plus and minus."""
    return (
        [(1, EllipticParam(a.x1, b.x2)), (1, EllipticParam(b.x1, -a.x2))],
        [(1, EllipticParam(a.x1, -b.x2)), (1, EllipticParam(b.x1, a.x2))],
    )


def mellin_g_product_quadrature(pairs, s: float, eps=1e-12) -> complex:
    """M(prod_i G^(k_i)_{x_i}, s) with the (0,1] piece mapped through
    G^(k)(-1/tau) = (-1)^k tau^k H^(k)(tau).

    The constant term of each side is subtracted before the quadrature and
    continued exactly: c int_1^oo y^{s-1} dy -> -c/s on the G side, and
    int_1^oo t^{w-1} dt -> -1/w with w = k - s on the H side.  So the
    quadrature sees only the exponentially decaying parts, and the value
    holds at any s != 0, k where the rest converges.
    """
    gs = [g_series(k, xx, CUT) for k, xx in pairs]
    hs = [h_series(k, xx, CUT) for k, xx in pairs]
    k_tot = sum(k for k, _ in pairs)
    c_g = c_h = 1.0 + 0.0j
    for srs in gs:
        c_g *= coeff_of(srs, 0, 0)
    for srs in hs:
        c_h *= coeff_of(srs, 0, 0)

    def f_inf_dec(yv):
        out = 1.0 + 0.0j
        for srs in gs:
            out *= evaluate_at(srs, yv)
        return out - c_g

    def f_zero_dec(tv):
        out = 1.0 + 0.0j
        for srs in hs:
            out *= evaluate_at(srs, tv)
        return (-1.0) ** k_tot * (1j * tv) ** k_tot * (out - c_h)

    v1 = quad_complex(lambda yv: f_inf_dec(yv) * yv ** (s - 1.0), 1.0, 50.0, eps)
    v1 += -c_g / s
    v2 = quad_complex(lambda tv: f_zero_dec(tv) * tv ** (-s - 1.0), 1.0, 50.0, eps)
    v2 += -((-1.0) ** k_tot) * (1j) ** k_tot * c_h / (k_tot - s)
    return v1 + v2


# ---------------------------------------------------------------------------
# K2 regulator by quadrature of the product-log form
# ---------------------------------------------------------------------------


def eta_quadrature(a: EllipticParam, b: EllipticParam, eps=1e-12) -> float:
    """int_0^oo of log|g_a| darg g_b - log|g_b| darg g_a, valid when all
    coordinates of a and b are nonzero (so that the form decays at both
    cusps).  The (0, i] half is pulled back through sigma."""

    def make_integrand(aa, bb):
        la, lb = log_siegel_series(aa, CUT), log_siegel_series(bb, CUT)
        ea, eb = e_series(2, aa, CUT), e_series(2, bb, CUT)

        def f(yv):
            loga = evaluate_at(la, yv).real
            logb = evaluate_at(lb, yv).real
            darga = -2.0 * math.pi * evaluate_at(ea, yv).imag
            dargb = -2.0 * math.pi * evaluate_at(eb, yv).imag
            return loga * dargb - logb * darga

        return f

    f1 = make_integrand(a, b)
    f2 = make_integrand(a.sigma(), b.sigma())
    v1, _ = quad(f1, 1.0, 60.0, limit=300, epsabs=eps, epsrel=eps)
    v2, _ = quad(f2, 1.0, 60.0, limit=300, epsabs=eps, epsrel=eps)
    return v1 - v2


# ---------------------------------------------------------------------------
# Literal nested integral of a convergent two-letter word
# ---------------------------------------------------------------------------


def nested_convergent_quadrature(f1, f2, lo=0.05, hi=40.0, eps=1e-10) -> complex:
    """int f1(iy1) i dy1 int_{y1} f2(iy2) i dy2 over [lo, hi]^2-triangle,
    for coefficient functions evaluated through the given callables."""

    def inner(y1):
        return 1j * quad_complex(lambda y2: f2(y2), y1, hi, eps)

    return 1j * quad_complex(lambda y1: f1(y1) * inner(y1), lo, hi, eps)


def eval_e2_anywhere(x: EllipticParam, yv: float) -> complex:
    """E^(2)_x(iy) for any y > 0, using modularity below y = 1."""
    if yv >= 1.0:
        return evaluate_at(e_series(2, x, CUT), yv)
    return (1j / yv) ** 2 * evaluate_at(e_series(2, x.sigma(), CUT), 1.0 / yv)


def tail_function_reference(letter: AdmissibleForm) -> tuple[TauQSeries, TauQSeries]:
    """Both sides of J(tau) = int_tau^oo of one letter: the tail integral of
    the letter, and that of its pullback plus the regularised int_0^oo."""
    inf = word_integral_to_infinity([letter])
    const = word_integral_zero_to_infinity([letter])
    zero = word_integral_to_infinity([letter.sigma_pullback()])
    return inf, zero + one_series(zero.cutoff).scale(const)


def a3_forms_reference(a, b, c, cutoff) -> list[AdmissibleForm]:
    """The 12 composite forms J_x J_y dlog|g_z| of the shuffle ledger's
    log-product term, one form at a time: each piece (x, y, z) builds its
    three tail functions afresh and each side multiplies one factor at a
    time, (letter z * J_x) * J_y.  The pieces and their forms come in the
    order of ``identities._a3_forms``."""
    forms = []
    for y, z in ((a, b), (b, c), (c, a)):
        for x in (b, a):
            jx, jy, jz = (
                tail_function_reference(siegel_letter(p, "plus", cutoff)) for p in (x, y, z)
            )
            for tails, p in (((jx, jy), z), ((jx, jz), y)):
                letter = siegel_letter(p, "plus", cutoff)
                inf, zero = letter.inf_side, letter.zero_side
                for f_inf, f_zero in tails:
                    inf, zero = mul_series(inf, f_inf), mul_series(zero, f_zero)
                forms.append(AdmissibleForm(inf, zero))
    return forms
