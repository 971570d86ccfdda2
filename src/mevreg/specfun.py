"""Scalar special functions used by every closed-form evaluation.

Pure and reentrant; the only state is LRU caches of immutable values.  All
functions target ~1e-12 relative accuracy in double precision; the
module-level constants below pin the working parameters (they are not
per-call options).

Conventions
-----------
* ``hurwitz_zeta(y, s)`` is the sum over n > 0 with n ≡ y (mod 1) of n^{-s},
  i.e. the classical Hurwitz zeta ``zeta_H(s, a)`` with a = {y} (a = 1 when
  y ≡ 0), analytically continued to all s != 1.
* ``periodic_zeta(y, s)`` is the sum over n >= 1 of e(ny) n^{-s} with
  e(t) = exp(2*pi*i*t), continued to all s (all s != 1 when y ≡ 0).
* ``bloch_wigner(z)`` is the single-valued dilogarithm
  D(z) = Im Li2(z) + arg(1-z) log|z| on the whole Riemann sphere.
* ``gamma_fn(s)`` is Euler's Gamma for complex s, with a
  :class:`PoleError` at 0, -1, -2, ...
* ``upper_incomplete_gamma(s, x)`` is Gamma(s, x) for complex s and real
  x > 0; ``upper_incomplete_gamma_grid(s, x)`` is the same at every point
  of a sorted array x.

Everything is computed here, from numpy, mpmath (the dilogarithm only,
imported on its first call) and the standard library.  Gamma is
``math.gamma`` on the real axis and Stirling's series elsewhere.

Upper incomplete gamma
----------------------
Legendre's continued fraction gives Gamma(s, x) for x >= |s| + 1.5.  Below
that, and at every point of an array, ``upper_incomplete_gamma_grid``
starts from the continued fraction at top = max(x[-1], |s| + 1.5) and adds
the integral of t^(s-1) e^(-t) down to each point: 20-point Gauss-Legendre
panels, none wider than 1.3 or than its left end, summed from the top down
with the rounding error of each step carried along.  On the grids of
``mellin.mellin_numeric`` the values are within 2e-15 + 2.2e-16 x relative;
the second part is e^(-t) at rounded arguments t near x.  A point just
below |s| + 1.5 inherits part of the continued fraction's error at the
threshold, which reaches 5.5e-15.  No order is shifted, so s = 0, -1, ...
need no special case.

Hurwitz and periodic zeta
-------------------------
Both rest on one Euler-Maclaurin (EM) routine, ``_hurwitz_core``, which
evaluates zeta_H(s, a) at a whole array of shifts a in one numpy pass, for
Re s >= 1/2, and gives the exact Bernoulli values at nonpositive integers.
It leaves out the pole part 1/(s-1), which is the same for every shift, so
the sums below lose nothing to it near s = 1.  Every other s is reflected:

* ``periodic_zeta(p/q, s)`` for Re s >= 1/2 and at the nonpositive integers
  is q^{-s} sum_{j=1}^{q} e(jp/q) zeta_H(s, j/q): one batch of q shifts,
  summed in order of j.
* ``periodic_zeta(y, s)`` for other Re s < 1/2 uses Lerch's functional
  equation with z = 1 - s,
  F(y, 1-z) = Gamma(z) (2 pi)^{-z} [e^{i pi z/2} zeta_H(z, y)
  + e^{-i pi z/2} zeta_H(z, 1-y)]: one batch of two shifts, whatever q is.
* ``hurwitz_zeta(p/q, s)`` for Re s < 1/2 off the integers uses Hurwitz's
  formula, which needs F(±p/q, 1-s): one batch of the q shifts j/q at
  z = 1 - s, read through the two rows e(±jp/q) of the discrete Fourier
  transform.

The work is linear in q; no q x q table is formed.  The roots of unity
e(j/q) come from ``roots_of_unity(q)``, a bounded LRU cache of the table of
``unit_root(j, q)``: ``cmath.exp`` of 2 pi i (j/q), with the quarter turns
exact.  The series generators in ``eisenstein`` call ``unit_root`` only for
the residues their terms reach.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "PoleError",
    "PrecisionError",
    "ZETA3",
    "ZETA_PRIME_MINUS2",
    "bernoulli_number",
    "bernoulli_poly",
    "bloch_wigner",
    "gamma_fn",
    "hurwitz_zeta",
    "periodic_zeta",
    "roots_of_unity",
    "unit_root",
    "upper_incomplete_gamma",
    "upper_incomplete_gamma_grid",
]


class PoleError(ZeroDivisionError):
    """Evaluation requested exactly at a pole."""


class PrecisionError(ArithmeticError):
    """A result could not be produced within the accuracy budget."""


TWO_PI = 2.0 * math.pi

# zeta(3) and zeta'(-2) = -zeta(3)/(4 pi^2), to 30+ digits.  They gate the
# 1e-7 end-to-end budget of the regulator comparisons, so they are pinned
# here rather than recomputed.
ZETA3 = 1.202056903159594285399738161511
ZETA_PRIME_MINUS2 = -ZETA3 / (4.0 * math.pi**2)

# Euler-Maclaurin working parameters: split point and number of Bernoulli
# correction terms.  With M = 30 the first omitted correction is below
# 1e-15 relative throughout |Im s| <= 20, Re s >= 1/2.
_EM_SPLIT = 30
_EM_TERMS = 12

# B_2, B_4, ..., B_26 (B_1 = -1/2 convention plays no role here).
_BERNOULLI_EVEN = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
)

# Tables of the Euler-Maclaurin formula in _hurwitz_core, j = 1..J: the
# summation rows n = 0..M, B_{2j}/(2j)!, the Pochhammer steps 0..2J-2 and
# the exponents 1-2j.
_EM_ROWS = np.arange(_EM_SPLIT + 1)[:, None]
_EM_COEFFS = np.array(
    [float(b / math.factorial(2 * j)) for j, b in enumerate(_BERNOULLI_EVEN[:_EM_TERMS], 1)]
)
_EM_STEPS = np.arange(2 * _EM_TERMS - 1)
_EM_ODD_POWERS = -np.arange(1, 2 * _EM_TERMS, 2)[:, None]


def bernoulli_number(n: int) -> Fraction:
    """Exact Bernoulli number B_n for 0 <= n <= 26."""
    if n < 0 or n > 26:
        raise ValueError(f"Bernoulli number B_{n} not tabulated")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    return _BERNOULLI_EVEN[n // 2 - 1]


@lru_cache(maxsize=None)
def _bernoulli_poly_coeffs(k: int) -> tuple[Fraction, ...]:
    """Coefficients of B_k(t) in ascending powers, exact."""
    return tuple(
        Fraction(math.comb(k, j)) * bernoulli_number(k - j) for j in range(k + 1)
    )


def bernoulli_poly(k: int, t: float | Fraction) -> float:
    """Value of the k-th Bernoulli polynomial B_k(t), 1 <= k <= 6."""
    if not 1 <= k <= 6:
        raise ValueError(f"bernoulli_poly supports 1 <= k <= 6, got {k}")
    return _bernoulli_poly_any(k, float(t))


def _bernoulli_poly_any(k: int, t):
    """B_k(t) by Horner's rule, for a float or elementwise over a float array."""
    acc = 0.0
    for c in reversed(_bernoulli_poly_coeffs(k)):
        acc = acc * t + float(c)
    return acc


# Stirling's series for log Gamma: the coefficients B_2j / (2j (2j-1)),
# j = 1..8, used once |z| >= _STIRLING_MIN, where the first omitted term is
# below 1e-17 relative.
_STIRLING = tuple(
    float(b / (2 * j * (2 * j - 1))) for j, b in enumerate(_BERNOULLI_EVEN[:8], 1)
)
_STIRLING_MIN = 12.0
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def gamma_fn(s: complex) -> complex:
    """Euler Gamma for complex argument.

    On the real axis this is ``math.gamma``; elsewhere Stirling's series
    after an upward shift to |z| >= 12, and the reflection formula
    pi / (sin(pi s) Gamma(1 - s)) below Re s = 1/2.  Raises
    :class:`PoleError` at 0, -1, -2, ... and ``OverflowError`` where a real
    value exceeds the double range (s > 171.6).
    """
    s = complex(s)
    if s.imag == 0.0:
        if _is_nonpositive_int(s):
            raise PoleError(f"Gamma has a pole at s = {s.real:g}")
        return complex(math.gamma(s.real))
    if s.real < 0.5:
        # sin(pi s) = (-1)^n sin(pi (s - n)): exact s - n keeps the digits
        # next to a pole.
        n = round(s.real)
        sine = cmath.sin(math.pi * (s - n))
        return math.pi / ((-sine if n % 2 else sine) * gamma_fn(1.0 - s))
    z, shift = s, 1.0
    while abs(z) < _STIRLING_MIN:
        shift *= z
        z += 1.0
    inv, inv2, tail = 1.0 / z, 1.0 / (z * z), 0.0
    for c in reversed(_STIRLING):
        tail = tail * inv2 + c
    return cmath.exp((z - 0.5) * cmath.log(z) - z + _HALF_LOG_TWO_PI + tail * inv) / shift


# ---------------------------------------------------------------------------
# Hurwitz and periodic zeta
# ---------------------------------------------------------------------------


def _frac_mod1(y: Fraction | int) -> Fraction:
    return Fraction(y) % 1


def _is_nonpositive_int(s: complex) -> bool:
    return s.imag == 0.0 and s.real <= 0.0 and s.real == round(s.real)


_QUARTER_TURNS = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def unit_root(r: int, q: int) -> complex:
    """e(r/q) for 0 <= r < q, with 1, i, -1 and -i exact."""
    quarter, rest = divmod(4 * r, q)
    if rest == 0:
        return _QUARTER_TURNS[quarter]
    # r / q is correctly rounded, as float(Fraction(r, q)) is
    return cmath.exp(2j * math.pi * ((r / q) % 1.0))


@lru_cache(maxsize=32)
def roots_of_unity(q: int) -> tuple[complex, ...]:
    """(e(0/q), e(1/q), ..., e((q-1)/q)), each as ``unit_root`` gives it."""
    if q < 1:
        raise ValueError(f"roots_of_unity needs q >= 1, got {q}")
    return tuple(unit_root(j, q) for j in range(q))


def _real_pow(x: np.ndarray, z: complex) -> np.ndarray:
    """x**z for an array x > 0 and a complex scalar z: x^Re z times e^{i Im z log x}."""
    if z.imag == 0.0:
        return np.power(x, z.real)
    return np.power(x, z.real) * np.exp(1j * z.imag * np.log(x))


def _hurwitz_core(s: complex, a: np.ndarray) -> np.ndarray:
    """zeta_H(s, a) at every shift of the array a, less its pole part.

    The shifts lie in (0, 1].  At a nonpositive integer s = -n this is the
    exact zeta_H(-n, a) = -B_{n+1}(a)/(n+1).  Any other s needs Re s >= 1/2
    (callers reflect the rest) and gives zeta_H(s, a) - 1/(s-1), by
    Euler-Maclaurin with the split at n = M:

        sum_{n<M} (n+a)^{-s} + (w^{1-s} - 1)/(s-1) + w^{-s}/2
            + sum_j B_{2j}/(2j)! (s)_{2j-1} w^{-s-2j+1},   w = M + a,

    for all shifts at once: one (M+1) x len(a) table of powers and one
    (number of corrections) x len(a) table of w^{1-2j}.  Either way the
    part left out is the same for every shift, so it cancels from periodic
    sums.  Taking (w^{1-s} - 1)/(s-1) through expm1 keeps the result
    accurate as s -> 1 (a Taylor series takes over within 1e-9 of it, where
    the division would lose digits); at s = 1 the result is -psi(a).
    """
    if _is_nonpositive_int(s):
        n = int(-s.real)
        return (-_bernoulli_poly_any(n + 1, a) / (n + 1)).astype(complex)
    powers = _real_pow(_EM_ROWS + a, -s)
    w = _EM_SPLIT + a
    log_w = np.log(w)
    if abs(s - 1) < 1e-9:
        # Taylor series of -log(w) expm1(x)/x, x = (1-s) log w; exact at s = 1.
        x = (1 - s) * log_w
        pole_tail = -log_w * (1 + x / 2 + x * x / 6)
    else:
        pole_tail = np.expm1((1 - s) * log_w) / (s - 1)
    poch = (s + _EM_STEPS).cumprod()[::2]  # (s)_1, (s)_3, ..., (s)_{2J-1}
    corr = (_EM_COEFFS * poch) @ np.power(w, _EM_ODD_POWERS)
    return powers[:_EM_SPLIT].sum(axis=0) + pole_tail + powers[_EM_SPLIT] * (0.5 + corr)


def _periodic_sum_general(p: int, q: int, s: complex, r: np.ndarray) -> complex:
    """q^{-s} sum_{j=1}^{q} e(jp/q) r[j-1], read through one row of the DFT.

    With r[j-1] = zeta_H(s, j/q) up to a part the same for every j (as
    ``_hurwitz_core`` returns it), this is F(p/q, s) unless q divides p:
    the roots of unity then sum to 0.  The sum runs in order of j with
    Python complex arithmetic, so exact Bernoulli inputs give the same bits
    on every platform (``qdump`` prints the H-series constant terms made
    from them).
    """
    roots = roots_of_unity(q)
    total = 0.0 + 0.0j
    for j, rj in enumerate(r.tolist(), start=1):
        total += roots[j * p % q] * rj
    return q ** (-s) * total


def _reflect(s: complex, plus: complex, minus: complex, common: float) -> complex:
    """Gamma(z) (2 pi)^{-z} [e^{i pi z/2} (plus + C) + e^{-i pi z/2} (minus + C)], z = 1 - s,

    for the pole part C = common/(z - 1).  Its two terms add up to
    -pi sin(x)/x * common with x = pi s/2, which stays exact as s -> 0.
    """
    z = 1 - s
    bracket = cmath.exp(0.5j * math.pi * z) * plus + cmath.exp(-0.5j * math.pi * z) * minus
    if common:
        x = 0.5 * math.pi * s
        bracket -= math.pi * (cmath.sin(x) / x) * common
    return gamma_fn(z) * TWO_PI ** (-z) * bracket


def _check_finite(value: complex, what: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise PrecisionError(f"{what} did not evaluate finitely")
    return value


def hurwitz_zeta(y: Fraction | int, s: complex) -> complex:
    """sum_{n>0, n ≡ y mod 1} n^{-s}, continued to all s != 1.

    ``y`` is an exact rational, interpreted mod 1; y ≡ 0 gives the Riemann
    zeta function.  Raises :class:`PoleError` at s = 1.
    """
    yy = _frac_mod1(y)
    a = yy if yy != 0 else Fraction(1)
    s = complex(s)
    if s == 1:
        raise PoleError("Hurwitz zeta has a simple pole at s = 1")
    if _is_nonpositive_int(s):
        value = _hurwitz_core(s, np.array([float(a)])).item()
    elif s.real >= 0.5:
        value = _hurwitz_core(s, np.array([float(a)])).item() + 1 / (s - 1)
    else:
        # Hurwitz's formula with z = 1 - s, Re z > 1/2:
        #   zeta_H(s, p/q) = Gamma(z) (2 pi)^{-z}
        #       * [e^{-i pi z/2} F(p/q, z) + e^{i pi z/2} F(-p/q, z)];
        # both periodic sums read one batch zeta_H(z, j/q), j = 1..q.  The
        # pole part survives only for q = 1, where F(±1, z) = zeta(z).
        z = 1 - s
        p, q = a.numerator, a.denominator
        r = _hurwitz_core(z, np.arange(1, q + 1) / q)
        value = _reflect(
            s,
            _periodic_sum_general(-p, q, z, r),
            _periodic_sum_general(p, q, z, r),
            1.0 if q == 1 else 0.0,
        )
    return _check_finite(value, f"hurwitz_zeta({y}, {s})")


def periodic_zeta(y: Fraction | int, s: complex) -> complex:
    """sum_{n>=1} e(ny) n^{-s}, continued to all s (s != 1 when y ≡ 0)."""
    yy = _frac_mod1(y)
    s = complex(s)
    if yy == 0:
        return hurwitz_zeta(0, s)  # Riemann zeta; PoleError at s = 1
    if s == 1:
        # -log(1 - e(y)) with the principal branch:
        # log(1-e(y)) = log|1-e(y)| + i pi ({y} - 1/2).
        t = float(yy)
        return complex(-math.log(2.0 * math.sin(math.pi * t)), -math.pi * (t - 0.5))
    if s.real >= 0.5 or _is_nonpositive_int(s):
        p, q = yy.numerator, yy.denominator
        value = _periodic_sum_general(p, q, s, _hurwitz_core(s, np.arange(1, q + 1) / q))
    else:
        # Lerch's functional equation with z = 1 - s, 0 < y < 1:
        #   F(y, 1-z) = Gamma(z) (2 pi)^{-z}
        #       * [e^{i pi z/2} zeta_H(z, y) + e^{-i pi z/2} zeta_H(z, 1-y)].
        r = _hurwitz_core(1 - s, np.array([float(yy), float(1 - yy)]))
        value = _reflect(s, *r.tolist(), 1.0)
    return _check_finite(value, f"periodic_zeta({y}, {s})")


# ---------------------------------------------------------------------------
# Bloch-Wigner dilogarithm
# ---------------------------------------------------------------------------


# mpmath working digits of the dilogarithm
_DILOG_DIGITS = 30


@lru_cache(maxsize=65536)
def _bloch_wigner_cached(z: complex) -> float:
    import mpmath  # 30 ms of import time, which only the dilogarithm needs

    with mpmath.workdps(_DILOG_DIGITS):
        li2 = mpmath.polylog(2, z)
        val = mpmath.im(li2) + mpmath.arg(1 - mpmath.mpc(z)) * mpmath.log(abs(z))
        return float(val)


def bloch_wigner(z) -> float:
    """Bloch-Wigner dilogarithm D(z); total on P^1(C), vanishes on R and at oo.

    Satisfies D(1/z) = D(1-z) = -D(z) and D(conj z) = -D(z).
    """
    if z is None:
        return 0.0
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return 0.0
    if z.imag == 0.0:
        return 0.0
    return _bloch_wigner_cached(z)


# ---------------------------------------------------------------------------
# Upper incomplete gamma, complex order
# ---------------------------------------------------------------------------

_GAMMA_CF_MAXIT = 600

# The 20-point Gauss-Legendre rule on [-1, 1], from its positive half.  Each
# node is a root of P_20, found by Newton's method from
# cos(pi (i - 1/4) / 20.5) at 40 digits in mpmath, with the weight
# 2 / ((1 - x^2) P_20'(x)^2); the literals are those values rounded to
# double.  Weights from an eigenvalue solver (numpy's leggauss) are off by
# up to 7e-14 relative, which every panel sum would inherit.
_GL_HALF_NODES = (
    0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
    0.5108670019508271, 0.636053680726515, 0.7463319064601508,
    0.8391169718222188, 0.912234428251326, 0.9639719272779138,
    0.9931285991850949,
)
_GL_HALF_WEIGHTS = (
    0.15275338713072584, 0.14917298647260374, 0.14209610931838204,
    0.13168863844917664, 0.11819453196151841, 0.10193011981724044,
    0.08327674157670475, 0.06267204833410907, 0.04060142980038694,
    0.017614007139152118,
)
_GL_NODES = np.array([-x for x in reversed(_GL_HALF_NODES)] + list(_GL_HALF_NODES))
_GL_WEIGHTS = np.array(list(reversed(_GL_HALF_WEIGHTS)) + list(_GL_HALF_WEIGHTS))
# Panel widths: at most _PANEL_WIDTH, and at most the panel's left end, so
# the branch point of t^(s-1) at 0 stays 1.5 widths from the panel's middle.
_PANEL_WIDTH = 1.3


def _gamma_upper_cf(s: complex, x: float) -> complex:
    """Legendre continued fraction, reliable for x >= |s| + 1.5."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _GAMMA_CF_MAXIT):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return cmath.exp(-x + s * math.log(x)) * h


@lru_cache(maxsize=200000)
def _gamma_upper_cached(s: complex, x: float) -> tuple[complex, bool]:
    # Underflow guard: Gamma(s,x) ~ x^{s-1} e^{-x} for large x.
    if -x + (s.real - 1.0) * math.log(x) < -720.0 and x > abs(s) + 10.0:
        return 0.0 + 0.0j, True
    if x >= abs(s) + 1.5:
        return _gamma_upper_cf(s, x), False
    return complex(upper_incomplete_gamma_grid(s, np.array([x]))[0]), False


def upper_incomplete_gamma(s: complex, x: float) -> complex:
    """Gamma(s, x) for complex s, real x > 0 (underflow returned as 0)."""
    if x <= 0:
        raise ValueError(f"upper_incomplete_gamma requires x > 0, got x = {x}")
    return _gamma_upper_cached(complex(s), float(x))[0]


def upper_incomplete_gamma_grid(s: complex, x: np.ndarray) -> np.ndarray:
    """Gamma(s, x_i) at every point of a sorted float array x > 0, complex s.

    The continued fraction gives the value at top = max(x[-1], |s| + 1.5).
    Below it, int t^(s-1) e^(-t) dt is summed over 20-point Gauss-Legendre
    panels that are never wider than 1.3 or their left end; a gap of x
    wider than that takes breakpoints from the sequence that doubles from
    x[0] up to 1.3 and then steps by 1.3.  The panel sums are accumulated
    from the top down in one cumsum, and the rounding error of each of its
    steps, found exactly by TwoSum, in a second one.
    """
    start = float(x[0])
    if not start > 0:
        raise ValueError(f"upper_incomplete_gamma_grid requires x > 0, got x[0] = {start}")
    s = complex(s)
    top = max(float(x[-1]), abs(s) + 1.5)
    points = np.append(x, top)
    near = start * 2.0 ** np.arange(max(0, math.ceil(math.log2(_PANEL_WIDTH / start))) + 1)
    steps = np.arange(1, math.ceil((top - near[-1]) / _PANEL_WIDTH))
    base = np.concatenate((near, near[-1] + _PANEL_WIDTH * steps))
    base = base[base < top]
    gap = np.searchsorted(points, base, side="right")
    wide = points[gap] - points[gap - 1] > np.minimum(points[gap - 1], _PANEL_WIDTH)
    edges = np.sort(np.concatenate((points, base[wide])))
    half = 0.5 * (edges[1:] - edges[:-1])
    t = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * _GL_NODES
    integrand = np.power(t, s.real - 1.0) * np.exp(-t)
    if s.imag:
        phase = s.imag * np.log(t)
        integrand = integrand * np.cos(phase) + 1j * (integrand * np.sin(phase))
    panels = (integrand @ _GL_WEIGHTS) * half
    terms = np.concatenate(([_gamma_upper_cached(s, top)[0]], panels[::-1]))
    tail = terms.cumsum()
    # TwoSum: the exact rounding error of each step of the cumsum
    added = tail[1:] - tail[:-1]
    tail[1:] += ((tail[:-1] - (tail[1:] - added)) + (terms[1:] - added)).cumsum()
    return tail[::-1][np.searchsorted(edges, x)]
