"""Regularised iterated integrals along the imaginary axis.

A differential form on ]0, i*oo[ is carried as ``f(tau) d(tau)`` with ``f``
a :class:`TauQSeries`.  An :class:`AdmissibleForm` stores two expansions of
the same form:

* ``inf_side``  -- the series of f, valid near i*oo;
* ``zero_side`` -- the series of the sigma-pullback coefficient
  g(tau) = f(-1/tau) * tau^{-2}, valid near i*oo again (and therefore
  describing f near 0).

Both sides are plain series with nonnegative tau-powers; this holds for all
the modular letters used here.  A form is exactly its two series: it
carries no name, and the one letter name ever printed (the ``word`` field
of ``mevreg mev``) is spelled by ``cli``.

``product_form`` is the one constructor of the two-sided forms of
Eisenstein products (the E-letters here, the G/H forms of ``mellin``); the
sigma data it applies come from ``eisenstein.sigma_companion``, the only
sigma table.  The two expansions of one form satisfy g(i) = -f(i), which
the tests use as a consistency probe of that table.

Regularisation conventions (right-nested):

* ``antiderivative_to_infinity(f)`` returns the unique primitive F of
  f d(tau) whose regularised value at infinity (the constant term of its
  polynomial part) is zero; F(tau) = -int_tau^oo f d(tau).
* ``word_integral_to_infinity([w1..wn])`` returns the series of
  int_tau^oo w1...wn  =  int_tau^oo w1(t1) int_{t1}^oo w2(t2) ... .
* ``word_integral_zero_to_infinity`` splits at the sigma-fixed base point
  tau0 = i (q(i) ~ 1.87e-3) into
  sum_k [int_0^{tau0} w1..wk] * [int_{tau0}^oo w_{k+1}..wn], with the
  0-side factor computed through path reversal:
  int_0^tau w1..wk = (-1)^k int_{-1/tau}^oo wk^sigma ... w1^sigma.
  Independence of the base point is a test, not an assumption.

Both word routines read the suffix integrals of a word, and their values
at a point, from bounded LRU caches keyed by the suffix's series (hashed by
identity) and the cutoff of the whole word: shared suffixes are built once.

Real/imaginary channels: with conj_axis(f)(iy) = conj(f(iy)), the real and
imaginary parts of a form f d(tau) restricted to the axis are again forms
g d(tau) with g = (f - conj_axis f)/2 and g = -i (f + conj_axis f)/2
respectively.  Channels commute with the sigma-pullback because sigma maps
the imaginary axis to itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from fractions import Fraction
from typing import Sequence

import numpy as np

from mevreg.eisenstein import (
    DEFAULT_CUTOFF,
    EisensteinSpec,
    EllipticParam,
    TauQSeries,
    grid_limit,
    series_for,
    sigma_companion,
)

__all__ = [
    "AdmissibleForm",
    "MAX_WORD_LENGTH",
    "antiderivative_to_infinity",
    "channel_series",
    "conj_axis",
    "evaluate_at",
    "evaluate_with_bound",
    "merged_product_letter",
    "modular_letter",
    "mul_series",
    "one_series",
    "product_form",
    "shuffle_expand",
    "siegel_letter",
    "word_integral_to_infinity",
    "word_integral_zero_to_infinity",
]

TWO_PI_I = 2j * math.pi

MAX_WORD_LENGTH = 4

MIN_EVAL_Y = 0.5


# ---------------------------------------------------------------------------
# Series operations
# ---------------------------------------------------------------------------

# i^m for m mod 4
_I_POWERS = np.array([1.0, 1.0j, -1.0, -1.0j])

# The kernels form complex products part by part, (ar br - ai bi, ar bi + ai br),
# rounded like Python's complex product: numpy's complex multiply may fuse
# multiply-adds, which moves last bits and can turn an exact cancellation
# into a 1e-17 residue.


def one_series(cutoff: Fraction = DEFAULT_CUTOFF) -> TauQSeries:
    return TauQSeries.from_grid(1, [0], [0], [1.0 + 0.0j], cutoff)


def mul_series(a: TauQSeries, b: TauQSeries) -> TauQSeries:
    """Cauchy product on the (alpha, m) bigrading; cutoff = min of the two.

    Both factors move to the common grid lcm(La, Lb).  Only the pairs with
    j_a + j_b <= cutoff * L are formed: b is sorted by j, so for each term
    of a they are a prefix of b.  A pair's slot key j * stride + m is the sum
    of its two terms' keys, so each factor is gathered once for keys and once
    for coefficients; equal keys are summed a-major.
    """
    cutoff = min(a.cutoff, b.cutoff)
    L = math.lcm(a.L, b.L)
    jmax = grid_limit(L, cutoff)
    ja, ma, ca = a.on_grid(L, cutoff)
    jb, mb, cb = b.on_grid(L, cutoff)
    counts = np.searchsorted(jb, jmax - ja, side="right")
    # pair p = (a term, b term ib[p]); the a terms repeat in order
    ib = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    stride = int(ma.max(initial=0)) + int(mb.max(initial=0)) + 1
    slot = np.repeat(ja * stride + ma, counts)
    slot += (jb * stride + mb)[ib]
    ar, ai = np.repeat(ca.real, counts), np.repeat(ca.imag, counts)
    gb = cb[ib]
    # the parts of the products, rounded part by part
    re = ar * gb.real
    re -= ai * gb.imag
    im = ar * gb.imag
    im += ai * gb.real
    return TauQSeries._from_slots(L, slot, re, im, stride, jmax, cutoff)


def conj_axis(a: TauQSeries) -> TauQSeries:
    """Series of tau -> conj(f(tau)) on the imaginary axis: c -> (-1)^m conj(c)."""
    c = np.conj(a.c)
    odd = a.m % 2 == 1
    c[odd] = -c[odd]
    return TauQSeries.from_grid(a.L, a.j, a.m, c, a.cutoff)


def channel_series(f: TauQSeries, channel: str) -> TauQSeries:
    """Coefficient series of the real/imaginary part of the form f d(tau)."""
    if channel == "holomorphic":
        return f
    fc = conj_axis(f)
    if channel == "plus":
        return (f - fc).scale(0.5)
    if channel == "minus":
        return (f + fc).scale(-0.5j)
    raise ValueError(f"unknown channel {channel!r}")


def antiderivative_to_infinity(omega: TauQSeries) -> TauQSeries:
    """Primitive F of omega d(tau) with regularised value 0 at infinity.

    alpha > 0: tau^m q^alpha integrates by parts into
    q^alpha * sum_{j<=m} (-1)^j m!/(m-j)! tau^{m-j} / (2 pi i alpha)^{j+1};
    alpha = 0: plain monomial integration with zero constant.
    """
    j, m, c = omega.j, omega.m, omega.c
    n0 = int(np.searchsorted(j, 0, side="right"))  # the alpha = 0 terms lead
    jq, mq = j[n0:], m[n0:]
    base = 1.0 / (TWO_PI_I * (jq / omega.L))
    # row r, column t: the parts of the coefficient of tau^{m_r - t} q^{alpha_r},
    # t = 0..m_r, each product rounded part by part
    width = int(mq.max(initial=0)) + 1
    re, im = np.empty((jq.size, width)), np.empty((jq.size, width))
    xr, xi, w = c.real[n0:], c.imag[n0:], base
    for t in range(width):
        if t:
            xr, xi, w = re[:, t - 1], im[:, t - 1], -(mq - (t - 1)) * base
        re[:, t] = xr * w.real - xi * w.imag
        im[:, t] = xr * w.imag + xi * w.real
    steps = np.arange(width)
    valid = steps <= mq[:, None]
    # tau^{m_r - t} q^{alpha_r} sits at slot (j_r * stride + m_r) - t; the
    # alpha = 0 terms move up one tau power
    stride = int(m.max(initial=0)) + 2
    lead = m[:n0] + 1
    return TauQSeries._from_slots(
        omega.L,
        np.concatenate([lead, ((jq * stride + mq)[:, None] - steps)[valid]]),
        np.concatenate([c.real[:n0] / lead, re[valid]]),
        np.concatenate([c.imag[:n0] / lead, im[valid]]),
        stride,
        grid_limit(omega.L, omega.cutoff),
        omega.cutoff,
    )


def evaluate_at(f: TauQSeries, y: float) -> complex:
    """Value sum c_{alpha,m} (iy)^m e^{-2 pi alpha y}; requires y >= 1/2."""
    if y < MIN_EVAL_Y - 1e-12:
        raise ValueError(f"evaluation point y = {y} below the safe threshold 0.5")
    alpha = f.j / f.L
    weights = _I_POWERS[f.m % 4] * y ** f.m * np.exp(-2.0 * math.pi * alpha * y)
    return complex(np.sum(f.c * weights))


def evaluate_with_bound(f: TauQSeries, y: float) -> tuple[complex, float]:
    """Value plus a crude truncation-tail bound from the boundary shell.

    The bound is (#terms with alpha within 1 of the cutoff, plus one) times
    the largest such coefficient magnitude times e^{-2 pi cutoff y} times
    the largest tau-power weight.
    """
    value = evaluate_at(f, y)
    cut = float(f.cutoff)
    start = int(np.searchsorted(f.j / f.L, cut - 1.0, side="right"))  # j is sorted
    shell = f.c[start:]
    biggest = float(np.abs(shell).max()) if shell.size else 1.0
    mmax = int(f.m[start:].max(initial=0))
    bound = (shell.size + 1) * biggest * math.exp(-2.0 * math.pi * cut * y)
    bound *= max(1.0, y) ** mmax
    return value, bound


# ---------------------------------------------------------------------------
# Admissible forms and words
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibleForm:
    """A form f(tau) d(tau) with expansions on both sides of the axis."""

    inf_side: TauQSeries
    zero_side: TauQSeries

    def sigma_pullback(self) -> "AdmissibleForm":
        """The pulled-back form; sigma is an involution on forms."""
        return AdmissibleForm(self.zero_side, self.inf_side)

    def scale(self, c: complex) -> "AdmissibleForm":
        return AdmissibleForm(self.inf_side.scale(c), self.zero_side.scale(c))

    def __add__(self, other: "AdmissibleForm") -> "AdmissibleForm":
        return AdmissibleForm(
            self.inf_side + other.inf_side, self.zero_side + other.zero_side
        )

    def __sub__(self, other: "AdmissibleForm") -> "AdmissibleForm":
        return self + other.scale(-1.0)


def _letters_of(word) -> tuple[AdmissibleForm, ...]:
    letters = tuple(word)
    if not letters or len(letters) > MAX_WORD_LENGTH:
        raise ValueError(f"word length must be between 1 and {MAX_WORD_LENGTH}")
    return letters


# ---------------------------------------------------------------------------
# Letter constructors
# ---------------------------------------------------------------------------


def product_form(
    specs: Sequence[EisensteinSpec],
    cutoff: Fraction = DEFAULT_CUTOFF,
    tau_power: int = 0,
) -> AdmissibleForm:
    """Form (prod_i f_i)(tau) tau^{m'} d(tau) from the series f_i of ``specs``.

    With f_i(-1/tau) = s_i tau^{k_i} f'_i(tau) from ``sigma_companion`` and
    K = sum k_i, the pullback coefficient is
    (-1)^{m'} (prod_i s_i) tau^{K - m' - 2} (prod_i f'_i)(tau);
    0 <= m' <= K - 2 is exactly admissibility at oo and at 0.
    """
    total_k = sum(spec.weight for spec in specs)
    if not 0 <= tau_power <= total_k - 2:
        raise ValueError(
            f"tau power {tau_power} is not admissible at total weight {total_k}: "
            f"need 0 <= m' <= {total_k - 2}"
        )
    companions = [sigma_companion(spec) for spec in specs]
    inf = reduce(mul_series, [series_for(spec, cutoff) for spec in specs])
    zero = reduce(mul_series, [series_for(comp, cutoff) for comp, _ in companions])
    sign = (-1) ** tau_power * math.prod(s for _, s in companions)
    return AdmissibleForm(
        inf.shift_tau(tau_power), zero.shift_tau(total_k - tau_power - 2).scale(sign)
    )


@lru_cache(maxsize=2048)
def modular_letter(
    k: int,
    x: EllipticParam,
    m: int = 1,
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> AdmissibleForm:
    """Letter E^(k)_x(tau) tau^{m-1} d(tau), admissible for 1 <= m <= k-1."""
    return product_form((EisensteinSpec("E", k, x),), cutoff, m - 1)


@lru_cache(maxsize=2048)
def siegel_letter(
    x: EllipticParam,
    channel: str = "holomorphic",
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> AdmissibleForm:
    """dlog g_x = 2 pi i E^(2)_x d(tau), or its plus/minus channel.

    plus = dlog|g_x|, minus = darg g_x; both pull back channel-wise since
    sigma preserves the axis and dlog g_x pulls back to dlog g_{x sigma}.
    """
    if x.is_zero:
        raise ValueError("Siegel-unit letters need a nonzero parameter")
    # channel_series is conjugate-linear, so the 2 pi i goes in first
    form = product_form((EisensteinSpec("E", 2, x),), cutoff).scale(TWO_PI_I)
    return AdmissibleForm(
        channel_series(form.inf_side, channel), channel_series(form.zero_side, channel)
    )


def merged_product_letter(
    factors: Sequence[tuple[int, EllipticParam]],
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> AdmissibleForm:
    """Letter (prod_i E^(k_i)_{x_i})(tau) d(tau) for merged-product words."""
    return product_form([EisensteinSpec("E", k, x) for k, x in factors], cutoff)


# ---------------------------------------------------------------------------
# Word integrals
# ---------------------------------------------------------------------------


def word_integral_to_infinity(word) -> TauQSeries:
    """Series of int_tau^oo w1...wn (the right-nested regularised integral).

    Right fold: I_n = -antiderivative(f_n), I_k = -antiderivative(f_k I_{k+1});
    its derivative is -f_1(tau) * (inner word) and its regularised value at
    infinity is zero.
    """
    letters = _letters_of(word)
    cutoff = min(l.inf_side.cutoff for l in letters)
    return _suffix_integral(
        tuple(l.inf_side for l in letters), cutoff.numerator, cutoff.denominator
    )


@lru_cache(maxsize=1024)
def _suffix_integral(series: tuple[TauQSeries, ...], num: int, den: int) -> TauQSeries:
    """Series of int_tau^oo over the suffix with coefficient series ``series``.

    The cutoff num/den is that of the whole word; a last letter may carry a
    larger one and is cut to it before it is integrated.  The cache keys on
    the two integers: a Fraction recomputes its hash on every lookup.
    """
    cutoff = Fraction(num, den)
    head = series[0]
    if len(series) > 1:
        integrand = mul_series(head, _suffix_integral(series[1:], num, den))
    elif head.cutoff == cutoff:
        integrand = head
    else:
        integrand = TauQSeries.from_grid(head.L, *head.on_grid(head.L, cutoff), cutoff)
    return antiderivative_to_infinity(integrand).scale(-1.0)


@lru_cache(maxsize=1024)
def _suffix_value(series: tuple, num: int, den: int, y: float) -> tuple[complex, float]:
    """evaluate_with_bound of the suffix integral at iy, cutoff num/den."""
    return evaluate_with_bound(_suffix_integral(series, num, den), y)


def word_integral_zero_to_infinity(word, tau0_y: float = 1.0) -> complex:
    """Regularised int_0^oo w1...wn, split at tau0 = i*tau0_y.

    Evaluates  sum_{k=0}^n [int_0^{tau0} w1..wk] [int_{tau0}^oo w_{k+1}..wn]
    with the 0-side factors through path reversal and sigma-pullback:
    int_0^{tau0} w1..wk = (-1)^k [int_tau^oo wk^s..w1^s](-1/tau0).
    """
    return word_integral_zero_to_infinity_with_bound(word, tau0_y)[0]


def word_integral_zero_to_infinity_with_bound(
    word, tau0_y: float = 1.0
) -> tuple[complex, float]:
    """Value of int_0^oo plus a truncation bound from the boundary shells."""
    letters = _letters_of(word)
    n = len(letters)
    cutoff = min(l.inf_side.cutoff for l in letters)
    num, den = cutoff.numerator, cutoff.denominator
    inf_side = tuple(l.inf_side for l in letters)
    zero_side = tuple(l.zero_side for l in reversed(letters))
    total, bound = 0.0 + 0.0j, 0.0
    for k in range(n + 1):
        z, bz, w, bw = 1.0 + 0.0j, 0.0, 1.0 + 0.0j, 0.0
        if k:
            z, bz = _suffix_value(zero_side[n - k :], num, den, 1.0 / tau0_y)
            z *= (-1.0) ** k
        if k < n:
            w, bw = _suffix_value(inf_side[k:], num, den, tau0_y)
        total += z * w
        bound += abs(z) * bw + abs(w) * bz
    return total, bound


# ---------------------------------------------------------------------------
# Shuffle product
# ---------------------------------------------------------------------------


def shuffle_expand(word_a, word_b) -> list[tuple]:
    """All interleavings of the two words preserving both internal orders.

    The count is binomial(|a| + |b|, |a|); equal letters yield repeated
    entries (a multiset).
    """
    a = tuple(_letters_of(word_a))
    b = tuple(_letters_of(word_b))
    if len(a) + len(b) > MAX_WORD_LENGTH:
        raise ValueError(
            f"shuffles of combined length {len(a) + len(b)} exceed the cap"
        )

    def rec(u: tuple, v: tuple) -> list[tuple]:
        if not u:
            return [v]
        if not v:
            return [u]
        return [(u[0],) + w for w in rec(u[1:], v)] + [
            (v[0],) + w for w in rec(u, v[1:])
        ]

    return rec(a, b)
