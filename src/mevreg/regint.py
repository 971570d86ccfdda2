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

The word routines evaluate a set of words in one pass
(``word_integrals_zero_to_infinity``; one word is a set of one).  The suffix
integrals of all the words, with their values at a point, come from one
bounded LRU cache keyed by the suffix's series (hashed by identity) and the
cutoff of the whole word, so shared suffixes are built once.  The missing
ones are built one suffix length at a time in stacked passes: the series
of a pass lie back to back in one set of arrays (a ``_Stack``), and one
Cauchy product, one antiderivative and one evaluation serve them all.
``mul_series``, ``antiderivative_to_infinity`` and ``evaluate_with_bound``
are the one-series case of the same kernels, and every slot adds its terms
in the same order either way, so a value does not depend on the words it
was computed with.

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
from itertools import accumulate
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from mevreg.eisenstein import (
    _INT64_MAX,
    DEFAULT_CUTOFF,
    EisensteinSpec,
    EllipticParam,
    TauQSeries,
    grid_limit,
    key_span,
    series_for,
    sigma_companion,
    sum_slots,
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
    "word_integral_zero_to_infinity_with_bound",
    "word_integrals_zero_to_infinity",
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


# A pass forms at most this many pairs (or terms), unless one series needs
# more: its temporaries then stay near 100 KB.
_CHUNK = 8192
# Room for the tau-power stride when segments share one key range.
_STRIDE_ROOM = 2**20


class _Stack(NamedTuple):
    """Series on the 1/L grid with one cutoff, stored back to back: segment s
    holds the terms bounds[s]:bounds[s + 1] of j, m and c, sorted by (j, m).

    The kernels below work on stacks, so that one numpy pass serves many
    series; the public kernels are their one-segment case.  A segment's
    terms never mix with another's: the slot keys of segment s are offset by
    s times the key span of one series.
    """

    L: int
    cutoff: Fraction
    bounds: np.ndarray
    j: np.ndarray
    m: np.ndarray
    c: np.ndarray

    @property
    def size(self) -> int:
        return self.bounds.size - 1

    def segment_of_terms(self) -> np.ndarray:
        return np.repeat(np.arange(self.size), self.bounds[1:] - self.bounds[:-1])

    def select(self, keep: np.ndarray) -> "_Stack":
        """The terms where ``keep`` holds."""
        if keep.all():
            return self
        bounds = np.searchsorted(self.segment_of_terms()[keep], np.arange(self.size + 1))
        return self._replace(bounds=bounds, j=self.j[keep], m=self.m[keep], c=self.c[keep])

    def series(self) -> list[TauQSeries]:
        b = self.bounds.tolist()
        return [
            TauQSeries._make(self.L, self.j[lo:hi], self.m[lo:hi], self.c[lo:hi], self.cutoff)
            for lo, hi in zip(b, b[1:])
        ]


def _stack_of(series: Sequence[TauQSeries], L: int, cutoff: Fraction) -> _Stack:
    """The terms of ``series`` back to back, as they are stored."""
    if len(series) == 1:
        (f,) = series
        return _Stack(L, cutoff, np.array([0, f.c.size]), f.j, f.m, f.c)
    return _Stack(
        L,
        cutoff,
        np.array([0, *accumulate(f.c.size for f in series)]),
        np.concatenate([f.j for f in series]),
        np.concatenate([f.m for f in series]),
        np.concatenate([f.c for f in series]),
    )


def _on_grid(series: Sequence[TauQSeries], L: int, cutoff: Fraction) -> _Stack:
    """The terms with alpha <= cutoff of each series, moved to the 1/L grid
    (``TauQSeries.on_grid``, stacked); L is a multiple of every grid."""
    st = _stack_of(series, L, cutoff)
    sizes = st.bounds[1:] - st.bounds[:-1]
    keep = st.j <= np.repeat([grid_limit(s.L, cutoff) for s in series], sizes)
    j = st.j * np.repeat([L // s.L for s in series], sizes)
    return st._replace(j=j).select(keep)


def _decode(L: int, cutoff: Fraction, size: int, flat, c, stride: int, span: int) -> _Stack:
    """Stack of ``size`` segments from the terms c at the keys
    s * span + j * stride + m, ascending."""
    seg, local = np.divmod(flat, span)
    j, m = np.divmod(local, stride)
    return _Stack(L, cutoff, np.searchsorted(seg, np.arange(size + 1)), j, m, c)


def _chunks(sizes: list[int]) -> list[tuple[int, int]]:
    """Runs [s0, s1) of consecutive items with at most _CHUNK terms in all;
    a larger item makes a run of its own."""
    runs, s0, total = [], 0, 0
    for s, n in enumerate(sizes):
        if total and total + n > _CHUNK:
            runs.append((s0, s))
            s0, total = s, 0
        total += n
    return runs + [(s0, len(sizes))] if sizes else runs


def _groups(items: list[tuple[int, Fraction]]):
    """Yield (L, cutoff, positions): the positions of ``items`` (grid, cutoff)
    that share both, in runs short enough for their keys to fit int64."""
    groups: dict[tuple[int, Fraction], list[int]] = {}
    for n, key in enumerate(items):
        groups.setdefault(key, []).append(n)
    for (L, cutoff), members in groups.items():
        cap = max(1, _INT64_MAX // (_STRIDE_ROOM * (grid_limit(L, cutoff) + 1)))
        for lo in range(0, len(members), cap):
            yield L, cutoff, members[lo : lo + cap]


def _products(pairs: Sequence[tuple[TauQSeries, TauQSeries]], L: int, cutoff: Fraction):
    """Yield (s0, s1, stack of a * b over pairs[s0:s1]) for the pairs (a, b),
    all on the 1/L grid at the given cutoff (``mul_series``, stacked).

    A run of segments spans at most _CHUNK slots, or one segment, and its
    pairs are formed in pieces of at most _CHUNK pairs, or one a term.
    Within a segment the pairs are formed a-major, as in one product, and
    the pieces add to the slot sums in turn, so each slot adds its terms in
    the same order.
    """
    jmax = grid_limit(L, cutoff)
    A = _on_grid([a for a, _ in pairs], L, cutoff)
    B = _on_grid([b for _, b in pairs], L, cutoff)
    stride = int(A.m.max(initial=0)) + int(B.m.max(initial=0)) + 1
    span = key_span(L, jmax, stride, len(pairs))
    sa, sb = A.segment_of_terms(), B.segment_of_terms()
    # b is sorted by j in each segment, so the pairs of an a term are a
    # prefix of its segment's b terms
    counts = np.searchsorted(sb * span + B.j, sa * span + (jmax - A.j), side="right")
    counts -= B.bounds[sa]
    ends = np.concatenate([[0], np.cumsum(counts)])
    # the p-th pair (counted over all a terms) of a term i is (i, p + shift[i])
    shift = B.bounds[sa] - ends[:-1]
    akey = sa * span + A.j * stride + A.m
    bkey = B.j * stride + B.m

    def pieces(a0, a1, offset):
        cuts = [a0]
        while cuts[-1] < a1 or len(cuts) == 1:
            i = cuts[-1]
            k = int(np.searchsorted(ends, ends[i] + _CHUNK, side="right")) - 1
            cuts.append(min(a1, max(i + 1, k)))
        for i, k in zip(cuts, cuts[1:]):
            n = counts[i:k]
            ib = np.arange(ends[i], ends[k]) + np.repeat(shift[i:k], n)
            slot = np.repeat(akey[i:k] - offset, n)
            slot += bkey[ib]
            ar, ai = np.repeat(A.c.real[i:k], n), np.repeat(A.c.imag[i:k], n)
            br, bi = B.c.real[ib], B.c.imag[ib]
            # the parts of the products, rounded part by part
            re = ar * br
            re -= ai * bi
            im = ar * bi
            im += ai * br
            yield slot, re, im

    per_run = max(1, _CHUNK // span)
    for s0 in range(0, len(pairs), per_run):
        s1 = min(s0 + per_run, len(pairs))
        a0, a1 = A.bounds[s0], A.bounds[s1]
        size = s1 - s0
        flat, c = sum_slots(pieces(a0, a1, s0 * span), size * span, ends[a1] - ends[a0])
        yield s0, s1, _decode(L, cutoff, size, flat, c, stride, span)


def mul_series(a: TauQSeries, b: TauQSeries) -> TauQSeries:
    """Cauchy product on the (alpha, m) bigrading; cutoff = min of the two.

    Both factors move to the common grid lcm(La, Lb).  Only the pairs with
    j_a + j_b <= cutoff * L are formed: b is sorted by j, so for each term
    of a they are a prefix of b.  A pair's slot key j * stride + m is the sum
    of its two terms' keys, so each factor is gathered once for keys and once
    for coefficients; equal keys are summed a-major.
    """
    ((_, _, product),) = _products([(a, b)], math.lcm(a.L, b.L), min(a.cutoff, b.cutoff))
    return product.series()[0]


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


def _antiderivatives(st: _Stack) -> _Stack:
    """The primitive of every segment (``antiderivative_to_infinity``)."""
    j, m, c = st.j, st.m, st.c
    seg = st.segment_of_terms()
    flat = j == 0  # the alpha = 0 terms lead each segment
    rows = ~flat
    jq, mq = j[rows], m[rows]
    base = 1.0 / (TWO_PI_I * (jq / st.L))
    # row r, column t: the parts of the coefficient of tau^{m_r - t} q^{alpha_r},
    # t = 0..m_r, each product rounded part by part
    width = int(mq.max(initial=0)) + 1
    re, im = np.empty((jq.size, width)), np.empty((jq.size, width))
    xr, xi, w = c.real[rows], c.imag[rows], base
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
    span = key_span(st.L, grid_limit(st.L, st.cutoff), stride, st.size)
    lead = m[flat] + 1
    slot = np.concatenate(
        [seg[flat] * span + lead, ((seg[rows] * span + jq * stride + mq)[:, None] - steps)[valid]]
    )
    re = np.concatenate([c.real[flat] / lead, re[valid]])
    im = np.concatenate([c.imag[flat] / lead, im[valid]])
    flat, total = sum_slots([(slot, re, im)], st.size * span, slot.size)
    return _decode(st.L, st.cutoff, st.size, flat, total, stride, span)


def antiderivative_to_infinity(omega: TauQSeries) -> TauQSeries:
    """Primitive F of omega d(tau) with regularised value 0 at infinity.

    alpha > 0: tau^m q^alpha integrates by parts into
    q^alpha * sum_{j<=m} (-1)^j m!/(m-j)! tau^{m-j} / (2 pi i alpha)^{j+1};
    alpha = 0: plain monomial integration with zero constant.
    """
    return _antiderivatives(_stack_of([omega], omega.L, omega.cutoff)).series()[0]


def _evaluate(st: _Stack, y: float) -> list[tuple[complex, float]]:
    """``evaluate_with_bound`` of every segment at iy, in one pass: the
    weights of all terms at once, then one pairwise ``np.sum`` per segment."""
    if y < MIN_EVAL_Y - 1e-12:
        raise ValueError(f"evaluation point y = {y} below the safe threshold 0.5")
    alpha = st.j / st.L
    weights = _I_POWERS[st.m % 4] * y ** st.m * np.exp(-2.0 * math.pi * alpha * y)
    terms = st.c * weights
    # the boundary shell of a segment: its terms with alpha within 1 of the
    # cutoff, a tail of the segment since j is sorted
    cut = float(st.cutoff)
    shell = alpha > cut - 1.0
    seg = st.segment_of_terms()[shell]
    count = np.bincount(seg, minlength=st.size).tolist()
    biggest, mmax = np.zeros(st.size), np.zeros(st.size, dtype=np.int64)
    np.maximum.at(biggest, seg, np.abs(st.c[shell]))
    np.maximum.at(mmax, seg, st.m[shell])
    tail = math.exp(-2.0 * math.pi * cut * y)
    b = st.bounds.tolist()
    out = []
    for lo, hi, n, big, mm in zip(b, b[1:], count, biggest.tolist(), mmax.tolist()):
        bound = (n + 1) * (big if n else 1.0) * tail
        bound *= max(1.0, y) ** mm
        out.append((complex(np.sum(terms[lo:hi])), bound))
    return out


def _evaluate_all(series: Sequence[TauQSeries], y: float) -> list[tuple[complex, float]]:
    """``evaluate_with_bound`` of each series at iy, stacked by grid and cutoff."""
    out: list = [None] * len(series)
    for L, cutoff, members in _groups([(f.L, f.cutoff) for f in series]):
        for s0, s1 in _chunks([len(series[n]) for n in members]):
            run = members[s0:s1]
            for n, result in zip(run, _evaluate(_stack_of([series[n] for n in run], L, cutoff), y)):
                out[n] = result
    return out


def evaluate_at(f: TauQSeries, y: float) -> complex:
    """Value sum c_{alpha,m} (iy)^m e^{-2 pi alpha y}; requires y >= 1/2."""
    return evaluate_with_bound(f, y)[0]


def evaluate_with_bound(f: TauQSeries, y: float) -> tuple[complex, float]:
    """Value plus a crude truncation-tail bound from the boundary shell.

    The bound is (#terms with alpha within 1 of the cutoff, plus one) times
    the largest such coefficient magnitude times e^{-2 pi cutoff y} times
    the largest tau-power weight.
    """
    return _evaluate(_stack_of([f], f.L, f.cutoff), y)[0]


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


class _Suffix:
    """A cached suffix integral: its series and its (value, bound) at each
    evaluation point iy, both filled in by ``_suffix_entries``."""

    __slots__ = ("series", "values")

    def __init__(self) -> None:
        self.series: TauQSeries | None = None
        self.values: dict[float, tuple[complex, float]] = {}


@lru_cache(maxsize=1024)
def _suffix_entry(series: tuple[TauQSeries, ...], num: int, den: int) -> _Suffix:
    """The one cache of suffix integrals: the entry of the suffix with
    coefficient series ``series`` in a word of cutoff num/den.

    A new entry is empty until ``_suffix_entries`` builds it.  The series are
    keyed by identity; the cutoff is keyed as two integers, because a
    Fraction recomputes its hash on every lookup.
    """
    return _Suffix()


def _cut(head: TauQSeries, cutoff: Fraction) -> TauQSeries:
    """A last letter, cut to the cutoff of its word before it is integrated."""
    if head.cutoff == cutoff:
        return head
    return TauQSeries.from_grid(head.L, *head.on_grid(head.L, cutoff), cutoff)


def _suffix_entries(keys) -> dict:
    """The built cache entries of the suffixes ``keys`` (series, num, den).

    I_n = -antiderivative(f_n), I_k = -antiderivative(f_k I_{k+1}): the
    entries missing from the cache, and the inner suffixes they need, are
    built one suffix length at a time, shortest first.  Each length makes
    one stacked pass per grid, cutoff and chunk: the Cauchy products of the
    head letters with their inner suffixes, their primitives, and the -1.
    """
    entries: dict = {}
    missing: dict[int, list] = {}
    todo = list(keys)
    while todo:
        key = todo.pop()
        if key in entries:
            continue
        entry = entries[key] = _suffix_entry(*key)
        if entry.series is None:
            missing.setdefault(len(key[0]), []).append(key)
            if len(key[0]) > 1:
                todo.append((key[0][1:], *key[1:]))
    for length in sorted(missing):
        batch = missing[length]
        if length == 1:
            integrands = [_cut(key[0][0], Fraction(*key[1:])) for key in batch]
            groups = _groups([(f.L, f.cutoff) for f in integrands])
            stacks = [
                (members[s0:s1], _stack_of([integrands[n] for n in members[s0:s1]], L, cutoff))
                for L, cutoff, members in groups
                for s0, s1 in _chunks([len(integrands[n]) for n in members])
            ]
        else:
            pairs = [(key[0][0], entries[key[0][1:], *key[1:]].series) for key in batch]
            groups = _groups([(math.lcm(a.L, b.L), min(a.cutoff, b.cutoff)) for a, b in pairs])
            stacks = [
                (members[s0:s1], product)
                for L, cutoff, members in groups
                for s0, s1, product in _products([pairs[n] for n in members], L, cutoff)
            ]
        for members, st in stacks:
            st = _antiderivatives(st)
            # scale(-1.0) of each segment
            c = -1.0 * st.c
            for n, series in zip(members, st._replace(c=c).select(c != 0).series()):
                entries[batch[n]].series = series
    return entries


def _suffix_integral(series: tuple[TauQSeries, ...], num: int, den: int) -> TauQSeries:
    """Series of int_tau^oo over the suffix with coefficient series ``series``.

    The cutoff num/den is that of the whole word; a last letter may carry a
    larger one and is cut to it before it is integrated.
    """
    key = (series, num, den)
    return _suffix_entries([key])[key].series


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


def word_integrals_zero_to_infinity(words, tau0_y: float = 1.0) -> list[tuple[complex, float]]:
    """Value and truncation bound of int_0^oo of each word, in one pass.

    The suffix integrals of all the words are read from the cache or built
    together (``_suffix_entries``) and evaluated together, the inf side at
    i*tau0_y and the zero side at i/tau0_y.  Each word then combines its
    factors z_k, w_k as ``word_integral_zero_to_infinity`` describes, with
    the bound sum_k |z_k| b(w_k) + |w_k| b(z_k) over their shell bounds b.
    """
    y_zero = 1.0 / tau0_y
    plans = []
    for word in words:
        letters = _letters_of(word)
        n = len(letters)
        cutoff = min(l.inf_side.cutoff for l in letters)
        num, den = cutoff.numerator, cutoff.denominator
        inf_side = tuple(l.inf_side for l in letters)
        zero_side = tuple(l.zero_side for l in reversed(letters))
        plans.append(
            (
                [(inf_side[k:], num, den) for k in range(n)],
                [(zero_side[n - k :], num, den) for k in range(1, n + 1)],
            )
        )
    entries = _suffix_entries([key for plan in plans for keys in plan for key in keys])
    todo: dict[float, dict] = {}
    for plan in plans:
        for y, keys in zip((tau0_y, y_zero), plan):
            for key in keys:
                entry = entries[key]
                if y not in entry.values:
                    todo.setdefault(y, {})[id(entry)] = entry
    for y, pending in todo.items():
        results = _evaluate_all([entry.series for entry in pending.values()], y)
        for entry, result in zip(pending.values(), results):
            entry.values[y] = result
    out = []
    for inf_keys, zero_keys in plans:
        n = len(inf_keys)
        total, bound = 0.0 + 0.0j, 0.0
        for k in range(n + 1):
            z, bz, w, bw = 1.0 + 0.0j, 0.0, 1.0 + 0.0j, 0.0
            if k:
                z, bz = entries[zero_keys[k - 1]].values[y_zero]
                z *= (-1.0) ** k
            if k < n:
                w, bw = entries[inf_keys[k]].values[tau0_y]
            total += z * w
            bound += abs(z) * bw + abs(w) * bz
        out.append((total, bound))
    return out


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
    """Value of int_0^oo plus a truncation bound from the boundary shells
    (``word_integrals_zero_to_infinity`` of one word)."""
    return word_integrals_zero_to_infinity([word], tau0_y)[0]


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
