"""The slot-keyed series kernels, bit for bit against the from_grid construction.

The ``ref_*`` functions are a reference copy of the kernels as they were
before they summed on slot keys: each builds its (j, m, c) term lists and
hands them to ``ref_from_grid``, which checks, encodes and sums them.
``mul_series``, ``antiderivative_to_infinity``, ``+`` and the suffix
integrals of ``regint`` must give the same series, down to the bit pattern
of every coefficient (the sign of a zero included).
"""

import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mevreg import regint as R
from mevreg.eisenstein import TauQSeries, grid_limit

TWO_PI_I = 2j * math.pi
INT64_MAX = int(np.iinfo(np.int64).max)

# ---------------------------------------------------------------------------
# Reference copy of the from_grid-based kernels
# ---------------------------------------------------------------------------


def ref_grid_limit(L, cutoff):
    if cutoff < 0:
        raise ValueError(f"series cutoff must be >= 0, got {cutoff}")
    jmax = math.floor(cutoff * L)
    if jmax > INT64_MAX:
        raise ValueError(
            f"grid index {jmax} (cutoff {cutoff} on the 1/{L} grid) overflows int64"
        )
    return jmax


def ref_from_grid(L, j, m, c, cutoff):
    cutoff = F(cutoff)
    jmax = ref_grid_limit(L, cutoff)
    j = np.asarray(j, dtype=np.int64)
    m = np.asarray(m, dtype=np.int64)
    c = np.asarray(c, dtype=np.complex128)
    keep = j <= jmax
    if not keep.all():
        j, m, c = j[keep], m[keep], c[keep]
    if j.size and (j.min() < 0 or m.min() < 0):
        raise ValueError("negative grid index or tau power")
    stride = int(m.max()) + 1 if m.size else 1
    if (jmax + 1) * stride > INT64_MAX:
        raise ValueError(f"grid keys of the 1/{L} grid overflow int64")
    keys, slot, span = None, j * stride + m, (jmax + 1) * stride
    if span > 4 * c.size + 4096:
        keys, slot = np.unique(slot, return_inverse=True)
        span = keys.size
    total = np.empty(span, dtype=np.complex128)
    total.real = np.bincount(slot, weights=c.real, minlength=span)
    total.imag = np.bincount(slot, weights=c.imag, minlength=span)
    nonzero = np.flatnonzero(total)
    flat = nonzero if keys is None else keys[nonzero]
    return TauQSeries._make(L, flat // stride, flat % stride, total[nonzero], cutoff)


def ref_on_grid(s, L, cutoff):
    ref_grid_limit(L, cutoff)
    n = int(np.searchsorted(s.j, ref_grid_limit(s.L, cutoff), side="right"))
    j = s.j[:n] if L == s.L else s.j[:n] * (L // s.L)
    return j, s.m[:n], s.c[:n]


def ref_cmul(a, b):
    out = np.empty(np.broadcast(a, b).shape, dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def ref_real_divide(c, d):
    out = np.empty(np.broadcast(c, d).shape, dtype=np.complex128)
    out.real = c.real / d
    out.imag = c.imag / d
    return out


def ref_mul_series(a, b):
    cutoff = min(a.cutoff, b.cutoff)
    L = math.lcm(a.L, b.L)
    ja, ma, ca = ref_on_grid(a, L, cutoff)
    jb, mb, cb = ref_on_grid(b, L, cutoff)
    counts = np.searchsorted(jb, ref_grid_limit(L, cutoff) - ja, side="right")
    ia = np.repeat(np.arange(ja.size), counts)
    ib = np.arange(ia.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return ref_from_grid(
        L, ja[ia] + jb[ib], ma[ia] + mb[ib], ref_cmul(ca[ia], cb[ib]), cutoff
    )


def ref_antiderivative(omega):
    j, m, c = omega.j, omega.m, omega.c
    n0 = int(np.searchsorted(j, 0, side="right"))
    jq, mq = j[n0:], m[n0:]
    base = 1.0 / (TWO_PI_I * (jq / omega.L))
    width = int(mq.max(initial=0)) + 1
    coeff = np.empty((jq.size, width), dtype=np.complex128)
    coeff[:, 0] = ref_cmul(c[n0:], base)
    for t in range(1, width):
        coeff[:, t] = ref_cmul(coeff[:, t - 1], -(mq - (t - 1)) * base)
    steps = np.arange(width)
    valid = steps <= mq[:, None]
    return ref_from_grid(
        omega.L,
        np.concatenate([j[:n0], np.broadcast_to(jq[:, None], valid.shape)[valid]]),
        np.concatenate([m[:n0] + 1, (mq[:, None] - steps)[valid]]),
        np.concatenate([ref_real_divide(c[:n0], m[:n0] + 1), coeff[valid]]),
        omega.cutoff,
    )


def ref_add(a, b):
    cutoff = min(a.cutoff, b.cutoff)
    L = math.lcm(a.L, b.L)
    parts = zip(ref_on_grid(a, L, cutoff), ref_on_grid(b, L, cutoff))
    return ref_from_grid(L, *(np.concatenate(p) for p in parts), cutoff)


def ref_suffix_integral(series, cutoff):
    head = series[0]
    if len(series) == 1:
        integrand = ref_from_grid(head.L, *ref_on_grid(head, head.L, cutoff), cutoff)
    else:
        integrand = ref_mul_series(head, ref_suffix_integral(series[1:], cutoff))
    return ref_antiderivative(integrand).scale(-1.0)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

CUTOFFS = (F(4), F(7, 2), F(25, 2), F(12))
# parts whose sums depend on the order of addition (0.1, 1/3, 3e17 against
# 1), cancel exactly (+-1, +-0.5) or are signed zeros; the strategy below
# mixes them with arbitrary floats
PARTS = (0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.1, -1.0 / 3.0, 3.0e17, -3.0e17)


def make_series(L, cutoff, terms):
    """Series of the nonzero terms {(j, m): c}, stored as given (signed zeros kept)."""
    keys = sorted(k for k, c in terms.items() if c != 0)
    return TauQSeries._make(
        L,
        np.array([k[0] for k in keys], dtype=np.int64),
        np.array([k[1] for k in keys], dtype=np.int64),
        np.array([terms[k] for k in keys], dtype=np.complex128),
        F(cutoff),
    )


@st.composite
def series(draw, max_terms=24):
    """Random series: level 2..29, tau powers up to 0..3, a cutoff of CUTOFFS."""
    L = draw(st.integers(2, 29))
    cutoff = draw(st.sampled_from(CUTOFFS))
    jmax = math.floor(cutoff * L)
    # low exponents, where the products of two series collide, are likelier
    j = st.one_of(st.integers(0, min(jmax, 6)), st.integers(0, jmax))
    power = st.integers(0, draw(st.integers(0, 3)))
    part = st.sampled_from(PARTS) | st.floats(-1e3, 1e3, allow_subnormal=False)
    coeff = st.builds(complex, part, part)
    terms = draw(st.dictionaries(st.tuples(j, power), coeff, max_size=max_terms))
    return make_series(L, cutoff, terms)


def assert_same_bits(got, want):
    assert got.L == want.L and got.cutoff == want.cutoff
    assert got.j.dtype == want.j.dtype == np.int64
    assert got.m.dtype == want.m.dtype == np.int64
    assert got.j.tolist() == want.j.tolist()
    assert got.m.tolist() == want.m.tolist()
    assert got.c.view(np.uint64).tolist() == want.c.view(np.uint64).tolist()
    for arr in (got.j, got.m, got.c):
        assert not arr.flags.writeable


EMPTY = make_series(5, 12, {})
# in CANCEL_A * CANCEL_C = (1 + q^(1/6) + ...)(-1 + q^(1/6) + ...) the two
# q^(1/6) pairs cancel exactly; CANCEL_B lies on the 1/4 grid; all three hold
# signed zeros
CANCEL_A = make_series(6, 12, {(0, 0): 1.0, (1, 0): 1.0, (1, 1): complex(1.0, -0.0)})
CANCEL_B = make_series(4, F(25, 2), {(0, 0): 1.0, (0, 2): complex(0.5, -0.0)})
CANCEL_C = make_series(6, 12, {(0, 0): -1.0, (1, 0): 1.0, (1, 1): complex(0.1, 0.0)})
# the q^(2/5) term of ORDER_A * ORDER_B is (3e17 - 3e17) + 1 = 1 summed a-major,
# (1 - 3e17) + 3e17 = 0 summed b-major
ORDER_A = make_series(5, 12, {(0, 0): 3.0e17, (1, 0): -3.0e17, (2, 0): 1.0})
ORDER_B = make_series(5, 12, {(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0})

# ---------------------------------------------------------------------------
# Kernels against the reference
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(series(), series())
@example(EMPTY, CANCEL_A)
@example(CANCEL_A, CANCEL_C)
@example(CANCEL_B, CANCEL_C)
@example(ORDER_A, ORDER_B)
def test_mul_series_matches_from_grid_reference(a, b):
    assert_same_bits(R.mul_series(a, b), ref_mul_series(a, b))


def test_mul_series_cancels_exactly():
    got = R.mul_series(CANCEL_A, CANCEL_C)
    assert_same_bits(got, ref_mul_series(CANCEL_A, CANCEL_C))
    assert (1, 0) not in zip(got.j.tolist(), got.m.tolist())


@settings(max_examples=200, deadline=None)
@given(series())
@example(EMPTY)
@example(CANCEL_B)
def test_antiderivative_matches_from_grid_reference(omega):
    assert_same_bits(R.antiderivative_to_infinity(omega), ref_antiderivative(omega))


@settings(max_examples=100, deadline=None)
@given(series(), series())
@example(EMPTY, EMPTY)
@example(CANCEL_A, CANCEL_C)
def test_add_matches_from_grid_reference(a, b):
    assert_same_bits(a + b, ref_add(a, b))
    assert_same_bits(a + a.scale(-1.0), ref_add(a, a.scale(-1.0)))
    assert len(a + a.scale(-1.0)) == 0


@settings(max_examples=150, deadline=None)
@given(st.lists(series(max_terms=14), min_size=1, max_size=3))
@example([CANCEL_A])
@example([CANCEL_B, CANCEL_A])
@example([EMPTY, CANCEL_C, CANCEL_B])
def test_suffix_integral_matches_from_grid_reference(letters):
    cutoff = min(s.cutoff for s in letters)
    word = tuple(letters)
    got = R._suffix_integral(word, cutoff.numerator, cutoff.denominator)
    assert_same_bits(got, ref_suffix_integral(word, cutoff))


def test_mul_series_wide_span_takes_the_sorted_branch():
    # on the 1/812 grid a cutoff of 12 spans 9745 keys per tau power, more
    # than 4 * 400 + 4096 for at most 20 * 20 pairs: the product sums after
    # np.unique; a * a on the 1/28 grid spans 337 * 3 keys and sums densely
    a = make_series(28, 12, {(j, j % 2): complex(0.1 * j, -0.0) for j in range(0, 300, 15)})
    b = make_series(29, 12, {(j, 0): complex(1.0, 1.0 / (j + 1)) for j in range(0, 200, 10)})
    with mock.patch.object(np, "unique", wraps=np.unique) as spy:
        got = R.mul_series(a, b)
        assert spy.call_count == 1
        dense = R.mul_series(a, a)
        assert spy.call_count == 1
    assert got.L == 812
    assert_same_bits(got, ref_mul_series(a, b))
    assert_same_bits(dense, ref_mul_series(a, a))


# ---------------------------------------------------------------------------
# Integer grid_limit
# ---------------------------------------------------------------------------


@settings(max_examples=500, deadline=None)
@given(
    st.integers(0, 10**40) | st.integers(0, 10**3),
    st.integers(1, 10**40) | st.integers(1, 10**3),
    st.integers(1, 10**12) | st.integers(1, 30),
)
@example(12, 1, 2**62)  # 12 * 2^62 overflows
@example(2**63 - 1, 1, 1)  # the largest index int64 holds
@example(2**63, 1, 1)
@example(25, 2, 29)
def test_grid_limit_is_the_floor_of_cutoff_times_L(num, den, L):
    cutoff = F(num, den)
    want = math.floor(cutoff * L)
    if want > INT64_MAX:
        with pytest.raises(ValueError) as err:
            grid_limit(L, cutoff)
        assert str(err.value) == (
            f"grid index {want} (cutoff {cutoff} on the 1/{L} grid) overflows int64"
        )
    else:
        assert grid_limit(L, cutoff) == want
    if num * L <= INT64_MAX:  # an int cutoff
        assert grid_limit(L, num) == num * L


@pytest.mark.parametrize("cutoff", [F(-3), F(-1, 10**30), -2])
def test_grid_limit_rejects_a_negative_cutoff(cutoff):
    with pytest.raises(ValueError) as err:
        grid_limit(7, cutoff)
    assert str(err.value) == f"series cutoff must be >= 0, got {cutoff}"
    assert "\n" not in str(err.value)
