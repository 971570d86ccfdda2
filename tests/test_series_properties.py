"""Property tests of the grid series kernels against plain dict references.

The references below are the straightforward dict-of-Fraction algorithms:
a double loop over the (alpha, m) -> coefficient maps.  The float G series
is also checked, each coefficient to 1e-13 relative, against the
exact-rational coefficients of the same generator, which the ``bg``
identity checks use.  The kernels run in
numpy on the integer grid, so agreement is required to 1e-13 relative to the largest
coefficient, with identical key sets once exact zeros are removed; a value
at a point must agree to 1e-13 relative to the sum of its term magnitudes.
"""

import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from mevreg.eisenstein import EisensteinSpec, EllipticParam, TauQSeries, g_series, series_for
from mevreg.identities import _g_exact
from mevreg import regint as R

from oracles import series_from_terms, terms_of

TWO_PI_I = 2j * math.pi
REL_TOL = 1e-13

# ---------------------------------------------------------------------------
# dict references
# ---------------------------------------------------------------------------


def ref_mul(a: dict, b: dict, cutoff: F) -> dict:
    out = {}
    for (aa, ma), ca in a.items():
        for (ab, mb), cb in b.items():
            alpha = aa + ab
            if alpha > cutoff:
                continue
            key = (alpha, ma + mb)
            out[key] = out.get(key, 0.0) + ca * cb
    return {k: c for k, c in out.items() if c != 0}


def ref_antiderivative(terms: dict) -> dict:
    out = {}
    for (alpha, m), c in terms.items():
        if alpha == 0:
            key = (alpha, m + 1)
            out[key] = out.get(key, 0.0) + c / (m + 1)
            continue
        base = 1.0 / (TWO_PI_I * float(alpha))
        coeff = c * base
        for j in range(m + 1):
            key = (alpha, m - j)
            out[key] = out.get(key, 0.0) + coeff
            if j < m:
                coeff *= -(m - j) * base
    return {k: c for k, c in out.items() if c != 0}


def ref_evaluate(terms: dict, y: float) -> tuple[complex, float]:
    """Value and the sum of the term magnitudes (the scale of rounding errors)."""
    total, magnitude = 0.0 + 0.0j, 0.0
    for (alpha, m), c in terms.items():
        term = c * (1j * y) ** m * math.exp(-2.0 * math.pi * float(alpha) * y)
        total += term
        magnitude += abs(term)
    return total, magnitude


def assert_matches(series: TauQSeries, ref: dict) -> None:
    got = terms_of(series)
    assert set(got) == set(ref)
    scale = max((abs(c) for c in ref.values()), default=0.0)
    for key, c in ref.items():
        assert abs(got[key] - c) <= REL_TOL * scale, key


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

levels = st.integers(2, 17)
fd_shifts = st.integers(-2, 2).map(lambda k: F(k, 4096))


@st.composite
def eisenstein_series(draw):
    """A generated E, G or H series at a random level, coordinates shifted by k/4096.

    Both coordinates stay interior, so no exponent comes near 0 and the
    series stay small enough for the Fraction references.
    """
    n = draw(levels)
    x = EllipticParam(
        F(draw(st.integers(1, n - 1)), n) + draw(fd_shifts),
        F(draw(st.integers(1, n - 1)), n) + draw(fd_shifts),
    )
    spec = EisensteinSpec(draw(st.sampled_from(["E", "G", "H"])), draw(st.integers(1, 3)), x)
    cutoff = draw(st.sampled_from([F(3), F(7, 2), F(4)]))
    return series_for(spec, cutoff).shift_tau(draw(st.integers(0, 2)))


@st.composite
def random_series(draw):
    """Random complex coefficients on the 1/N grid with tau-powers 0..3."""
    n, cutoff = draw(levels), draw(st.sampled_from([F(4), F(7, 2), F(25, 2)]))
    jmax = math.floor(cutoff * n)
    coeffs = st.floats(-1.0, 1.0, allow_nan=False)
    keys = st.tuples(st.integers(0, jmax), st.integers(0, 3))
    terms = draw(st.dictionaries(keys, st.tuples(coeffs, coeffs), max_size=40))
    return series_from_terms(
        {(F(j, n), m): complex(re, im) for (j, m), (re, im) in terms.items()}, cutoff
    )


any_series = st.one_of(eisenstein_series(), random_series())


@st.composite
def g_family_inputs(draw):
    """(k, x, cutoff) with x on the 1/N grid, zero coordinates included."""
    n = draw(levels)
    x = EllipticParam(F(draw(st.integers(0, n - 1)), n), F(draw(st.integers(0, n - 1)), n))
    return draw(st.integers(1, 4)), x, draw(st.sampled_from([F(4), F(25, 2)]))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(any_series, any_series)
def test_mul_series_matches_dict_product(a, b):
    prod = R.mul_series(a, b)
    assert prod.cutoff == min(a.cutoff, b.cutoff)
    assert prod.L == math.lcm(a.L, b.L)
    assert_matches(prod, ref_mul(terms_of(a), terms_of(b), prod.cutoff))


@settings(max_examples=60, deadline=None)
@given(any_series)
def test_antiderivative_matches_dict_reference(f):
    assert_matches(R.antiderivative_to_infinity(f), ref_antiderivative(terms_of(f)))


@settings(max_examples=60, deadline=None)
@given(any_series, st.floats(0.5, 2.5))
def test_evaluate_at_matches_dict_reference(f, y):
    want, magnitude = ref_evaluate(terms_of(f), y)
    assert abs(R.evaluate_at(f, y) - want) <= REL_TOL * magnitude


@settings(max_examples=40, deadline=None)
@given(any_series, any_series)
def test_sum_and_scale_match_dict_reference(a, b):
    cutoff = min(a.cutoff, b.cutoff)
    ref = {k: c for k, c in terms_of(a).items() if k[0] <= cutoff}
    for key, c in terms_of(b).items():
        if key[0] <= cutoff:
            ref[key] = ref.get(key, 0.0) - 0.5 * c
    ref = {k: c for k, c in ref.items() if c != 0}
    assert_matches(a - b.scale(0.5), ref)


@settings(max_examples=80, deadline=None)
@given(g_family_inputs())
def test_g_series_matches_exact_generator(inputs):
    k, x, cutoff = inputs
    L, D, terms = _g_exact(k, x, cutoff)
    exact = {(F(j, L), 0): F(n, D) for j, n in terms.items() if n != 0}
    got = g_series(k, x, cutoff)
    assert set(terms_of(got)) == set(exact)
    for key, c in exact.items():
        assert abs(terms_of(got)[key] - float(c)) <= REL_TOL * abs(float(c)), key


@st.composite
def grid_terms(draw):
    """(L, cutoff, j, m, c) with repeated keys, exact cancellations and keys past the cutoff."""
    n, cutoff = draw(levels), draw(st.sampled_from([F(4), F(25, 2)]))
    jmax = math.floor(cutoff * n)
    values = st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-300, 3.0e17, 0.1])
    key = st.tuples(st.integers(0, jmax + 5), st.integers(0, 3))
    keys = draw(st.lists(key, min_size=1, max_size=8))
    entries = draw(st.lists(st.tuples(st.sampled_from(keys), values, values), max_size=60))
    # each chosen entry is appended again negated, so its key can sum to 0
    undo = draw(st.lists(st.sampled_from(entries), max_size=10)) if entries else []
    entries += [(key, -re, -im) for key, re, im in undo]
    entries = draw(st.permutations(entries))
    j = [key[0] for key, _, _ in entries]
    m = [key[1] for key, _, _ in entries]
    c = [complex(re, im) for _, re, im in entries]
    return n, cutoff, j, m, c


def ref_grid_sum(n, cutoff, j, m, c) -> tuple[list, list, list]:
    """Per-key sums in input order, keys past the cutoff and zero sums dropped."""
    out = {}
    for jj, mm, cc in zip(j, m, c):
        if F(jj, n) <= cutoff:
            out[(jj, mm)] = out.get((jj, mm), 0.0) + cc
    keys = sorted(k for k, v in out.items() if v != 0)
    return [k[0] for k in keys], [k[1] for k in keys], [out[k] for k in keys]


@settings(max_examples=80, deadline=None)
@given(grid_terms())
def test_from_grid_dense_and_sorted_branches_agree(inputs):
    n, cutoff, j, m, c = inputs
    # the 1/n grid spans at most 213 * 4 keys, so it is summed densely; the
    # same terms on the 1/(4096 n) grid span over 32768 keys for at most 70
    # terms, so they go through np.unique
    wide = 4096
    with mock.patch.object(np, "unique", wraps=np.unique) as spy:
        dense = TauQSeries.from_grid(n, j, m, c, cutoff)
        assert spy.call_count == 0
        spread = TauQSeries.from_grid(n * wide, [x * wide for x in j], m, c, cutoff)
        assert spy.call_count == 1
    ref_j, ref_m, ref_c = ref_grid_sum(n, cutoff, j, m, c)
    assert dense.j.tolist() == ref_j
    assert (spread.j // wide).tolist() == ref_j and not (spread.j % wide).any()
    for got in (dense, spread):
        assert got.m.tolist() == ref_m
        assert got.c.tolist() == ref_c
