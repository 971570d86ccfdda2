"""The array readers of a series, held to their former Fraction-view versions.

``eisenstein.qdump_rows`` and ``identities._series_residual`` read the grid
arrays of a series directly.  ``tests/oracles`` keeps the versions written
over the exact (Fraction(j, L), m) -> coefficient view; here both must give
the same rows, the same residual bits and the same worst term, which holds
only with Python's ``abs`` (numpy's complex abs rounds some magnitudes
differently).
"""

import json
from fractions import Fraction as F
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

from mevreg import identities as ID
from mevreg.eisenstein import EisensteinSpec, EllipticParam, qdump_rows, series_for
from mevreg.regint import mul_series

from oracles import qdump_rows_reference, series_from_terms, series_residual_reference

X = EllipticParam
EMPTY = series_from_terms({}, F(12))


def assert_same_readings(series):
    assert qdump_rows(series) == qdump_rows_reference(series)
    got = ID._series_residual("s", series)
    want = series_residual_reference("s", series)
    assert got == want
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


@st.composite
def generator_series(draw, cutoffs=(F(3), F(4), F(25, 2)), shifts=(-2, 2)):
    """A generated E, G, H or logSiegel series at a random level, shifted by k/4096."""
    n = draw(st.integers(2, 17))
    shift = st.integers(*shifts).map(lambda k: F(k, 4096))
    x = X(
        F(draw(st.integers(0, n - 1)), n) + draw(shift),
        F(draw(st.integers(0, n - 1)), n) + draw(shift),
    )
    family = draw(st.sampled_from(["E", "G", "H", "logSiegel"]))
    try:
        spec = EisensteinSpec(family, draw(st.integers(1, 4)), x)
    except ValueError:
        assume(False)
    return series_for(spec, draw(st.sampled_from(cutoffs)))


@settings(max_examples=60, deadline=None)
@given(generator_series())
# np.abs rounds the magnitude of the largest coefficient here differently
@example(series_for(EisensteinSpec("E", 2, X(F(1, 5), F(2, 5)))))
def test_generator_series_read_like_the_fraction_view(series):
    assert_same_readings(series)


@settings(max_examples=100, deadline=None)
@given(*[generator_series(cutoffs=(F(3), F(4)), shifts=(0, 0))] * 2)
def test_products_read_like_the_fraction_view(a, b):
    assert_same_readings(mul_series(a, b))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(5, 13),
    st.lists(st.integers(0, 12), min_size=4, max_size=4),
    st.sampled_from([F(4), F(12)]),
)
@example(5, [1, 1, 2, 3], F(12))
def test_bg_e_residual_reads_like_the_fraction_view(n, ks, cutoff):
    x, y = X(F(ks[0], n), F(ks[1], n)), X(F(ks[2], n), F(ks[3], n))
    assume(not any(p.is_zero for p in (x, y, -(x + y))))
    with mock.patch.object(ID, "_series_residual", wraps=ID._series_residual) as spy:
        report = ID.check_bg_e(x, y, cutoff)
    (name, combo), _ = spy.call_args
    want = series_residual_reference(name, combo)
    assert report == want
    assert json.dumps(report.to_dict()) == json.dumps(want.to_dict())


def test_empty_combination_has_no_worst_term():
    report = ID._series_residual("empty", EMPTY)
    assert (report.residual, report.worst_term) == (0.0, None)
    assert qdump_rows(EMPTY) == []
