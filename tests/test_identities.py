import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from mevreg.eisenstein import EllipticParam, _g_family_terms, grid_limit
from mevreg import identities as ID

from oracles import coeff_of

X = EllipticParam


def test_bg_e_instances():
    r = ID.check_bg_e(X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5)))
    assert r.residual < 1e-12
    r = ID.check_bg_e(X(F(1, 7), F(3, 7)), X(F(2, 7), F(2, 7)))
    assert r.residual < 1e-12
    # constant-term stratum alone: the (0, 0) coefficient of the combination
    # is part of the same residual map and must also vanish
    assert r.worst_term is None or r.residual < 1e-12


def test_bg_e_constant_stratum_oracle():
    # independent constant-term arithmetic: a0 of the combination from the
    # individual constant terms and first convolution layer
    from mevreg.eisenstein import e_series
    from mevreg.regint import mul_series

    x, y = X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))
    z = -(x + y)
    a0 = lambda k, p: coeff_of(e_series(k, p), 0, 0)
    combo = (
        a0(1, z) * a0(2, y)
        - a0(1, y) * a0(2, x)
        - a0(1, z) * a0(2, x)
        + a0(1, y) * a0(2, z)
        - a0(3, x)
        + 0.5 * a0(3, y)
        + 0.5 * a0(3, z)
    )
    assert abs(combo) < 1e-14


def test_bg_e_boundary_rejected():
    with pytest.raises(ValueError):
        ID.check_bg_e(X(F(1, 5), F(1, 5)), X(F(4, 5), F(4, 5)))


def test_bg_e_swap_parity():
    # swapping y and z relabels the products consistently with parity,
    # so the residual stays at rounding level either way
    x, y = X(F(1, 5), F(2, 5)), X(F(3, 5), F(4, 5))
    z = -(x + y)
    r1 = ID.check_bg_e(x, y)
    r2 = ID.check_bg_e(x, z)
    assert r1.residual < 1e-12 and r2.residual < 1e-12


def test_bg_g1_exact():
    assert ID.check_bg_g1(F(1, 5), F(2, 5), F(1, 5), F(3, 5)).residual == 0.0
    assert ID.check_bg_g1(F(1, 7), F(2, 7), F(3, 7), F(6, 7)).residual == 0.0
    assert ID.check_bg_g1(F(1, 12), F(5, 12), F(7, 12), F(1, 12)).residual == 0.0


def test_bg_g1_hypothesis_rejection():
    with pytest.raises(ValueError):
        ID.check_bg_g1(F(1, 5), F(4, 5), F(1, 5), F(3, 5))  # x1 + y1 = 0
    with pytest.raises(ValueError):
        ID.check_bg_g1(F(1, 5), F(2, 5), F(2, 5), F(2, 5))  # u2 - v2 = 0
    with pytest.raises(ValueError):
        ID.check_bg_g1(F(0), F(2, 5), F(1, 5), F(3, 5))


def test_bg_g2_exact():
    assert ID.check_bg_g2(F(1, 5), F(2, 5)).residual == 0.0
    assert ID.check_bg_g2(F(1, 2), F(1, 3)).residual == 0.0  # half-period u1
    assert ID.check_bg_g2(F(1, 5), F(0)).residual == 0.0  # degenerate u2 = 0
    with pytest.raises(ValueError):
        ID.check_bg_g2(F(0), F(2, 5))


# ---------------------------------------------------------------------------
# Fraction-dict oracle for the integer exact path: the G coefficients as
# alpha -> Fraction from the same generator, and their product as a plain
# double loop, keys inserted in order of first appearance.
# ---------------------------------------------------------------------------


def ref_g_exact(k, x, cutoff):
    d1, d2 = x.x1.denominator, x.x2.denominator
    t, rows = _g_family_terms(
        k, x.x1.numerator, d1, x.x2.numerator, d2, grid_limit(d1 * d2, cutoff)
    )
    out = {} if t is None else {F(0): -ID._bernoulli_exact(k, t) / k}
    for i, sign, js in rows:
        for j in js:
            alpha = F(j, d1 * d2)
            out[alpha] = out.get(alpha, F(0)) + sign * F(i, d1) ** (k - 1)
    return out


def ref_g_exact_product(k1, x1, k2, x2, cutoff):
    a, b = ref_g_exact(k1, x1, cutoff), ref_g_exact(k2, x2, cutoff)
    out = {}
    for aa, ca in a.items():
        for ab, cb in b.items():
            if aa + ab <= cutoff:
                out[aa + ab] = out.get(aa + ab, F(0)) + ca * cb
    return out


def ref_exact_residual(parts):
    """(residual, worst_term) of sum(sign * series) over alpha -> Fraction maps."""
    combo = {}
    for sign, series in parts:
        for alpha, c in series.items():
            combo[alpha] = combo.get(alpha, F(0)) + sign * c
    worst_key, worst = None, F(0)
    for alpha, c in combo.items():
        if abs(c) > worst:
            worst, worst_key = abs(c), alpha
    return float(worst), (worst_key, 0) if worst_key is not None else None


def as_fractions(series):
    L, D, terms = series
    return {F(j, L): F(n, D) for j, n in terms.items()}


@st.composite
def g_params(draw):
    """A G parameter on the 1/N grid, N in 2..17, zero coordinates included."""
    n = draw(st.integers(2, 17))
    return X(F(draw(st.integers(0, n - 1)), n), F(draw(st.integers(0, n - 1)), n))


cutoffs = st.sampled_from([F(4), F(7, 2), F(25, 2)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 2), (2, 1), (1, 3)]), g_params(), g_params(), cutoffs)
@example((1, 3), X(F(1, 5), F(2, 5)), X(0, F(2, 7)), F(7, 2))
@example((1, 2), X(F(1, 12), F(5, 12)), X(F(1, 4), F(1, 6)), F(25, 2))
def test_integer_product_matches_fraction_oracle(weights, x1, x2, cutoff):
    k1, k2 = weights
    for k, x in ((k1, x1), (k2, x2), (3, X(0, x2.x2))):
        got, want = as_fractions(ID._g_exact(k, x, cutoff)), ref_g_exact(k, x, cutoff)
        assert list(got) == list(want)
        assert got == want
    got = as_fractions(ID._g_exact_product(k1, x1, k2, x2, cutoff))
    want = ref_g_exact_product(k1, x1, k2, x2, cutoff)
    assert list(got) == list(want)  # insertion order decides ties in the residual
    assert got == want


def g1_products(x1, y1, u2, v2, cutoff):
    """The four G1 * G2 products of check_bg_g1, which it signs (1, 1, -1, -1)."""
    P = EllipticParam
    return [
        ID._g_exact_product(1, p1, 2, p2, cutoff)
        for p1, p2 in (
            (P(x1 + y1, u2), P(y1, v2 - u2)),
            (P(y1, v2), P(x1, u2)),
            (P(x1 + y1, v2), P(x1, u2 - v2)),
            (P(y1, v2 - u2), P(x1 + y1, u2)),
        )
    ]


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.sampled_from([-1, 1, 2]), min_size=4, max_size=4),
    st.sampled_from([5, 7, 12, 13]),
    cutoffs,
)
@example([1, 1, 1, 1], 12, F(25, 2))
def test_exact_residual_of_non_identity_matches_fraction_reference(signs, n, cutoff):
    products = g1_products(F(1, n), F(2, n), F(3, n), F(1, 3), cutoff)
    # a G3 on another grid, so the parts differ in grid and denominator
    products.append(ID._g_exact(3, X(0, F(1, 4)), cutoff))
    signs = signs + [-1]
    report = ID._exact_residual("combo", list(zip(signs, products)))
    residual, worst_term = ref_exact_residual(
        [(s, as_fractions(p)) for s, p in zip(signs, products)]
    )
    assert report.residual > 0
    assert (report.residual, report.worst_term) == (residual, worst_term)


def test_exact_residual_names_the_first_of_equal_worst_terms():
    # this G1 has six largest coefficients, 2 each, and the generator
    # reaches 28/3 before the smaller 7/3: the first one reached counts
    series = ID._g_exact(1, X(0, F(2, 3)), F(12))
    report = ID._exact_residual("g1", [(1, series)])
    assert (report.residual, report.worst_term) == (2.0, (F(28, 3), 0))
    assert (report.residual, report.worst_term) == ref_exact_residual(
        [(1, as_fractions(series))]
    )


def test_flipping_one_sign_of_bg_g1_breaks_it():
    args = (F(1, 7), F(2, 7), F(3, 7), F(6, 7), F(12))
    products = g1_products(*args)
    signs = [1, 1, -1, -1]
    assert ID.check_bg_g1(*args).residual == 0.0
    assert ID._exact_residual("g1", list(zip(signs, products))).residual == 0.0
    for i in range(4):
        flipped = [(-s if k == i else s) for k, s in enumerate(signs)]
        assert ID._exact_residual("g1", list(zip(flipped, products))).residual > 0


def test_dilog_sums():
    r = ID.check_dilog_sum(5, cmath.exp(2j * math.pi / 5))
    assert r.residual < 1e-10
    r = ID.check_dilog_sum(6, -1.0)  # both sides real-zero
    assert r.residual < 1e-12
    r = ID.check_dilog_sum(12, cmath.exp(2j * math.pi * 5 / 12))
    assert r.residual < 1e-10
    with pytest.raises(ValueError):
        ID.check_dilog_sum(5, 1.0)
    with pytest.raises(ValueError):
        ID.check_dilog_sum(1, -1.0)


def test_dilog_sum_direct_oracle():
    # direct summation oracle for one instance
    from mevreg.specfun import bloch_wigner

    n, u = 7, cmath.exp(2j * math.pi * 2 / 7)
    total = sum(
        bloch_wigner((1 - cmath.exp(2j * math.pi * j / n)) / (1 - u)) for j in range(n)
    )
    assert abs(total - 0.5 * n * bloch_wigner(u)) < 1e-10
    assert ID.check_dilog_sum(n, u).residual < 1e-10


def test_shuffle_ledger():
    reports = ID.check_shuffle_ledger(X(F(1, 5), F(2, 5)), X(F(2, 5), F(1, 5)))
    names = {r.name for r in reports}
    assert {"shuffle2", "shuffle7", "a2_collapse", "a3_collapse"} <= names
    for r in reports:
        assert r.residual < 1e-8, r.name


def test_shuffle_ledger_boundary_guard():
    with pytest.raises(ValueError):
        ID.check_shuffle_ledger(X(F(1, 5), 0), X(F(2, 5), F(1, 5)))


def test_triple_shuffle_random_instances():
    # the two specialised triple identities on 10 random interior pairs
    import random

    from mevreg.mev import lambda_signed as ls

    rng = random.Random(77)
    for _ in range(10):
        x = X(F(rng.randint(1, 6), 7), F(rng.randint(1, 4), 5))
        z = X(F(rng.randint(1, 4), 5), F(rng.randint(1, 6), 7))
        r2 = (
            ls([x, z, x], "--+")
            + ls([z, x, x], "-+-")
            + ls([z, x, x], "--+")
            - ls([x], "-") * ls([z, x], "-+")
        )
        r7 = (
            ls([x, x, z], "--+")
            - ls([z, x, x], "+--")
            - 0.5 * ls([x], "-") * (ls([x, z], "-+") - ls([z, x], "+-"))
        )
        assert abs(r2) < 1e-8
        assert abs(r7) < 1e-8


def test_ledger_robust_to_cutoff():
    # doubling the cutoff must not increase the residuals materially
    a, b = X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))
    small = {r.name: r.residual for r in ID.check_shuffle_ledger(a, b, F(6))}
    big = {r.name: r.residual for r in ID.check_shuffle_ledger(a, b, F(12))}
    for name, res_big in big.items():
        assert res_big < max(small[name], 1e-10) * 1.5 + 1e-12
