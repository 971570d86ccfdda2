"""The lattice-built generators, bit for bit against the dict-based construction.

The ``ref_*`` functions are a reference copy of the generators as they were
before they summed through ``_from_slots``: each hand-writes its nested loops,
adds every term into a dict keyed (j, m), and ``ref_from_terms`` lexsorts the
dict.  ``e_series``, ``g_series``, ``gn_series``, ``h_series``,
``log_siegel_series`` and ``eichler_series`` must give the same series, down
to the bit pattern of every coefficient (the sign of a zero included).  The
generators are called through ``__wrapped__``, so their caches do not answer.
"""

import math
from fractions import Fraction as F

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mevreg import eisenstein as E
from mevreg.eisenstein import EllipticParam, TauQSeries, grid_limit, real_divide
from mevreg.specfun import bernoulli_poly, periodic_zeta, roots_of_unity

from test_slot_kernels import assert_same_bits

TWO_PI_I = 2j * math.pi

# ---------------------------------------------------------------------------
# Reference copy of the dict-based generators
# ---------------------------------------------------------------------------


def ref_from_terms(L, terms, cutoff):
    j = np.array([j for j, _ in terms], dtype=np.int64)
    m = np.array([m for _, m in terms], dtype=np.int64)
    c = np.array(list(terms.values()), dtype=np.complex128)
    order = np.lexsort((m, j))
    order = order[c[order] != 0]
    return TauQSeries._make(L, j[order], m[order], c[order], cutoff)


def ref_cot_factor(x):
    return complex(0.0, 1.0 / math.tan(math.pi * float(x % 1)))


def ref_e_branch(terms, k, n_res, x2, L, jmax, sign, conj):
    q, p = x2.denominator, -x2.numerator if conj else x2.numerator
    roots = roots_of_unity(q)
    i = int(n_res * L) if n_res != 0 else L
    while i <= jmax:
        nk = (i / L) ** (k - 1)
        for m in range(1, jmax // i + 1):
            phase = roots[m * p % q]
            key = (m * i, 0)
            terms[key] = terms.get(key, 0.0) + sign * phase * nk
        i += L


def ref_e_series(k, x, cutoff):
    L = x.x1.denominator
    jmax = grid_limit(L, cutoff)
    terms = {}
    if k == 1:
        if x.x1 != 0:
            a0 = complex(float(x.x1) - 0.5)
        elif x.x2 != 0:
            a0 = -0.5 * ref_cot_factor(x.x2)
        else:
            a0 = 0.0 + 0.0j
    else:
        a0 = complex(bernoulli_poly(k, x.x1) / k)
    if a0 != 0:
        terms[(0, 0)] = a0
    ref_e_branch(terms, k, x.x1, x.x2, L, jmax, -1.0 + 0.0j, conj=False)
    ref_e_branch(terms, k, -x.x1 % 1, x.x2, L, jmax, complex((-1) ** (k + 1)), conj=True)
    return ref_from_terms(L, terms, cutoff)


def ref_g_family_terms(k, a, d1, b, d2, jmax, power, scale=1):
    terms = {}
    if k == 1 and (a == 0) != (b == 0):
        t = F(b, d2) if a == 0 else F(a, d1)
    elif k >= 2 and b == 0:
        t = F(a, d1)
    else:
        t = None
    if t is not None:
        terms[(0, 0)] = -(scale * bernoulli_poly(k, t)) / k
    for i_res, e_res, sign in ((a, b, 1), (-a % d1, -b % d2, (-1) ** k)):
        i = i_res or d1
        e0 = e_res or d2
        while i * e0 <= jmax:
            mk = sign * power(i)
            for e in range(e0, jmax // i + 1, d2):
                key = (i * e, 0)
                terms[key] = terms.get(key, 0) + mk
            i += d1
    return terms


def ref_g_series(k, x, cutoff):
    d1, d2 = x.x1.denominator, x.x2.denominator
    terms = ref_g_family_terms(
        k, x.x1.numerator, d1, x.x2.numerator, d2, grid_limit(d1 * d2, cutoff),
        lambda i: (i / d1) ** (k - 1),
    )
    return ref_from_terms(d1 * d2, terms, cutoff)


def ref_gn_series(k, level, xbar, cutoff):
    terms = ref_g_family_terms(
        k, xbar[0] % level, level, xbar[1] % level, level, grid_limit(level, cutoff),
        lambda i: float(i) ** (k - 1), level ** (k - 1),
    )
    return ref_from_terms(level, terms, cutoff)


def ref_h_series(k, x, cutoff):
    jmax = grid_limit(1, cutoff)
    terms = {}
    if k == 1:
        if x.is_zero:
            a0 = 0.0 + 0.0j
        elif x.x1 == 0:
            a0 = 0.5 * ref_cot_factor(x.x2)
        elif x.x2 == 0:
            a0 = 0.5 * ref_cot_factor(x.x1)
        else:
            a0 = 0.5 * (ref_cot_factor(x.x1) + ref_cot_factor(x.x2))
    else:
        a0 = (-1) ** k * periodic_zeta(-x.x2, 1 - k)
    if a0 != 0:
        terms[(0, 0)] = complex(a0)
    sign = float((-1) ** k)
    q = math.lcm(x.x1.denominator, x.x2.denominator)
    roots, p1, p2 = roots_of_unity(q), int(x.x1 * q), int(x.x2 * q)
    for m in range(1, jmax + 1):
        for n in range(1, jmax // m + 1):
            phase = roots[(m * p1 + n * p2) % q]
            c = (phase + sign * phase.conjugate()) * float(n) ** (k - 1)
            key = (m * n, 0)
            terms[key] = terms.get(key, 0.0) + c
    return ref_from_terms(1, terms, cutoff)


def ref_log_siegel_series(x, cutoff):
    L = x.x1.denominator
    jmax = grid_limit(L, cutoff)
    terms = {(0, 1): complex(math.pi * bernoulli_poly(2, x.x1)) * 1j}
    if x.x1 == 0:
        t = float(x.x2)
        terms[(0, 0)] = complex(math.log(2.0 * math.sin(math.pi * t)), math.pi * (t - 0.5))
    q = x.x2.denominator
    roots = roots_of_unity(q)
    for n_res, p in ((x.x1, x.x2.numerator), (-x.x1 % 1, -x.x2.numerator)):
        i = int(n_res * L) if n_res != 0 else L
        while i <= jmax:
            for m in range(1, jmax // i + 1):
                phase = roots[m * p % q]
                key = (m * i, 0)
                terms[key] = terms.get(key, 0.0) - phase / m
            i += L
    return ref_from_terms(L, terms, cutoff)


def ref_eichler_series(k, x, cutoff):
    base = ref_e_series(k, x, cutoff)
    flat = base.j == 0
    alpha = np.where(flat, 1, base.j) / base.L
    lifted = real_divide(base.c, alpha)
    lifted[flat] = TWO_PI_I * base.c[flat]
    return TauQSeries.from_grid(base.L, base.j, base.m + flat, lifted, base.cutoff)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

CUTOFFS = (F(0), F(1), F(4), F(7, 3), F(25, 2), F(12))


@st.composite
def params(draw):
    """A parameter with coordinates on the 1/N1 and 1/N2 grids, zeros likely."""
    coords = []
    for _ in range(2):
        n = draw(st.integers(1, 13) | st.sampled_from([24, 97, 4096]))
        coords.append(F(draw(st.integers(0, n - 1) | st.just(0)), n))
    return EllipticParam(*coords)


weights = st.integers(1, 4)
cutoffs = st.sampled_from(CUTOFFS)


def same(generator, reference, *args):
    assert_same_bits(generator.__wrapped__(*args), reference(*args))


# ---------------------------------------------------------------------------
# Generators against the reference
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(weights, params(), cutoffs)
@example(1, EllipticParam(0, F(1, 4)), F(12))  # -0.0 in the constant term
@example(1, EllipticParam(0, 0), F(12))  # zero constant, not stored
@example(3, EllipticParam(F(1, 2), F(1, 2)), F(25, 2))
def test_e_family_matches_dict_reference(k, x, cutoff):
    if not (k == 2 and x.is_zero):
        same(E.e_series, ref_e_series, k, x, cutoff)
    if k >= 2 and not (k == 2 and x.is_zero):
        same(E.eichler_series, ref_eichler_series, k, x, cutoff)
    if not x.is_zero:
        same(E.log_siegel_series, ref_log_siegel_series, x, cutoff)


@settings(max_examples=150, deadline=None)
@given(weights, params(), cutoffs)
@example(1, EllipticParam(0, F(2, 3)), F(12))
@example(2, EllipticParam(F(1, 4096), 0), F(12))
def test_g_and_h_match_dict_reference(k, x, cutoff):
    same(E.g_series, ref_g_series, k, x, cutoff)
    if not (k == 2 and x.x1 == 0):
        same(E.h_series, ref_h_series, k, x, cutoff)


@settings(max_examples=100, deadline=None)
@given(
    weights,
    (st.integers(2, 13) | st.sampled_from([24, 4096])).flatmap(
        lambda n: st.tuples(
            st.just(n), st.integers(0, n - 1) | st.just(0), st.integers(-n, 2 * n)
        )
    ),
    cutoffs,
)
@example(3, (4096, 1, 3), F(12))
@example(1, (5, 0, 0), F(12))
def test_gn_matches_dict_reference(k, point, cutoff):
    level, a, b = point
    same(E.gn_series, ref_gn_series, k, level, (a, b), cutoff)
