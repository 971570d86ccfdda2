import importlib
import math
import pkgutil
import random
import struct
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mevreg
from mevreg.eisenstein import (
    EisensteinSpec,
    EllipticParam,
    TauQSeries,
    e_series,
    eichler_series,
)
from mevreg import mellin as ML
from mevreg import regint as R
from mevreg.regulator import regulator_report

from test_slot_kernels import ref_antiderivative, ref_mul_series
from oracles import (
    coeff_of,
    eval_e2_anywhere,
    nested_convergent_quadrature,
    series_derivative,
    series_from_terms,
    terms_of,
)

X = EllipticParam
TWO_PI_I = 2j * math.pi


def rand_series(rng, nterms=25, cutoff=F(12)) -> TauQSeries:
    terms = {}
    for _ in range(nterms):
        alpha = F(rng.randint(0, 4 * int(cutoff)), 4)
        m = rng.randint(0, 3)
        terms[(alpha, m)] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return series_from_terms(terms, cutoff)


def series_max_diff(a, b):
    keys = set(terms_of(a)) | set(terms_of(b))
    return max(abs(coeff_of(a, *k) - coeff_of(b, *k)) for k in keys) if keys else 0.0


# ---------------------------------------------------------------------------
# Series algebra
# ---------------------------------------------------------------------------


def test_mul_series_basic():
    one_plus_q = series_from_terms({(F(0), 0): 1.0, (F(1), 0): 1.0}, F(12))
    one_minus_q = series_from_terms({(F(0), 0): 1.0, (F(1), 0): -1.0}, F(12))
    prod = R.mul_series(one_plus_q, one_minus_q)
    assert coeff_of(prod, 0, 0) == 1.0
    assert coeff_of(prod, 1, 0) == 0.0
    assert coeff_of(prod, 2, 0) == -1.0
    a = rand_series(random.Random(0))
    assert series_max_diff(R.mul_series(a, R.one_series()), a) == 0.0


def test_mul_series_against_convolution_oracle():
    # brute-force double-sum convolution, checked for alpha <= 2
    x, y = X(F(1, 3), F(1, 3)), X(F(1, 3), F(2, 3))
    a, b = e_series(1, x), e_series(2, y)
    prod = R.mul_series(a, b)
    for alpha_num in range(0, 7):
        for target_m in (0,):
            alpha = F(alpha_num, 3)
            if alpha > 2:
                continue
            acc = 0.0 + 0.0j
            for (aa, ma), ca in terms_of(a).items():
                for (ab, mb), cb in terms_of(b).items():
                    if aa + ab == alpha and ma + mb == target_m:
                        acc += ca * cb
            assert abs(coeff_of(prod, alpha, target_m) - acc) < 1e-13


def test_mul_series_cutoff_inheritance():
    a = rand_series(random.Random(1), cutoff=F(12))
    b = rand_series(random.Random(2), cutoff=F(8))
    assert R.mul_series(a, b).cutoff == F(8)


def test_conj_axis():
    rng = random.Random(3)
    a = rand_series(rng)
    assert series_max_diff(R.conj_axis(R.conj_axis(a)), a) == 0.0
    real_flat = series_from_terms({(F(1), 0): 2.0, (F(3, 2), 0): -1.5}, F(12))
    assert series_max_diff(R.conj_axis(real_flat), real_flat) == 0.0
    y = 1.7
    assert R.evaluate_at(R.conj_axis(a), y) == pytest.approx(
        R.evaluate_at(a, y).conjugate(), abs=1e-14
    )


def test_antiderivative_examples():
    omega = series_from_terms({(F(0), 0): 2.5, (F(1), 0): 3.0}, F(12))
    prim = R.antiderivative_to_infinity(omega)
    assert coeff_of(prim, 0, 1) == pytest.approx(2.5)
    assert coeff_of(prim, 1, 0) == pytest.approx(3.0 / TWO_PI_I)
    assert coeff_of(prim, 0, 0) == 0.0


def test_antiderivative_inverts_derivative():
    rng = random.Random(4)
    for _ in range(50):
        f = rand_series(rng)
        prim = R.antiderivative_to_infinity(f)
        assert series_max_diff(series_derivative(prim), f) < 1e-12
        assert coeff_of(prim, 0, 0) == 0.0


def test_reg_value_examples():
    assert coeff_of(e_series(2, X(F(1, 4), F(2, 5))), 0, 0) == pytest.approx(-1.0 / 96.0)
    assert coeff_of(eichler_series(2, X(F(1, 5), F(1, 5))), 0, 0) == 0.0
    f = rand_series(random.Random(5))
    shifted = f + series_from_terms({(F(1), 0): 9.0}, f.cutoff)
    assert coeff_of(shifted, 0, 0) == coeff_of(f, 0, 0)


def test_evaluate_at():
    q = series_from_terms({(F(1), 0): 1.0}, F(12))
    assert R.evaluate_at(q, 1.0) == pytest.approx(math.exp(-2 * math.pi), abs=1e-18)
    tau = series_from_terms({(F(0), 1): 1.0}, F(12))
    assert R.evaluate_at(tau, 1.0) == pytest.approx(1j)
    with pytest.raises(ValueError):
        R.evaluate_at(q, 0.3)
    val, bound = R.evaluate_with_bound(e_series(2, X(F(1, 5), F(2, 5))), 1.0)
    assert bound < 1e-11


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------


def test_word_length_validation():
    letter = R.siegel_letter(X(F(1, 5), F(2, 5)))
    with pytest.raises(ValueError):
        R.word_integral_zero_to_infinity([])
    with pytest.raises(ValueError):
        R.word_integral_zero_to_infinity([letter] * 5)


def test_single_letter_word_is_minus_antiderivative():
    letter = R.modular_letter(2, X(F(1, 5), F(2, 5)))
    got = R.word_integral_to_infinity([letter])
    want = R.antiderivative_to_infinity(letter.inf_side).scale(-1.0)
    assert series_max_diff(got, want) == 0.0


def test_word_integral_derivative_property():
    # d/d(tau) int_tau^oo w1 w2 = -f1(tau) * int_tau^oo w2, coefficient-wise
    l1 = R.modular_letter(2, X(F(1, 5), F(2, 5)))
    l2 = R.modular_letter(3, X(F(2, 7), F(1, 7)))
    outer = R.word_integral_to_infinity([l1, l2])
    inner = R.word_integral_to_infinity([l2])
    want = R.mul_series(l1.inf_side, inner).scale(-1.0)
    assert series_max_diff(series_derivative(outer), want) < 1e-12
    assert coeff_of(outer, 0, 0) == 0.0


def test_zero_side_consistency_at_i():
    # the two expansions of one form satisfy g(i) = -f(i): a probe of the
    # sigma table on every family, E, G and H
    forms = [
        R.siegel_letter(X(F(1, 5), F(2, 5))),
        R.siegel_letter(X(F(1, 3), F(1, 7)), "plus"),
        R.siegel_letter(X(F(2, 7), F(1, 6)), "minus"),
        R.modular_letter(3, X(F(1, 5), F(3, 5)), 2),
        R.merged_product_letter(((1, X(F(1, 5), F(1, 5))), (2, X(F(2, 5), F(1, 5))))),
        ML.g_product_form([(1, X(F(1, 5), F(2, 5))), (1, X(F(2, 5), F(4, 5)))]),
        ML.g_product_form([(1, X(F(1, 7), F(3, 7))), (2, X(F(2, 7), F(5, 7)))]),
    ]
    for family in ("E", "G", "H"):
        for k in (2, 3, 4):
            for x in (X(F(1, 5), F(2, 5)), X(0, F(1, 3)), X(F(2, 7), 0)):
                # H^(2) needs x1 != 0, and it is the sigma companion of G^(2)
                if family != "E" and k == 2 and x.x1 == 0:
                    continue
                forms.append(ML.eisenstein_form(EisensteinSpec(family, k, x)))
    for form in forms:
        lhs = R.evaluate_at(form.zero_side, 1.0)
        rhs = -R.evaluate_at(form.inf_side, 1.0)
        assert abs(lhs - rhs) < 1e-10, form


def test_modular_letter_admissibility_guard():
    with pytest.raises(ValueError):
        R.modular_letter(2, X(F(1, 5), F(2, 5)), m=2)  # m > k-1
    with pytest.raises(ValueError):
        R.modular_letter(1, X(F(1, 5), F(2, 5)))  # weight too small
    R.modular_letter(4, X(F(1, 5), F(2, 5)), m=3)  # boundary case fine


def test_base_point_independence():
    word = [
        R.siegel_letter(X(F(1, 3), F(1, 7))),
        R.siegel_letter(X(F(2, 5), F(1, 5))),
    ]
    v1 = R.word_integral_zero_to_infinity(word, 1.0)
    v2 = R.word_integral_zero_to_infinity(word, 2.0)
    assert abs(v1 - v2) < 1e-10


def test_repeated_letter_shuffle_value():
    letter = R.siegel_letter(X(F(1, 3), F(2, 7)))
    single = R.word_integral_zero_to_infinity([letter])
    double = R.word_integral_zero_to_infinity([letter, letter])
    assert abs(double - 0.5 * single**2) < 1e-12


def test_shuffle_expand():
    a, b, c_, d = "x", "y", "z", "w"
    assert sorted(R.shuffle_expand([a], [b])) == [("x", "y"), ("y", "x")]
    got = R.shuffle_expand([a], [b, c_])
    assert sorted(got) == [("x", "y", "z"), ("y", "x", "z"), ("y", "z", "x")]
    assert len(R.shuffle_expand([a, b], [c_, d])) == 6
    with pytest.raises(ValueError):
        R.shuffle_expand([a, b, c_], [d, d])


def test_shuffle_functional_relation():
    rng = random.Random(12)
    pool = [
        R.siegel_letter(X(F(j, 7), F(k, 5)))
        for j in (1, 2, 3)
        for k in (1, 2)
    ]
    for _ in range(25):
        na = rng.choice([1, 2])
        nb = 1 if na == 2 else rng.choice([1, 2])
        wa = tuple(rng.choice(pool) for _ in range(na))
        wb = tuple(rng.choice(pool) for _ in range(nb))
        lhs = R.word_integral_zero_to_infinity(wa) * R.word_integral_zero_to_infinity(
            wb
        )
        rhs = sum(
            R.word_integral_zero_to_infinity(w) for w in R.shuffle_expand(wa, wb)
        )
        assert abs(lhs - rhs) < 1e-9


def test_path_reversal():
    # int_0^oo of sigma-moved letters equals (-1)^n times the reversed word
    rng = random.Random(13)
    for n in (1, 2, 3):
        params = [
            X(F(rng.randint(1, 6), 7), F(rng.randint(1, 4), 5)) for _ in range(n)
        ]
        lhs = R.word_integral_zero_to_infinity(
            [R.siegel_letter(p.sigma()) for p in params]
        )
        rhs = (-1) ** n * R.word_integral_zero_to_infinity(
            [R.siegel_letter(p) for p in reversed(params)]
        )
        assert abs(lhs - rhs) < 1e-9


def test_newton_leibniz_on_eichler_products():
    # int_0^oo d(F G) = (FG)(oo) - (FG)(0) for Eichler integrals F, G
    x, y = X(F(1, 5), F(2, 5)), X(F(2, 7), F(3, 7))
    lx = R.modular_letter(2, x)
    ly = R.modular_letter(3, y)

    def eichler_function(letter):
        # F = -int_tau^oo 2 pi i E, with both-sided expansions
        inf = R.word_integral_to_infinity([letter]).scale(-TWO_PI_I)
        zero = R.word_integral_to_infinity([letter.sigma_pullback()]).scale(-TWO_PI_I)
        const = R.word_integral_zero_to_infinity([letter]) * (-TWO_PI_I)
        zero = zero + R.one_series(zero.cutoff).scale(const)
        return inf, zero

    fx, fx0 = eichler_function(lx)
    gy, gy0 = eichler_function(ly)
    prod_inf = R.mul_series(fx, gy)
    prod_zero = R.mul_series(fx0, gy0)
    # sigma-pullback of an exact form is the differential of the pulled-back
    # function, so the zero side of d(FG) is just the derivative of prod_zero
    dform = R.AdmissibleForm(series_derivative(prod_inf), series_derivative(prod_zero))
    assert (
        abs(R.evaluate_at(dform.zero_side, 1.0) + R.evaluate_at(dform.inf_side, 1.0))
        < 1e-9
    )
    value = R.word_integral_zero_to_infinity([dform], 1.0)
    f_at_inf = coeff_of(prod_inf, 0, 0)
    f_at_zero = coeff_of(prod_zero, 0, 0)
    assert abs(value - (f_at_inf - f_at_zero)) < 1e-10


def test_convergent_word_vs_nested_quadrature():
    # letters that decay at both cusps: differences of weight-2 forms with
    # matched constant terms at oo and (after sigma) at 0
    s, t = F(1, 5), F(1, 7)
    x1, x2 = X(s, t), X(s, 1 - t)
    y1, y2 = X(F(2, 5), F(1, 3)), X(F(2, 5), F(2, 3))
    la = R.siegel_letter(x1) - R.siegel_letter(x2)
    lb = R.siegel_letter(y1) - R.siegel_letter(y2)
    engine = R.word_integral_zero_to_infinity([la, lb])

    def f_a(yv):
        return TWO_PI_I * (eval_e2_anywhere(x1, yv) - eval_e2_anywhere(x2, yv))

    def f_b(yv):
        return TWO_PI_I * (eval_e2_anywhere(y1, yv) - eval_e2_anywhere(y2, yv))

    literal = nested_convergent_quadrature(f_a, f_b, 0.05, 40.0, 1e-11)
    assert abs(engine - literal) < 1e-8


def test_parameter_differentiation_two_letters():
    # d/d(y2) of the double value against the length-drop combination
    x, y = X(F(1, 5), F(2, 5)), X(F(3, 7), F(1, 7))
    step = F(1, 4096)

    def double(y2):
        return R.word_integral_zero_to_infinity(
            [R.siegel_letter(x), R.siegel_letter(X(y.x1, y2))]
        )

    vals = {j: double(y.x2 + j * step) for j in (-2, -1, 1, 2)}
    fd = (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * float(step))
    # p = n = 2: a0(E1_y) * single(x) - word(merged(E2_x * E1_y))
    a0 = complex(float(y.x1) - 0.5) * TWO_PI_I  # d/dy2 with the dlog scaling
    single = R.word_integral_zero_to_infinity([R.siegel_letter(x)])
    merged = R.merged_product_letter(((2, x), (1, y))).scale((TWO_PI_I) ** 2)
    second = R.word_integral_zero_to_infinity([merged])
    rhs = a0 * single - second
    assert abs(fd - rhs) < 1e-6


# ---------------------------------------------------------------------------
# Shared suffix integrals
# ---------------------------------------------------------------------------


PACKAGE_KERNELS = (R.mul_series, R.antiderivative_to_infinity)
# the from_grid-based reference copy of the two kernels
REFERENCE_KERNELS = (ref_mul_series, ref_antiderivative)


def fold_suffixes(series_list, cutoff, kernels=PACKAGE_KERNELS):
    """Uncached right fold: [S_0..S_{n-1}], S_j the series of int_tau^oo over
    the suffix starting at j; the last series is cut to the word's cutoff."""
    mul, antiderivative = kernels
    n = len(series_list)
    out = [None] * n
    last = series_list[-1]
    integrand = TauQSeries.from_grid(last.L, *last.on_grid(last.L, cutoff), cutoff)
    for j in range(n - 1, -1, -1):
        out[j] = antiderivative(integrand).scale(-1.0)
        if j:
            integrand = mul(series_list[j - 1], out[j])
    return out


def fold_zero_to_infinity(letters, tau0_y=1.0, kernels=PACKAGE_KERNELS):
    """Value and bound of int_0^oo from the uncached fold, combined as in regint."""
    n = len(letters)
    cutoff = min(l.inf_side.cutoff for l in letters)
    inf_suffix = fold_suffixes([l.inf_side for l in letters], cutoff, kernels)
    zero_suffix = fold_suffixes([l.zero_side for l in reversed(letters)], cutoff, kernels)
    total, bound = 0.0 + 0.0j, 0.0
    for k in range(n + 1):
        z, bz = 1.0 + 0.0j, 0.0
        if k:
            z, bz = R.evaluate_with_bound(zero_suffix[n - k], 1.0 / tau0_y)
            z *= (-1.0) ** k
        w, bw = 1.0 + 0.0j, 0.0
        if k < n:
            w, bw = R.evaluate_with_bound(inf_suffix[k], tau0_y)
        total += z * w
        bound += abs(z) * bw + abs(w) * bz
    return total, bound


def same_series(a, b):
    return (
        a.L == b.L
        and a.cutoff == b.cutoff
        and np.array_equal(a.j, b.j)
        and np.array_equal(a.m, b.m)
        and np.array_equal(a.c, b.c)
    )


@st.composite
def letter_pools(draw):
    """One to three Siegel or modular letters at levels 2..17, cutoff 4 or 25/2."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 17))
        x = X(F(draw(st.integers(1, n - 1)), n), F(draw(st.integers(0, n - 1)), n))
        cutoff = draw(st.sampled_from([F(4), F(25, 2)]))
        if draw(st.booleans()):
            channel = draw(st.sampled_from(["holomorphic", "plus", "minus"]))
            pool.append(R.siegel_letter(x, channel, cutoff))
        else:
            k = draw(st.integers(2, 4))
            pool.append(R.modular_letter(k, x, draw(st.integers(1, k - 1)), cutoff))
    return pool


@st.composite
def words_with_repeats(draw):
    pool = draw(letter_pools())
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4)
    return [pool[i] for i in draw(picks)], draw(st.sampled_from([1.0, 1.5]))


@settings(max_examples=40, deadline=None)
@given(words_with_repeats())
def test_shared_suffixes_match_uncached_fold(case):
    word, tau0_y = case
    got = R.word_integral_zero_to_infinity_with_bound(word, tau0_y)
    assert got == fold_zero_to_infinity(word, tau0_y)
    cutoff = min(l.inf_side.cutoff for l in word)
    want = fold_suffixes([l.inf_side for l in word], cutoff)[0]
    assert same_series(R.word_integral_to_infinity(word), want)


def bits(results):
    """The bit patterns of a list of (value, bound) pairs."""
    return [struct.pack("<3d", v.real, v.imag, b) for v, b in results]


@st.composite
def word_sets(draw):
    """One to six words over one letter pool, repeats allowed, and tau0_y."""
    pool = draw(letter_pools())
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4)
    words = draw(st.lists(picks, min_size=1, max_size=6))
    return [[pool[i] for i in word] for word in words], draw(st.sampled_from([1.0, 1.5]))


@settings(max_examples=30, deadline=None)
@given(word_sets(), st.data())
def test_word_set_in_one_pass_matches_each_fold(case, data):
    words, tau0_y = case
    want = bits(fold_zero_to_infinity(w, tau0_y) for w in words)
    # the reference kernels hold the slot order even if all package kernels
    # changed it alike
    assert bits(fold_zero_to_infinity(w, tau0_y, REFERENCE_KERNELS) for w in words) == want
    R._suffix_entry.cache_clear()
    assert bits(R.word_integrals_zero_to_infinity(words, tau0_y)) == want  # cold
    order = data.draw(st.permutations(range(len(words))))
    again = R.word_integrals_zero_to_infinity([words[n] for n in order], tau0_y)
    assert bits(again) == [want[n] for n in order]  # warm, in another order
    R._suffix_entry.cache_clear()
    first = data.draw(st.integers(0, len(words) - 1))
    R.word_integral_zero_to_infinity_with_bound(words[first], tau0_y)
    assert bits(R.word_integrals_zero_to_infinity(words[::-1], tau0_y)) == want[::-1]


def test_word_set_on_the_finite_difference_grid_sorts_its_keys():
    # dg_da2 shifts a2 by 1/4096: the zero sides of a and c = -(a + b) lie on
    # the 1/20480 grid, whose key span (245761 per tau power) is far wider
    # than the pairs of a product, so the products sum after np.unique
    a, b = X(F(1, 5), F(2, 5) + F(1, 4096)), X(F(2, 5), F(1, 5))
    c = -(a + b)
    letters = {p: R.siegel_letter(p) for p in (a, b, c)}
    keys = [(a, b, b), (c, b, b), (c, a, b), (a, b), (b, c), (c, a), (a,), (b,)]
    words = [[letters[p] for p in key] for key in keys]
    want = bits(fold_zero_to_infinity(w) for w in words)
    R._suffix_entry.cache_clear()
    with mock.patch.object(np, "unique", wraps=np.unique) as spy:
        got = R.word_integrals_zero_to_infinity(words)
    assert spy.call_count >= 1
    assert bits(got) == want


def test_suffix_cache_keys_carry_the_word_cutoff():
    x, y, z = X(F(1, 5), F(2, 5)), X(F(2, 7), F(1, 7)), X(F(1, 3), F(1, 4))
    a, b = R.siegel_letter(x, cutoff=F(25, 2)), R.modular_letter(3, y, 2, F(25, 2))
    low = R.siegel_letter(z, cutoff=F(4))
    # (a, b) is built at cutoff 25/2 first; inside the longer word the same
    # letters must be folded again at that word's cutoff 4
    for word in ([a, b], [low, a, b], [a, b, low], [b, a, b]):
        assert R.word_integral_zero_to_infinity_with_bound(word) == fold_zero_to_infinity(word)
        cutoff = min(l.inf_side.cutoff for l in word)
        inf = R.word_integral_to_infinity(word)
        assert inf.cutoff == cutoff
        assert same_series(inf, fold_suffixes([l.inf_side for l in word], cutoff)[0])


def clear_package_caches():
    for mod in [mevreg] + [
        importlib.import_module(f"mevreg.{info.name}")
        for info in pkgutil.iter_modules(mevreg.__path__)
    ]:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_report_bytes_do_not_depend_on_cache_state():
    a, b = X(F(1, 7), F(2, 7)), X(F(3, 7), F(2, 7))
    clear_package_caches()
    cold = regulator_report(a, b).to_json()
    warm = regulator_report(a, b).to_json()
    R._suffix_entry.cache_clear()
    cleared = regulator_report(a, b).to_json()
    assert cold == warm == cleared


def test_cached_suffix_series_are_read_only():
    word = [R.siegel_letter(X(F(1, 5), F(2, 5))), R.siegel_letter(X(F(2, 5), F(1, 5)))]
    first = R.word_integral_to_infinity(word)
    assert R.word_integral_to_infinity(word) is first  # shared, not rebuilt
    for arr in (first.j, first.m, first.c):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        first.c = first.c.copy()
