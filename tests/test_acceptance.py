"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured worst residual and runtime.  Tolerances are pinned here and
nowhere else; run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they complete."""

import cmath
import math
import random
import time
from fractions import Fraction as F

import pytest

from mevreg.eisenstein import EisensteinSpec, EllipticParam
from mevreg import identities as ID
from mevreg import mellin as ML
from mevreg import mev as M
from mevreg import regulator as RG
from mevreg.regint import (
    shuffle_expand,
    siegel_letter,
    word_integral_zero_to_infinity,
)
from mevreg.specfun import ZETA_PRIME_MINUS2, bernoulli_poly

from oracles import eta_quadrature, lvalue_factors, mellin_g_product_quadrature

X = EllipticParam


def _report(num: int, label: str, worst: float, tol: float, t0: float):
    elapsed = time.time() - t0
    status = "PASS" if worst < tol else "FAIL"
    print(
        f"{status} criterion {num:2d} [{label}]: worst residual "
        f"{worst:.3e} < {tol:.0e}, {elapsed:.1f}s"
    )
    assert worst < tol, f"criterion {num} ({label}): {worst:.3e} >= {tol:.0e}"
    return elapsed


def _theorem_grid() -> list[tuple[EllipticParam, EllipticParam]]:
    """12 parameter pairs with interior coordinates at levels 5, 6, 7."""
    pairs = []
    candidates = {
        5: [(1, 2, 2, 1), (1, 1, 2, 3), (2, 4, 4, 3), (1, 3, 3, 3)],
        6: [(1, 1, 3, 1), (1, 5, 3, 3), (5, 1, 5, 4), (1, 1, 1, 2)],
        7: [(1, 2, 3, 1), (5, 6, 3, 2), (1, 1, 2, 3), (2, 5, 4, 1)],
    }
    for n_lv, tuples in candidates.items():
        for a1, a2, b1, b2 in tuples:
            a = X(F(a1, n_lv), F(a2, n_lv))
            b = X(F(b1, n_lv), F(b2, n_lv))
            c = -(a + b)
            if any(p.has_zero_coord for p in (a, b, c)):
                continue
            pairs.append((a, b))
    assert len(pairs) == 12
    return pairs


@pytest.fixture(scope="module")
def grid_reports():
    return [(a, b, RG.regulator_report(a, b)) for a, b in _theorem_grid()]


def test_criterion_1_single_mev_closed_form():
    t0 = time.time()
    rng = random.Random(101)
    cases = [X(0, F(1, 2)), X(F(1, 2), 0), X(0, F(2, 7)), X(F(3, 5), 0)]
    while len(cases) < 20:
        cases.append(X(F(rng.randint(1, 11), 12), F(rng.randint(1, 6), 7)))
    worst = max(
        abs(M.lambda_mev([x]).value - M.lambda_single_closed(x)) for x in cases
    )
    elapsed = _report(1, "single closed form, 20 params", worst, 1e-10, t0)
    assert elapsed < 1.0


def test_criterion_2_shuffle_and_reversal():
    t0 = time.time()
    rng = random.Random(202)
    pool = [X(F(j, 7), F(k, 5)) for j in (1, 2, 3, 5) for k in (1, 2, 3)]
    worst = 0.0
    for _ in range(25):
        na = rng.choice([1, 2])
        nb = 1 if na == 2 else rng.choice([1, 2])
        wa = tuple(siegel_letter(rng.choice(pool)) for _ in range(na))
        wb = tuple(siegel_letter(rng.choice(pool)) for _ in range(nb))
        lhs = word_integral_zero_to_infinity(wa) * word_integral_zero_to_infinity(wb)
        rhs = sum(word_integral_zero_to_infinity(w) for w in shuffle_expand(wa, wb))
        worst = max(worst, abs(lhs - rhs))
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        params = [rng.choice(pool) for _ in range(n)]
        lhs = word_integral_zero_to_infinity(
            [siegel_letter(p.sigma()) for p in params]
        )
        rhs = (-1) ** n * word_integral_zero_to_infinity(
            [siegel_letter(p) for p in reversed(params)]
        )
        worst = max(worst, abs(lhs - rhs))
    elapsed = _report(2, "shuffle + path reversal, 25+25", worst, 1e-9, t0)
    assert elapsed < 30.0


def test_criterion_3_k2_regulator_vs_quadrature():
    t0 = time.time()
    instances = [
        (X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))),
        (X(F(1, 5), F(3, 5)), X(F(2, 5), F(2, 5))),
        (X(F(1, 7), F(2, 7)), X(F(3, 7), F(6, 7))),
        (X(F(1, 3), F(1, 3)), X(F(2, 3), F(1, 3))),
        (X(F(1, 6), F(5, 6)), X(F(1, 2), F(1, 2))),
        (X(F(2, 7), F(3, 7)), X(F(1, 5), F(1, 5))),
    ]
    worst = max(
        abs(RG.k2_regulator(a, b) - eta_quadrature(a, b)) for a, b in instances
    )
    elapsed = _report(3, "K2 vs eta-quadrature, 6 instances", worst, 1e-7, t0)
    assert elapsed < 60.0


def test_criterion_4_pairwise_product_relations():
    t0 = time.time()
    worst = 0.0
    count = 0
    rng = random.Random(404)
    for den in (5, 6, 7, 12):
        # E-relation instances
        tries = 0
        added = 0
        while added < 4 and tries < 50:
            tries += 1
            x = X(F(rng.randint(1, den - 1), den), F(rng.randint(0, den - 1), den))
            y = X(F(rng.randint(1, den - 1), den), F(rng.randint(0, den - 1), den))
            z = -(x + y)
            if x.is_zero or y.is_zero or z.is_zero:
                continue
            worst = max(worst, ID.check_bg_e(x, y).residual)
            added += 1
            count += 1
        # G-relations (exact rational arithmetic)
        for _ in range(2):
            x1, y1 = F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den)
            u2, v2 = F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den)
            if (x1 + y1) % 1 == 0 or (u2 - v2) % 1 == 0:
                continue
            worst = max(worst, ID.check_bg_g1(x1, y1, u2, v2).residual)
            count += 1
        worst = max(
            worst,
            ID.check_bg_g2(F(rng.randint(1, den - 1), den), F(1, den)).residual,
        )
        count += 1
    assert count >= 30 - 8  # a few G1 draws may be skipped by the hypotheses
    # top up to 30 instances with fixed known-good ones
    fixed = [
        (F(1, 5), F(2, 5), F(1, 5), F(3, 5)),
        (F(1, 7), F(2, 7), F(3, 7), F(6, 7)),
        (F(1, 12), F(5, 12), F(7, 12), F(1, 12)),
        (F(1, 6), F(1, 6), F(1, 6), F(5, 6)),
        (F(5, 12), F(1, 12), F(1, 12), F(7, 12)),
        (F(2, 7), F(3, 7), F(1, 7), F(5, 7)),
        (F(1, 5), F(1, 5), F(2, 5), F(4, 5)),
        (F(1, 6), F(1, 2), F(1, 3), F(1, 6)),
    ]
    for x1, y1, u2, v2 in fixed:
        worst = max(worst, ID.check_bg_g1(x1, y1, u2, v2).residual)
        count += 1
    assert count >= 30
    elapsed = _report(4, f"pairwise products, {count} instances", worst, 1e-12, t0)
    assert elapsed < 20.0


def test_criterion_5_exponent_swap():
    t0 = time.time()
    rng = random.Random(505)
    worst = 0.0
    for i in range(10):
        den = rng.choice([5, 6, 7])
        u = X(F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den))
        v = X(F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den))
        ell = 2 if i % 2 == 0 else 3
        worst = max(worst, abs(ML.im_i_direct(u, v, ell) - ML.im_i_rz(u, v, ell)))
    elapsed = _report(5, "exponent swap, 10 instances l in {2,3}", worst, 1e-8, t0)
    assert elapsed < 60.0


def test_criterion_6_length_drop():
    t0 = time.time()
    params = [X(F(1, 5), F(2, 5)), X(F(3, 7), F(1, 7)), X(F(2, 5), F(4, 5))]
    step = F(1, 4096)
    worst = 0.0
    for p in (1, 2, 3):
        vals = {}
        for j in (-2, -1, 1, 2):
            shifted = list(params)
            xp = params[p - 1]
            shifted[p - 1] = EllipticParam(xp.x1, xp.x2 + j * step)
            vals[j] = M.lambda_mev(shifted).value
        # five-point central difference at spacing 1/4096
        fd = (vals[-2] - 8 * vals[-1] + 8 * vals[1] - vals[2]) / (12 * float(step))
        worst = max(worst, abs(fd - M.length_drop_rhs(params, p)))
    _report(6, "length drop, p in {1,2,3}", worst, 1e-6, t0)


def test_criterion_7_theorem_1(grid_reports):
    t0 = time.time()
    worst = max(rep.residual_thm1 for _, _, rep in grid_reports)
    elapsed = _report(7, "main identity on 12 pairs (N=5,6,7)", worst, 1e-7, t0)
    assert elapsed < 300.0


def test_criterion_8_theorem_2(grid_reports):
    t0 = time.time()
    worst = max(rep.residual_thm2 for _, _, rep in grid_reports)
    _report(8, "regulator bridge on the same grid", worst, 1e-7, t0)
    # residual_thm2 reads the Mellin value of the L-value pipeline, so it holds
    # whenever thm1 does; here the companion regulator comes from an M by
    # quadrature, which shares no code with the incomplete-gamma continuation
    t0 = time.time()
    worst = 0.0
    for a, b, rep in grid_reports:
        m_quad = sum(mellin_g_product_quadrature(f, -1.0) for f in lvalue_factors(a, b))
        b_quad = -(9.0 * math.pi / rep.level**2) * m_quad.real
        worst = max(worst, abs(rep.g_mev - (rep.level**2 / 6.0) * b_quad + rep.zeta3_term))
    _report(8, "regulator bridge, M by quadrature", worst, 1e-7, t0)


def test_criterion_9_structural_symmetries():
    t0 = time.time()
    a, b = X(F(1, 5), F(1, 5)), X(F(2, 5), F(3, 5))
    worst = abs(RG.goncharov_mev(a, b) - RG.goncharov_mev(b, a))
    worst = max(worst, abs(RG.goncharov_mev(a, a)))
    worst = max(
        worst, abs(RG.goncharov_mev(a, b) + RG.goncharov_mev(a.sigma(), b.sigma()))
    )
    _report(9, "G symmetries in the MEV pipeline", worst, 1e-8, t0)


def test_criterion_10_mellin_constant_closed_form():
    t0 = time.time()
    values = [F(1, 4), F(1, 5), F(2, 5), F(1, 7), F(3, 7), F(1, 3), F(5, 12), F(5, 6)]
    worst = 0.0
    for x in values:
        got = ML.mellin_eisenstein_closed(EisensteinSpec("G", 3, X(0, x)), 0.0).value
        want = -2.0 * ZETA_PRIME_MINUS2 * bernoulli_poly(1, x)
        worst = max(worst, abs(got - want))
    _report(10, "weight-3 Mellin constant, 8 values", worst, 1e-9, t0)
