"""Standalone verifiers for the algebraic identity layer.

Three kinds of checks:

* Pairwise-product relations among the Eisenstein families, verified at the
  q-series coefficient level (these are exact polynomial identities among
  exact-rational-exponent series, so any residual beyond rounding is a
  bug, not truncation).  The worst offending (alpha, m) coefficient is
  reported to localise sign errors in the constant-term tables.

* Root-of-unity dilogarithm sums.

* The shuffle ledger: the intermediate signed-value identities that turn
  the triple-integral expansion of the weight-3 regulator into its closed
  form, each evaluated on both sides through the engine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mevreg.eisenstein import (
    DEFAULT_CUTOFF,
    EllipticParam,
    TauQSeries,
    _g_family_terms,
    e_series,
    grid_limit,
)
from mevreg.mev import lambda_words
from mevreg.regint import (
    AdmissibleForm,
    _mul_pairs,
    one_series,
    siegel_letter,
    word_integral_to_infinity,
    word_integral_zero_to_infinity,
    word_integrals_zero_to_infinity,
)
from mevreg.specfun import bloch_wigner

__all__ = [
    "IdentityReport",
    "check_bg_e",
    "check_bg_g1",
    "check_bg_g2",
    "check_dilog_sum",
    "check_shuffle_ledger",
]


@dataclass(frozen=True)
class IdentityReport:
    name: str
    residual: float
    worst_term: Optional[tuple[Fraction, int]] = None
    details: Optional[dict] = None

    def passed(self, tol: float) -> bool:
        return self.residual < tol

    def to_dict(self) -> dict:
        out = {"identity": self.name, "residual": self.residual}
        if self.worst_term is not None:
            alpha, m = self.worst_term
            out["worst_term"] = [str(alpha), m]
        if self.details:
            out["details"] = {k: float(v) for k, v in self.details.items()}
        return out


def _series_residual(name: str, combo: TauQSeries) -> IdentityReport:
    """Largest |coefficient| of ``combo`` and its (alpha, m); the first wins ties."""
    worst_at, worst = None, 0.0
    for i, c in enumerate(combo.c.tolist()):
        if abs(c) > worst:
            worst, worst_at = abs(c), i
    if worst_at is None:
        return IdentityReport(name, worst)
    # Python ints: a numpy int in worst_term would break json.dumps
    alpha = Fraction(int(combo.j[worst_at]), combo.L)
    return IdentityReport(name, worst, (alpha, int(combo.m[worst_at])))


# Exact arithmetic for the G-family products, from the generator behind
# ``g_series``: an ExactSeries (L, D, {j: n}) holds the coefficient n/D at
# q^(j/L), as integer numerators over one denominator.  Products and sums
# stay in Python ints (numpy int64 would overflow at high levels), so the
# pairwise-product identities are checked with zero rounding.
ExactSeries = tuple[int, int, dict[int, int]]


def _bernoulli_exact(k: int, t: Fraction) -> Fraction:
    from mevreg.specfun import _bernoulli_poly_coeffs

    acc = Fraction(0)
    for c in reversed(_bernoulli_poly_coeffs(k)):
        acc = acc * t + c
    return acc


def _g_exact(k: int, x: EllipticParam, cutoff: Fraction) -> ExactSeries:
    """``g_series(k, x, cutoff)`` in exact arithmetic, as an ExactSeries.

    The coefficients are i^(k-1) / d1^(k-1), and the constant term, the only
    non-integral one, sets the common denominator.  Keys keep the generator's
    order of first appearance.
    """
    d1, d2 = x.x1.denominator, x.x2.denominator
    t, rows = _g_family_terms(
        k, x.x1.numerator, d1, x.x2.numerator, d2, grid_limit(d1 * d2, cutoff)
    )
    out: dict[int, int] = {}
    den = 1
    if t is not None:
        const = -(d1 ** (k - 1) * _bernoulli_exact(k, t)) / k
        out[0], den = const.numerator, const.denominator
    for i, sign, js in rows:
        n = sign * i ** (k - 1) * den
        for j in js:
            out[j] = out.get(j, 0) + n
    return d1 * d2, d1 ** (k - 1) * den, out


def _g_exact_product(
    k1: int, x1: EllipticParam, k2: int, x2: EllipticParam, cutoff: Fraction
) -> ExactSeries:
    la, da, a = _g_exact(k1, x1, cutoff)
    lb, db, b = _g_exact(k2, x2, cutoff)
    grid = math.lcm(la, lb)
    jmax, stride = math.floor(cutoff * grid), grid // la
    b_terms = [(jb * (grid // lb), nb) for jb, nb in b.items()]
    out: dict[int, int] = {}
    # b in its generator order, which is not sorted: the keys of ``out`` are
    # inserted in order of first appearance, and that order decides which of
    # several equal worst terms _exact_residual names
    for ja, na in a.items():
        ja *= stride
        for jb, nb in b_terms:
            j = ja + jb
            if j > jmax:
                continue
            out[j] = out.get(j, 0) + na * nb
    return grid, da * db, out


def _exact_residual(name: str, parts: list[tuple[int, ExactSeries]]) -> IdentityReport:
    """Largest |coefficient| of sum(sign * series); the first reached wins ties."""
    grid = math.lcm(*(L for _, (L, _, _) in parts))
    den = math.lcm(*(D for _, (_, D, _) in parts))
    combo: dict[int, int] = {}
    for sign, (L, D, terms) in parts:
        stride, factor = grid // L, sign * (den // D)
        for j, n in terms.items():
            key = j * stride
            combo[key] = combo.get(key, 0) + factor * n
    worst_key, worst = None, 0
    for key, n in combo.items():
        if abs(n) > worst:
            worst, worst_key = abs(n), key
    where = (Fraction(worst_key, grid), 0) if worst_key is not None else None
    return IdentityReport(name, float(Fraction(worst, den)), where)


# ---------------------------------------------------------------------------
# Pairwise-product relations
# ---------------------------------------------------------------------------


def check_bg_e(
    x: EllipticParam, y: EllipticParam, cutoff: Fraction = DEFAULT_CUTOFF
) -> IdentityReport:
    """Weight-3 relation among E-products:

    E1_z E2_y - E1_y E2_x - E1_z E2_x + E1_y E2_z = E3_x - E3_y/2 - E3_z/2,
    with z = -x-y and all of x, y, z nonzero.
    """
    z = -(x + y)
    for p in (x, y, z):
        if p.is_zero:
            raise ValueError("x, y and z = -x-y must all be nonzero")
    e1y, e1z = e_series(1, y, cutoff), e_series(1, z, cutoff)
    e2x, e2y, e2z = (e_series(2, p, cutoff) for p in (x, y, z))
    products = _mul_pairs([(e1z, e2y), (e1y, e2x), (e1z, e2x), (e1y, e2z)])
    combo = (
        products[0]
        - products[1]
        - products[2]
        + products[3]
        - e_series(3, x, cutoff)
        + e_series(3, y, cutoff).scale(0.5)
        + e_series(3, z, cutoff).scale(0.5)
    )
    return _series_residual(f"bg_e({x},{y})", combo)


def check_bg_g1(
    x1: Fraction,
    y1: Fraction,
    u2: Fraction,
    v2: Fraction,
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> IdentityReport:
    """Four-term relation among G1 * G2 products:

    G1_{x1+y1,u2} G2_{y1,v2-u2} + G1_{y1,v2} G2_{x1,u2}
      - G1_{x1+y1,v2} G2_{x1,u2-v2} - G1_{y1,v2-u2} G2_{x1+y1,u2} = 0,
    for x1, y1, u2, v2 nonzero with x1+y1 != 0 and u2-v2 != 0.
    """
    x1, y1, u2, v2 = (Fraction(t) % 1 for t in (x1, y1, u2, v2))
    if 0 in (x1, y1, u2, v2):
        raise ValueError("x1, y1, u2, v2 must be nonzero mod 1")
    if (x1 + y1) % 1 == 0 or (u2 - v2) % 1 == 0:
        raise ValueError("need x1 + y1 != 0 and u2 - v2 != 0 mod 1")
    P = EllipticParam
    parts = [
        (sign, _g_exact_product(1, p1, 2, p2, cutoff))
        for sign, (p1, p2) in (
            (1, (P(x1 + y1, u2), P(y1, v2 - u2))),
            (1, (P(y1, v2), P(x1, u2))),
            (-1, (P(x1 + y1, v2), P(x1, u2 - v2))),
            (-1, (P(y1, v2 - u2), P(x1 + y1, u2))),
        )
    ]
    return _exact_residual(f"bg_g1({x1},{y1},{u2},{v2})", parts)


def check_bg_g2(
    u1: Fraction, u2: Fraction, cutoff: Fraction = DEFAULT_CUTOFF
) -> IdentityReport:
    """Special-care relation G1_u G2_{u1,-u2} - G1_{u1,-u2} G2_u = G3_{0,u2}."""
    u1, u2 = Fraction(u1) % 1, Fraction(u2) % 1
    if u1 == 0:
        raise ValueError("u1 must be nonzero mod 1")
    P = EllipticParam
    parts = [
        (1, _g_exact_product(1, P(u1, u2), 2, P(u1, -u2), cutoff)),
        (-1, _g_exact_product(1, P(u1, -u2), 2, P(u1, u2), cutoff)),
        (-1, _g_exact(3, P(Fraction(0), u2), cutoff)),
    ]
    return _exact_residual(f"bg_g2({u1},{u2})", parts)


# ---------------------------------------------------------------------------
# Dilogarithm sums
# ---------------------------------------------------------------------------


def check_dilog_sum(n: int, u: complex) -> IdentityReport:
    """| sum over v^n = 1 of D((1-v)/(1-u)) - (n/2) D(u) | for u^n = 1, u != 1."""
    if n <= 1:
        raise ValueError("n must be > 1")
    u = complex(u)
    if abs(u - 1.0) < 1e-12:
        raise ValueError("u must differ from 1")
    total = 0.0
    for j in range(n):
        v = cmath.exp(2j * math.pi * j / n)
        total += bloch_wigner((1.0 - v) / (1.0 - u))
    return IdentityReport(f"dilog_sum(n={n})", abs(total - 0.5 * n * bloch_wigner(u)))


# ---------------------------------------------------------------------------
# Shuffle ledger
# ---------------------------------------------------------------------------


def _tail_function(letter: AdmissibleForm) -> tuple[TauQSeries, TauQSeries]:
    """Both-sided expansion of J(tau) = int_tau^oo of a single letter.

    The pullback J(-1/tau) is the tail integral of the pulled-back letter
    plus the constant int_0^oo (the regularised value of J at 0).
    """
    inf = word_integral_to_infinity([letter])
    const = word_integral_zero_to_infinity([letter])
    zero = word_integral_to_infinity([letter.sigma_pullback()])
    zero = zero + one_series(zero.cutoff).scale(const)
    return inf, zero


def _a3_forms(
    a: EllipticParam, b: EllipticParam, c: EllipticParam, cutoff: Fraction
) -> list[AdmissibleForm]:
    """The 12 composite forms J_x J_y dlog|g_z| of the log-product term.

    With J_p = int_tau^oo dlog|g_p| one has log|g_p| = -J_p (interior
    coordinates), so the piece int_0^oo log|g_x| alpha(g_y ^ g_z) is
    -(x, y, z) + (x, z, y); the pieces are taken at x = b and x = a for
    (y, z) in ((a, b), (b, c), (c, a)), in that order.  J_p is built once per
    parameter.  Each side of a form is (letter z * J_x) * J_y, and each of
    the two steps is one stacked product over all the forms.
    """
    letters = {p: siegel_letter(p, "plus", cutoff) for p in (a, b, c)}
    tails = {p: _tail_function(letter) for p, letter in letters.items()}
    sides = {p: (letter.inf_side, letter.zero_side) for p, letter in letters.items()}
    pieces = [(x, y, z) for y, z in ((a, b), (b, c), (c, a)) for x in (b, a)]
    triples = [t for x, y, z in pieces for t in ((x, y, z), (x, z, y))]
    steps = [(x, y, z, k) for x, y, z in triples for k in (0, 1)]
    products = _mul_pairs([(sides[z][k], tails[x][k]) for x, _, z, k in steps])
    products = _mul_pairs([(f, tails[y][k]) for f, (_, y, _, k) in zip(products, steps)])
    return [AdmissibleForm(inf, zero) for inf, zero in zip(products[::2], products[1::2])]


def _a3_direct(
    a: EllipticParam, b: EllipticParam, c: EllipticParam, cutoff: Fraction
) -> float:
    """The log-product term through its 12 composite forms, in one pass:
    (1/3) sum over (y, z) in ((a,b), (b,c), (c,a)) of the piece at x = b
    minus the piece at x = a."""
    forms = _a3_forms(a, b, c, cutoff)
    values = [v for v, _ in word_integrals_zero_to_infinity([[form] for form in forms])]
    piece = [(-first + second).real for first, second in zip(values[::2], values[1::2])]
    total = 0.0
    for n in range(0, len(piece), 2):
        total += piece[n] - piece[n + 1]
    return total / 3.0


def check_shuffle_ledger(
    a: EllipticParam, b: EllipticParam, cutoff: Fraction = DEFAULT_CUTOFF
) -> list[IdentityReport]:
    """Residuals of the signed-value shuffle identities and the two collapse
    formulas for the middle and log-product terms of the triple expansion.

    All coordinates of a, b and c = -(a+b) must be nonzero.  The identities
    read their words through ``ls`` (signed) and ``lam`` (holomorphic): a
    first pass with recording readers lists the words, one engine call
    evaluates them all, and a second pass combines the values.
    """
    c = -(a + b)
    for p in (a, b, c):
        if p.has_zero_coord:
            raise ValueError("the ledger needs interior coordinates")
    signed: dict = {}
    plain: dict = {}
    _shuffle_identities(
        a,
        b,
        c,
        lambda params, signs: signed.setdefault((tuple(params), signs), 0.0),
        lambda params: plain.setdefault(tuple(params), 0j),
        0.0,
    )
    letter = {
        (p, sign): siegel_letter(p, channel, cutoff)
        for p in (a, b, c)
        for sign, channel in (("+", "plus"), ("-", "minus"))
    }
    words = [[letter[p, s] for p, s in zip(params, signs)] for params, signs in signed]
    words += [[siegel_letter(p, "holomorphic", cutoff) for p in params] for params in plain]
    results = iter(lambda_words(words))
    signed = {key: next(results).value.real for key in signed}
    plain = {key: next(results).value for key in plain}
    return _shuffle_identities(
        a,
        b,
        c,
        lambda params, signs: signed[tuple(params), signs],
        lambda params: plain[tuple(params)],
        _a3_direct(a, b, c, cutoff),
    )


def _shuffle_identities(a, b, c, ls, lam, a3_direct: float) -> list[IdentityReport]:
    """The ledger's reports from the word readers ``ls`` and ``lam`` and the
    direct log-product term."""

    def lambda1(x, y, z):
        return (
            ls([x, y, z], "+--") + ls([x, y, z], "-+-") + ls([x, y, z], "--+")
        )

    reports = []

    # relation specialised at z = x:
    # L--+(x,y,x) + L-+-(y,x,x) + L--+(y,x,x) = L-(x) L-+(y,x)
    x, y = a, b
    r = (
        ls([x, y, x], "--+")
        + ls([y, x, x], "-+-")
        + ls([y, x, x], "--+")
        - ls([x], "-") * ls([y, x], "-+")
    )
    reports.append(IdentityReport("shuffle2", abs(r)))

    # L-+-(x,z,x) + 2 L--+(x,x,z) = L-(x) L-+(x,z)
    x, z = a, b
    r = (
        ls([x, z, x], "-+-")
        + 2.0 * ls([x, x, z], "--+")
        - ls([x], "-") * ls([x, z], "-+")
    )
    reports.append(IdentityReport("shuffle3", abs(r)))

    # L-+-(x,z,x) + 2 L+--(z,x,x) = L-(x) L+-(z,x)
    r = (
        ls([x, z, x], "-+-")
        + 2.0 * ls([z, x, x], "+--")
        - ls([x], "-") * ls([z, x], "+-")
    )
    reports.append(IdentityReport("shuffle6", abs(r)))

    # L--+(x,x,z) = L+--(z,x,x) + (1/2) L-(x) (L-+(x,z) - L+-(z,x))
    r = (
        ls([x, x, z], "--+")
        - ls([z, x, x], "+--")
        - 0.5 * ls([x], "-") * (ls([x, z], "-+") - ls([z, x], "+-"))
    )
    reports.append(IdentityReport("shuffle7", abs(r)))

    # L--+(b,c,a) = L-(b) L-+(c,a) - L--+(c,b,a) - L-+-(c,a,b)
    r = (
        ls([b, c, a], "--+")
        - ls([b], "-") * ls([c, a], "-+")
        + ls([c, b, a], "--+")
        + ls([c, a, b], "-+-")
    )
    reports.append(IdentityReport("shuffle8", abs(r)))

    # mirrored version with a and b exchanged
    r = (
        ls([a, c, b], "--+")
        - ls([a], "-") * ls([c, b], "-+")
        + ls([c, a, b], "--+")
        + ls([c, b, a], "-+-")
    )
    reports.append(IdentityReport("shuffle9", abs(r)))

    # L--+(b,a,c) + L--+(a,b,c)
    #   = L-(b) L-+(a,c) - L-(a) L+-(c,b) + L+--(c,a,b) + L+--(c,b,a)
    r = (
        ls([b, a, c], "--+")
        + ls([a, b, c], "--+")
        - ls([b], "-") * ls([a, c], "-+")
        + ls([a], "-") * ls([c, b], "+-")
        - ls([c, a, b], "+--")
        - ls([c, b, a], "+--")
    )
    reports.append(IdentityReport("shuffle10", abs(r)))

    # middle term, directly expanded (12 signed triples) ...
    a2_direct = 0.0
    for yy, zz in ((a, b), (b, c), (c, a)):
        for x_arg, sgn in ((b, 1.0), (a, -1.0)):
            a2_direct += sgn * (
                ls([x_arg, yy, zz], "--+") - ls([x_arg, zz, yy], "--+")
            )
    # ... against its shuffle-collapsed closed form
    im_sum = (lam([a, b]) + lam([b, c]) + lam([c, a])).imag
    a2_closed = (
        -lambda1(a, b, b)
        + lambda1(c, b, b)
        - lambda1(b, a, a)
        + lambda1(c, a, a)
        - lambda1(c, b, a)
        - lambda1(c, a, b)
        + (ls([b], "-") - ls([a], "-")) * im_sum
    )
    reports.append(
        IdentityReport(
            "a2_collapse",
            abs(a2_direct - a2_closed),
            details={"direct": a2_direct, "closed": a2_closed},
        )
    )

    # log-product term: the direct composite-form route against the
    # six-term collapse
    a3_closed = (
        ls([a, b, b], "+++")
        - ls([c, b, b], "+++")
        + ls([c, a, b], "+++")
        + ls([c, b, a], "+++")
        + ls([b, a, a], "+++")
        - ls([c, a, a], "+++")
    )
    reports.append(
        IdentityReport(
            "a3_collapse",
            abs(a3_direct - a3_closed),
            details={"direct": a3_direct, "closed": a3_closed},
        )
    )
    return reports
