"""Regulator integrals on Y(N) along the imaginary axis.

Two independent pipelines compute the weight-3 regulator integral G(a, b)
attached to the pair of N-torsion parameters (a, b), with c = -(a + b):

* ``goncharov_mev``   -- the triple-value expression
  Re( L(a,b,b) - L(c,b,b) + L(b,a,a) - L(c,a,a) + L(c,b,a) + L(c,a,b)
      - (L(b) - L(a)) (L(a,b) + L(b,c) + L(c,a)) )
  where L is the normalised multiple Eisenstein value of the indicated word.

* ``goncharov_lvalue`` -- the L-value expression
  -(3 pi / 2) M(G1_{a1,b2} G1_{b1,-a2} + G1_{a1,-b2} G1_{b1,a2}, -1)
  minus the zeta(3)/4 Bernoulli combination
  B2(a1) + B2(b1) + 4 B1(a1) B1(b1) - B2(a2) - B2(b2) - 4 B1(a2) B1(b2)
  (fractional parts throughout).

``beilinson`` is the companion regulator -(9 pi / N^2) M(same product, -1);
the bridge between the two is G = (N^2/6) B - zeta(3)-term.  All formulas
require the coordinates of a, b and a + b to be nonzero; the constraint is
validated up front together with the connected-component label D_{±±} of
({a1}+{b1}, {a2}+{b2}) relative to 1.

``k2_regulator`` is the weight-2 toy case
Im L(a,b) - L+(a) L-(b) + R_a L-(b) - R_b L-(a) with R_x the real part of
the Siegel-log constant term; for interior coordinates it reduces to
Im L(a,b).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mevreg.eisenstein import DEFAULT_CUTOFF, EllipticParam, log_siegel_series
from mevreg.mellin import im_i_direct, mellin_numeric, swap_form
from mevreg.mev import lambda_word
from mevreg.regint import siegel_letter, word_integral_zero_to_infinity
from mevreg.specfun import ZETA3, ZETA_PRIME_MINUS2, bernoulli_poly

__all__ = [
    "RegulatorReport",
    "beilinson",
    "dg_da2",
    "goncharov_lvalue",
    "goncharov_mev",
    "k2_regulator",
    "regulator_report",
    "zeta3_term",
]

TWO_PI = 2.0 * math.pi

_TRUNCATION_CEILING = 1e-11


def _require_interior(*params: EllipticParam) -> None:
    for p in params:
        if p.has_zero_coord:
            raise ValueError(
                f"parameter {p} has a zero coordinate; the formulas need "
                "the coordinates of a, b and a+b nonzero"
            )


def component_label(a: EllipticParam, b: EllipticParam) -> str:
    """Connected component D_{±±}: signs of {a1}+{b1}-1 and {a2}+{b2}-1."""
    s1 = "+" if a.x1 + b.x1 > 1 else "-"
    s2 = "+" if a.x2 + b.x2 > 1 else "-"
    return f"D{s1}{s2}"


# ---------------------------------------------------------------------------
# MEV pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _MevBreakdown:
    triples: dict
    doubles: dict
    singles: dict
    truncation_bound: float


def _goncharov_mev_parts(
    a: EllipticParam, b: EllipticParam, cutoff: Fraction
) -> tuple[float, _MevBreakdown]:
    c = -(a + b)
    _require_interior(a, b, c)
    letters = {p: siegel_letter(p, "holomorphic", cutoff) for p in {a, b, c}}

    def word(*ps: EllipticParam):
        return lambda_word([letters[p] for p in ps])

    triple_keys = [(a, b, b), (c, b, b), (b, a, a), (c, a, a), (c, b, a), (c, a, b)]
    triple_signs = [1.0, -1.0, 1.0, -1.0, 1.0, 1.0]
    triples = {}
    bound = 0.0
    total = 0.0 + 0.0j
    for key, sign in zip(triple_keys, triple_signs):
        res = word(*key)
        triples["L(%s,%s,%s)" % key] = res.value
        bound += res.truncation_bound
        total += sign * res.value
    doubles = {}
    dsum = 0.0 + 0.0j
    for key in [(a, b), (b, c), (c, a)]:
        res = word(*key)
        doubles["L(%s,%s)" % key] = res.value
        bound += res.truncation_bound
        dsum += res.value
    singles = {}
    for p, name in ((a, "a"), (b, "b")):
        res = word(p)
        singles[f"L({name})"] = res.value
        bound += res.truncation_bound
    total -= (singles["L(b)"] - singles["L(a)"]) * dsum
    if bound > _TRUNCATION_CEILING:
        raise ArithmeticError(
            f"truncation bound {bound:.3e} exceeds the 1e-11 reporting ceiling"
        )
    return total.real, _MevBreakdown(triples, doubles, singles, bound)


def goncharov_mev(
    a: EllipticParam, b: EllipticParam, cutoff: Fraction = DEFAULT_CUTOFF
) -> float:
    """Triple-value pipeline for the weight-3 regulator integral."""
    value, _ = _goncharov_mev_parts(a, b, cutoff)
    return value


# ---------------------------------------------------------------------------
# L-value pipeline
# ---------------------------------------------------------------------------


def zeta3_term(a: EllipticParam, b: EllipticParam) -> float:
    """(zeta(3)/4) (B2(a1) + B2(b1) + 4 B1(a1) B1(b1) - same in the x2 slots)."""

    def half(u: Fraction, v: Fraction) -> float:
        return (
            bernoulli_poly(2, u)
            + bernoulli_poly(2, v)
            + 4.0 * bernoulli_poly(1, u) * bernoulli_poly(1, v)
        )

    return 0.25 * ZETA3 * (half(a.x1, b.x1) - half(a.x2, b.x2))


def _lvalue_mellin(
    a: EllipticParam, b: EllipticParam, cutoff: Fraction
) -> complex:
    """M(G1_{a1,b2} G1_{b1,-a2} + G1_{a1,-b2} G1_{b1,a2}, -1)."""
    res = mellin_numeric(swap_form(a, b, 1, 1, cutoff), -1.0)
    if res.is_constant_term_of_laurent:
        raise ZeroDivisionError("unexpected pole at s = -1")
    return res.value


def _lvalue_from_mellin(a: EllipticParam, b: EllipticParam, m_val: complex) -> float:
    """-(3 pi / 2) Re M - zeta3_term; rejects a Mellin value that is not real."""
    value = -1.5 * math.pi * m_val.real - zeta3_term(a, b)
    if abs(m_val.imag) > 1e-8 * max(1.0, abs(m_val.real)):
        raise ArithmeticError(f"nonreal Mellin value {m_val}")
    return value


def _torsion_level(a: EllipticParam, b: EllipticParam, level: Optional[int]) -> int:
    """The level N of the pair (lcm of the denominators unless given); a, b must be N-torsion."""
    n_lv = level if level is not None else math.lcm(a.level(), b.level())
    for p in (a, b):
        if (p.x1 * n_lv).denominator != 1 or (p.x2 * n_lv).denominator != 1:
            raise ValueError(f"{p} is not {n_lv}-torsion")
    return n_lv


def goncharov_lvalue(
    a: EllipticParam, b: EllipticParam, cutoff: Fraction = DEFAULT_CUTOFF
) -> float:
    """L-value pipeline for the same regulator integral."""
    c = -(a + b)
    _require_interior(a, b, c)
    return _lvalue_from_mellin(a, b, _lvalue_mellin(a, b, cutoff))


def beilinson(
    a: EllipticParam,
    b: EllipticParam,
    level: Optional[int] = None,
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> float:
    """The companion regulator -(9 pi / N^2) M(G1G1-sum, -1) at level N."""
    c = -(a + b)
    _require_interior(a, b, c)
    n_lv = _torsion_level(a, b, level)
    m_val = _lvalue_mellin(a, b, cutoff)
    return -(9.0 * math.pi / n_lv**2) * m_val.real


# ---------------------------------------------------------------------------
# a2-derivative: three routes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivativeComparison:
    finite_difference: float
    iterated_integral: float
    mellin_closed: float

    @property
    def spread(self) -> float:
        vals = (self.finite_difference, self.iterated_integral, self.mellin_closed)
        return max(vals) - min(vals)


def dg_da2(
    a: EllipticParam,
    b: EllipticParam,
    step: Fraction = Fraction(1, 4096),
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> DerivativeComparison:
    """d/d(a2) of the regulator integral, three ways.

    (i) central finite difference of ``goncharov_mev`` at the given step;
    (ii) 2 pi * (-4 pi^2) Im of the weight-(2,3) iterated integral of
         (w_a - w_b)(w3_b - w3_a/2 - w3_c/2), through the exponent-swap
         building block ``im_i_direct``;
    (iii) the reduced closed form
         -3 pi^2 M(G1_{a1,b2} G2_{b1,-a2} - G1_{a1,-b2} G2_{b1,a2}, 0)
         + pi^2 (M(G3_{0,a2}, 0) + 2 M(G3_{0,b2}, 0)),
         with M(G3_{0,x}, 0) = -2 zeta'(-2) B1({x}).

    The finite difference must stay inside one connected component.
    """
    c = -(a + b)
    _require_interior(a, b, c)
    for eps in (step, -step):
        shifted = EllipticParam(a.x1, a.x2 + eps)
        _require_interior(shifted, b, -(shifted + b))
        if component_label(shifted, b) != component_label(a, b):
            raise ValueError("finite-difference step crosses a component boundary")

    h = float(step)
    g_plus = goncharov_mev(EllipticParam(a.x1, a.x2 + step), b, cutoff)
    g_minus = goncharov_mev(EllipticParam(a.x1, a.x2 - step), b, cutoff)
    fd = (g_plus - g_minus) / (2.0 * h)

    # Bilinear expansion of Im int (w_a - w_b)(w3_b - w3_a/2 - w3_c/2) into
    # the block Im I(u, v) = Im int E2_u * Eichler(E3_v) dy.  Each word
    # integral is -I(u, v)/(2 pi), and the derivative carries the overall
    # 2 pi * (-4 pi^2), so the total collapses to 4 pi^2 * sum of Im I.
    combo = 0.0
    for u, su in ((a, 1.0), (b, -1.0)):
        for v, sv in ((b, 1.0), (a, -0.5), (c, -0.5)):
            combo += su * sv * im_i_direct(u, v, 3, cutoff)
    iterated = 4.0 * math.pi**2 * combo

    m0 = mellin_numeric(swap_form(a, b, 2, -1, cutoff), 0.0).value.real
    g3 = -2.0 * ZETA_PRIME_MINUS2 * (
        bernoulli_poly(1, a.x2) + 2.0 * bernoulli_poly(1, b.x2)
    )
    closed = -3.0 * math.pi**2 * m0 + math.pi**2 * g3
    return DerivativeComparison(fd, iterated, closed)


# ---------------------------------------------------------------------------
# Weight-2 toy case
# ---------------------------------------------------------------------------


def _siegel_log_inf_real(x: EllipticParam) -> float:
    """R_x: real part of the constant term of the Siegel-unit log."""
    return log_siegel_series(x, Fraction(1)).coeff(0, 0).real


def k2_regulator(
    a: EllipticParam, b: EllipticParam, cutoff: Fraction = DEFAULT_CUTOFF
) -> float:
    """Im L(a,b) - L+(a) L-(b) + R_a L-(b) - R_b L-(a), any nonzero a, b.

    Zero coordinates are allowed here, so the double value is taken from
    the engine directly rather than through the interior-only API.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("parameters must be nonzero")
    la = siegel_letter(a, "holomorphic", cutoff)
    lb = siegel_letter(b, "holomorphic", cutoff)
    double = word_integral_zero_to_infinity([la, lb])
    plus_a = word_integral_zero_to_infinity([siegel_letter(a, "plus", cutoff)]).real
    minus_b = word_integral_zero_to_infinity([siegel_letter(b, "minus", cutoff)]).real
    minus_a = word_integral_zero_to_infinity([siegel_letter(a, "minus", cutoff)]).real
    r_a = _siegel_log_inf_real(a)
    r_b = _siegel_log_inf_real(b)
    return double.imag - plus_a * minus_b + r_a * minus_b - r_b * minus_a


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegulatorReport:
    a: EllipticParam
    b: EllipticParam
    c: EllipticParam
    level: int
    component: str
    g_mev: float
    g_lvalue: float
    beilinson: float
    zeta3_term: float
    residual_thm1: float
    residual_thm2: float
    truncation_bound: float
    lambda_breakdown: dict

    def to_dict(self) -> dict:
        def frac_pair(p: EllipticParam):
            return [str(p.x1), str(p.x2)]

        return {
            "schema": 1,
            "a": frac_pair(self.a),
            "b": frac_pair(self.b),
            "c": frac_pair(self.c),
            "level": self.level,
            "component": self.component,
            "g_mev": self.g_mev,
            "g_lvalue": self.g_lvalue,
            "beilinson": self.beilinson,
            "zeta3_term": self.zeta3_term,
            "residual_thm1": self.residual_thm1,
            "residual_thm2": self.residual_thm2,
            # measured ratio between the L-parts of the two regulators;
            # expected N^2/6, with the overall +-2 normalisation of the
            # comparison map left unresolved
            "measured_ratio": (
                (self.g_mev + self.zeta3_term) / self.beilinson
                if abs(self.beilinson) > 1e-14
                else None
            ),
            "truncation_bound": self.truncation_bound,
            "lambda_breakdown": {
                k: [v.real, v.imag] for k, v in sorted(self.lambda_breakdown.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def regulator_report(
    a: EllipticParam,
    b: EllipticParam,
    level: Optional[int] = None,
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> RegulatorReport:
    """Both pipelines, the companion regulator, and the two bridge residuals."""
    c = -(a + b)
    _require_interior(a, b, c)
    n_lv = _torsion_level(a, b, level)
    g1, parts = _goncharov_mev_parts(a, b, cutoff)
    # one Mellin value feeds both the L-value pipeline and the companion regulator
    m_val = _lvalue_mellin(a, b, cutoff)
    g2 = _lvalue_from_mellin(a, b, m_val)
    bl = -(9.0 * math.pi / n_lv**2) * m_val.real
    z3 = zeta3_term(a, b)
    breakdown = {}
    breakdown.update(parts.triples)
    breakdown.update(parts.doubles)
    breakdown.update(parts.singles)
    return RegulatorReport(
        a=a,
        b=b,
        c=c,
        level=n_lv,
        component=component_label(a, b),
        g_mev=g1,
        g_lvalue=g2,
        beilinson=bl,
        zeta3_term=z3,
        residual_thm1=abs(g1 - g2),
        residual_thm2=abs(g1 - (n_lv**2 / 6.0) * bl + z3),
        truncation_bound=parts.truncation_bound,
        lambda_breakdown=breakdown,
    )
