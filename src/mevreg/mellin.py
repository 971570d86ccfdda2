"""Generalised Mellin transforms M(f, s) = int_0^oo f(iy) y^{s-1} dy.

Two pipelines:

* ``mellin_eisenstein_closed`` -- the classical closed form for a single
  series of family E or G: a product of Gamma, Hurwitz-zeta and
  periodic-zeta factors, continued to all s.  At a point where a factor is
  singular the Laurent constant term M* is produced by Richardson
  extrapolation of the even part at s0 +/- h, h = 1e-3 and 2e-3 (accuracy
  degrades to ~1e-8 there).

* ``mellin_numeric`` -- analytic continuation of an arbitrary admissible
  form by splitting at y = 1:  the [1, oo) piece is a sum of upper
  incomplete gamma terms over the inf-side series, the (0, 1] piece maps
  under y -> 1/y onto the zero-side series with s reflected.  Each side and
  tau power takes one ``upper_incomplete_gamma_grid`` call over its points
  2 pi j / L, and all terms are summed with ``math.fsum`` (at level 97 they
  reach 2.5 against a value of 0.36).  Polynomial strata contribute exact
  rational terms -c i^m/(s+m) (inf side) and +d i^{m'}/(m'+2-s) (zero
  side); at a pole those terms are dropped into the residue and the
  remainder is the exact Laurent constant term.

The two-sided forms (``eisenstein_form``, ``g_product_form`` and the
exponent-swapped ``swap_form``) are built by ``regint.product_form``, which
reads their sigma sides from ``eisenstein.sigma_companion``.

Products of two Eisenstein series are always continued numerically, never
symbolically; the constant-term algebra of the reduction to L-values is
exercised as cancellation tests instead of being part of the computation
path.

L-values follow the convention L(f, s) = sum a_n (n/N)^{-s} for
f = sum a_n q^{n/N}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from mevreg.eisenstein import DEFAULT_CUTOFF, EisensteinSpec, EllipticParam
from mevreg.regint import (
    AdmissibleForm,
    modular_letter,
    product_form,
    word_integral_zero_to_infinity,
)
from mevreg.specfun import (
    _real_pow,
    gamma_fn,
    hurwitz_zeta,
    periodic_zeta,
    upper_incomplete_gamma_grid,
)

__all__ = [
    "MellinResult",
    "eisenstein_form",
    "g_product_form",
    "im_i_direct",
    "im_i_rz",
    "l_deriv_weight2_at_minus1",
    "laurent_constant",
    "mellin_eisenstein_closed",
    "mellin_numeric",
    "swap_form",
]

TWO_PI = 2.0 * math.pi

_RICHARDSON_H = 1e-3


@dataclass(frozen=True)
class MellinResult:
    """Value of M(f, s); at a flagged pole the Laurent constant term M*."""

    value: complex
    is_constant_term_of_laurent: bool = False
    pole_residue: Optional[complex] = None


def laurent_constant(
    fn: Callable[[complex], complex], s0: complex, h: float = _RICHARDSON_H
) -> tuple[complex, complex]:
    """(constant term, residue) of a simple-pole Laurent expansion at s0.

    Even/odd Richardson at offsets h and 2h: the even part kills the pole
    and converges to the constant term at O(h^4); the odd part recovers the
    residue.
    """
    fp1, fm1 = fn(s0 + h), fn(s0 - h)
    fp2, fm2 = fn(s0 + 2 * h), fn(s0 - 2 * h)
    e1, e2 = 0.5 * (fp1 + fm1), 0.5 * (fp2 + fm2)
    o1, o2 = 0.5 * (fp1 - fm1), 0.5 * (fp2 - fm2)
    const = (4.0 * e1 - e2) / 3.0
    residue = (4.0 * h * o1 - 2.0 * h * o2) / 3.0
    return const, residue


# ---------------------------------------------------------------------------
# Closed forms for single series
# ---------------------------------------------------------------------------


def _closed_value(family: str, k: int, x: EllipticParam, s: complex) -> complex:
    pref = (TWO_PI) ** (-s) * gamma_fn(s)
    if family == "E":
        return pref * (
            -hurwitz_zeta(x.x1, s - k + 1) * periodic_zeta(x.x2, s)
            + (-1) ** (k + 1) * hurwitz_zeta(-x.x1, s - k + 1) * periodic_zeta(-x.x2, s)
        )
    return pref * (
        hurwitz_zeta(x.x1, s - k + 1) * hurwitz_zeta(x.x2, s)
        + (-1) ** k * hurwitz_zeta(-x.x1, s - k + 1) * hurwitz_zeta(-x.x2, s)
    )


def _closed_factor_singular(family: str, k: int, x: EllipticParam, s: complex) -> bool:
    if s.imag == 0 and s.real == round(s.real):
        sr = int(round(s.real))
        if sr <= 0:  # Gamma pole
            return True
        if sr == k:  # first Hurwitz argument hits 1
            return True
        if sr == 1 and (family == "G" or x.x2 == 0):
            return True
    return False


def mellin_eisenstein_closed(spec: EisensteinSpec, s: complex) -> MellinResult:
    """Closed-form M for a single series of family E or G.

    When a Gamma/zeta factor is singular at s the value returned is the
    Laurent constant term M*(f, s) (together with the residue when the
    combination genuinely has a pole).
    """
    if spec.family not in ("E", "G"):
        raise ValueError("closed Mellin forms exist for families E and G only")
    k, x = spec.weight, spec.param
    s = complex(s)
    if not _closed_factor_singular(spec.family, k, x, s):
        return MellinResult(_closed_value(spec.family, k, x, s))
    const, residue = laurent_constant(
        lambda w: _closed_value(spec.family, k, x, w), s
    )
    pole = residue if abs(residue) > 1e-6 * max(1.0, abs(const)) else None
    return MellinResult(const, True, pole)


# ---------------------------------------------------------------------------
# Numeric continuation for admissible forms
# ---------------------------------------------------------------------------


def mellin_numeric(form: AdmissibleForm, s: complex) -> MellinResult:
    """Incomplete-gamma continuation of M for a two-sided admissible form.

    Exact at poles: contributions whose rational term 1/(s - s0) blows up
    are diverted into the residue, everything else is the constant term.
    """
    s = complex(s)
    inf, zero = form.inf_side, form.zero_side
    if not inf.j.any():
        # Pure polynomial: the two halves of the split cancel identically.
        return MellinResult(0.0 + 0.0j)
    parts = []
    residue = 0.0 + 0.0j
    # a term c tau^m q^{j/L} of the inf side gives w a^{-r} Gamma(r, a) with
    # w = c i^m, r = s + m, a = 2 pi j / L; the zero side gives minus that at
    # r = m + 2 - s.  At j = 0 the integral is -w / r, or a residue at r = 0.
    for side, sign in ((inf, 1.0), (zero, -1.0)):
        for m in np.unique(side.m).tolist():
            r = s + m if sign > 0 else m + 2 - s
            at_m = side.m == m
            j, w = side.j[at_m], side.c[at_m] * 1j**m
            if j[0] == 0:
                if r == 0:
                    residue -= w[0]
                else:
                    parts.append(np.array([-sign * w[0] / r]))
                j, w = j[1:], w[1:]
            if len(j):
                a = TWO_PI * (j / side.L)
                gamma = upper_incomplete_gamma_grid(r, a)
                parts.append(sign * w * _real_pow(a, -r) * gamma)
    terms = np.concatenate(parts)
    value = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
    if residue != 0:
        return MellinResult(value, True, residue)
    return MellinResult(value)


def _regular_mellin(form: AdmissibleForm, s: float) -> complex:
    """M(form, s) at a point s that must not be a pole of the continuation."""
    res = mellin_numeric(form, s)
    if res.is_constant_term_of_laurent:
        raise ZeroDivisionError(f"unexpected pole at s = {s:g}")
    return res.value


def eisenstein_form(
    spec: EisensteinSpec, cutoff: Fraction = DEFAULT_CUTOFF
) -> AdmissibleForm:
    """Two-sided form f d(tau) for a single series of weight >= 2."""
    return product_form((spec,), cutoff)


def g_product_form(
    factors: Sequence[tuple[int, EllipticParam]],
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> AdmissibleForm:
    """Form (prod_i G^(k_i)_{x_i}) d(tau); its sigma side is the H-product."""
    return product_form([EisensteinSpec("G", k, x) for k, x in factors], cutoff)


def swap_form(
    u: EllipticParam, v: EllipticParam, k: int, sign: int, cutoff: Fraction
) -> AdmissibleForm:
    """The exponent-swapped product
    G^(1)_{u1,v2} G^(k)_{v1,-u2} + sign * G^(1)_{u1,-v2} G^(k)_{v1,u2}.
    """
    first = g_product_form(
        [(1, EllipticParam(u.x1, v.x2)), (k, EllipticParam(v.x1, -u.x2))], cutoff
    )
    second = g_product_form(
        [(1, EllipticParam(u.x1, -v.x2)), (k, EllipticParam(v.x1, u.x2))], cutoff
    )
    return first + second.scale(sign)


# ---------------------------------------------------------------------------
# L-value derivative and the exponent-swap identity
# ---------------------------------------------------------------------------


def l_deriv_weight2_at_minus1(
    x: EllipticParam, y: EllipticParam, cutoff: Fraction = DEFAULT_CUTOFF
) -> float:
    """L'(G^(1);N_x G^(1);N_y, -1) through -(N / 2 pi) M(G_x G_y, -1).

    Both parameters need all coordinates nonzero so that no polynomial
    stratum puts a pole at s = -1.  The product has real level-N Fourier
    coefficients, so the result is real; the imaginary part of the numeric
    continuation is noise and is checked against a loose floor.
    """
    for p in (x, y):
        if p.has_zero_coord:
            raise ValueError("zero coordinates put a pole at s = -1")
    level = math.lcm(x.level(), y.level())
    form = g_product_form([(1, x), (1, y)], cutoff)
    val = -(level / TWO_PI) * _regular_mellin(form, -1.0)
    if abs(val.imag) > 1e-7 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"nonreal L-derivative: {val}")
    return val.real


def im_i_direct(
    u: EllipticParam,
    v: EllipticParam,
    ell: int,
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> float:
    """Im of int_0^oo E^(2)_u(iy) * Eichler(E^(ell)_v)(iy) dy, by the engine.

    Writing the Eichler integral as -int_tau^oo of its differential turns
    the integral into -2 pi times the two-letter regularised word integral
    of (E^(2)_u d tau, E^(ell)_v d tau).
    """
    if ell < 2:
        raise ValueError("the Eichler factor needs weight >= 2")
    if u.has_zero_coord or v.has_zero_coord:
        raise ValueError("coordinates must be nonzero")
    letters = [modular_letter(2, u, 1, cutoff), modular_letter(ell, v, 1, cutoff)]
    w = word_integral_zero_to_infinity(letters)
    return -TWO_PI * w.imag


def im_i_rz(
    u: EllipticParam,
    v: EllipticParam,
    ell: int,
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> float:
    """The exponent-swapped evaluation of the same quantity:

    -1/2 M(G^(1)_{u1,v2} G^(ell-1)_{v1,-u2} - G^(1)_{u1,-v2} G^(ell-1)_{v1,u2}, 0).
    """
    if ell < 2:
        raise ValueError("weight ell must be >= 2")
    if u.has_zero_coord or v.has_zero_coord:
        raise ValueError("coordinates must be nonzero")
    return -0.5 * _regular_mellin(swap_form(u, v, ell - 1, -1, cutoff), 0.0).real
