"""Multiple Eisenstein values.

``lambda_mev(x_1, ..., x_n)`` is the regularised iterated integral from 0 to
i*oo of the word dlog g_{x_1} ... dlog g_{x_n}; since dlog g_x is
(2 pi i) E^(2)_x d(tau), this equals (2 pi i)^n times the corresponding
iterated integral of the weight-2 letters.  Signed variants integrate the
real/imaginary channels dlog|g| and darg g.  ``lambda_general`` evaluates
words of letters E^(k_i)_{x_i} tau^{m_i - 1} d(tau) for 1 <= m_i <= k_i - 1.

The single values have classical closed forms in terms of Bernoulli
polynomials and logarithms (``lambda_single_closed``); for n = 1 the engine
must reproduce them to 1e-10, which is part of the acceptance suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mevreg.eisenstein import DEFAULT_CUTOFF, EllipticParam, e_series
from mevreg.regint import (
    AdmissibleForm,
    merged_product_letter,
    modular_letter,
    siegel_letter,
    word_integral_zero_to_infinity_with_bound,
)

__all__ = [
    "MAX_MEV_LENGTH",
    "MevResult",
    "lambda_general",
    "lambda_mev",
    "lambda_signed",
    "lambda_single_closed",
    "lambda_word",
    "length_drop_rhs",
]

TWO_PI_I = 2j * math.pi

# longest word of Siegel-unit letters that lambda_mev and lambda_signed take
MAX_MEV_LENGTH = 3

_SIGN_CHANNEL = {"+": "plus", "-": "minus"}


@dataclass(frozen=True)
class MevResult:
    value: complex
    truncation_bound: float
    word_echo: str

    def __post_init__(self):
        if self.truncation_bound < 0:
            raise ValueError("truncation bound must be nonnegative")


def lambda_word(letters: Sequence[AdmissibleForm], tau0_y: float = 1.0) -> MevResult:
    """Regularised int_0^oo of an explicit word of admissible forms."""
    value, bound = word_integral_zero_to_infinity_with_bound(letters, tau0_y)
    echo = " ".join(l.label or "?" for l in letters)
    return MevResult(value, bound, echo)


def lambda_single_closed(x: EllipticParam) -> complex:
    """Closed form of the length-1 value:

    2 pi i ({x1} - 1/2)({x2} - 1/2) when both coordinates are nonzero,
    log|1 - e(x2)| when x1 = 0, and -log|1 - e(x1)| when x2 = 0.
    """
    if x.is_zero:
        raise ValueError("the single value needs a nonzero parameter")
    if x.x1 != 0 and x.x2 != 0:
        return TWO_PI_I * (float(x.x1) - 0.5) * (float(x.x2) - 0.5)
    if x.x1 == 0:
        return complex(math.log(2.0 * math.sin(math.pi * float(x.x2))))
    return complex(-math.log(2.0 * math.sin(math.pi * float(x.x1))))


def lambda_mev(
    params: Sequence[EllipticParam], cutoff: Fraction = DEFAULT_CUTOFF
) -> MevResult:
    """Length-n multiple Eisenstein value over the Siegel-unit letters.

    Parameters with a zero coordinate are accepted only at n = 1; for longer
    words the simplifications downstream all assume interior coordinates,
    and the boundary behaviour is deliberately left out of scope.
    """
    params = tuple(params)
    if not 1 <= len(params) <= MAX_MEV_LENGTH:
        raise ValueError(f"supported lengths are 1..{MAX_MEV_LENGTH}")
    for x in params:
        if x.is_zero:
            raise ValueError("zero parameter is not allowed")
        if len(params) >= 2 and x.has_zero_coord:
            raise ValueError(
                "zero coordinates are only supported for single values"
            )
    letters = [siegel_letter(x, "holomorphic", cutoff) for x in params]
    return lambda_word(letters)


def lambda_signed(
    params: Sequence[EllipticParam],
    signs: Sequence[str],
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> float:
    """Signed value: the word integral over the dlog|g| / darg g channels."""
    params = tuple(params)
    signs = tuple(signs)
    if len(params) != len(signs):
        raise ValueError("need one sign per parameter")
    if not 1 <= len(params) <= MAX_MEV_LENGTH:
        raise ValueError(f"supported lengths are 1..{MAX_MEV_LENGTH}")
    letters = []
    for x, s in zip(params, signs):
        if x.is_zero:
            raise ValueError("zero parameter is not allowed")
        if s not in _SIGN_CHANNEL:
            raise ValueError(f"signs must be '+' or '-', got {s!r}")
        letters.append(siegel_letter(x, _SIGN_CHANNEL[s], cutoff))
    value = lambda_word(letters).value
    # The channel letters are real 1-forms on the axis, so the regularised
    # integral is real; the imaginary residue is numerical noise.
    return value.real


def lambda_general(
    weights: Sequence[int],
    params: Sequence[EllipticParam],
    powers: Optional[Sequence[int]] = None,
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> complex:
    """Word integral with letters E^(k_i)_{x_i} tau^{m_i - 1} d(tau).

    No 2 pi i normalisation is applied; the length-1 closed form is
    (-1)^{m+1} B_{k-m}(x1) B_m(x2) / ((k-m) m) for interior coordinates.
    """
    weights = tuple(weights)
    params = tuple(params)
    powers = tuple(powers) if powers is not None else (1,) * len(weights)
    if not len(weights) == len(params) == len(powers):
        raise ValueError("weights, params and powers must have equal lengths")
    letters = [
        modular_letter(k, x, m, cutoff) for k, x, m in zip(weights, params, powers)
    ]
    return lambda_word(letters).value


def length_drop_rhs(
    params: Sequence[EllipticParam],
    p: int,
    weights: Optional[Sequence[int]] = None,
    cutoff: Fraction = DEFAULT_CUTOFF,
) -> complex:
    """Closed form of d/d(x_{p,2}) of the normalised length-n value.

    Differentiating in the second coordinate of the p-th parameter drops the
    length by one: the letter at p merges with its right neighbour at weight
    k_p - 1, minus the same merge to the left.  At p = n the right merge
    degenerates to a0(E^(k_n - 1)) times the shorter word; at p = 1 the left
    merge is absent.  Returns (2 pi i)^n times the plain-letter combination,
    matching d/d(x_{p2}) lambda_mev for all-weight-2 words.
    """
    params = tuple(params)
    n = len(params)
    weights = tuple(weights) if weights is not None else (2,) * n
    if not 1 <= p <= n:
        raise ValueError("p out of range")
    kp = weights[p - 1]

    def plain(lo: int, hi: int) -> list[AdmissibleForm]:
        return [modular_letter(weights[i], params[i], 1, cutoff) for i in range(lo, hi)]

    scale = (TWO_PI_I) ** n
    if p == n:
        a0 = e_series(kp - 1, params[n - 1], cutoff).coeff(0, 0)
        if n == 1:
            first = a0
        else:
            first = a0 * lambda_word(plain(0, n - 1)).value
    else:
        merged = merged_product_letter(
            [(kp - 1, params[p - 1]), (weights[p], params[p])], cutoff
        )
        first = lambda_word(plain(0, p - 1) + [merged] + plain(p + 1, n)).value
    if p == 1:
        second = 0.0 + 0.0j
    else:
        merged = merged_product_letter(
            [(weights[p - 2], params[p - 2]), (kp - 1, params[p - 1])], cutoff
        )
        second = lambda_word(plain(0, p - 2) + [merged] + plain(p, n)).value
    return scale * (first - second)
