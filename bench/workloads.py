"""Seeded inputs, the timed call and the output check of each workload.

A workload is a function that takes a ``random.Random`` and returns one
round: a list of :class:`Item`.  Each item holds its inputs, the call that
is timed and the check that its output must pass.  The calls look the
library functions up on their modules when they run, so a traced run sees
the wrapped functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from mevreg import cli, mellin, regulator
from mevreg.eisenstein import EisensteinSpec, EllipticParam
from mevreg.specfun import ZETA_PRIME_MINUS2, bernoulli_poly

# Output checks.  The first three are the library's own acceptance limits.
REPORT_TOL = 1e-7  # residual_thm1 and residual_thm2 of a regulator report
TRUNCATION_CEILING = 1e-11  # truncation_bound of a regulator report
G3_CONSTANT_TOL = 1e-9  # M*(G3_{0,x}, 0) against -2 zeta'(-2) B1(x)
MELLIN_TOL = 1e-10  # closed against numeric, relative to max(1, |closed|)


class CheckFailed(Exception):
    """An output that does not pass its workload's check."""


@dataclass(frozen=True)
class Item:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], float]  # returns the item's residual or raises


# ---------------------------------------------------------------------------
# regulator-pairs
# ---------------------------------------------------------------------------

REGULATOR_LEVELS = (5, 7, 11)


def _interior_pair(rng: random.Random, n: int) -> tuple[EllipticParam, EllipticParam]:
    """Seeded N-torsion pair with all coordinates of a, b and a+b nonzero."""
    while True:
        a = EllipticParam(Fraction(rng.randrange(1, n), n), Fraction(rng.randrange(1, n), n))
        b = EllipticParam(Fraction(rng.randrange(1, n), n), Fraction(rng.randrange(1, n), n))
        if not (a + b).has_zero_coord:
            return a, b


def _check_report(rep) -> float:
    residual = max(rep.residual_thm1, rep.residual_thm2)
    if not (residual < REPORT_TOL and rep.truncation_bound <= TRUNCATION_CEILING):
        raise CheckFailed(
            f"residuals {rep.residual_thm1:.3e}, {rep.residual_thm2:.3e}, "
            f"truncation bound {rep.truncation_bound:.3e}"
        )
    return residual


def regulator_pairs(rng: random.Random) -> list[Item]:
    """One report per level; pairs share no work, so caches never hit."""
    items = []
    for n in REGULATOR_LEVELS:
        a, b = _interior_pair(rng, n)
        items.append(
            Item(
                f"regulator_report(a={a}, b={b}, N={n})",
                lambda a=a, b=b, n=n: regulator.regulator_report(a, b, n),
                _check_report,
            )
        )
    return items


# ---------------------------------------------------------------------------
# mellin-single
# ---------------------------------------------------------------------------

REAL_S = (-2.5, -1.5, -0.5, 0.5, 1.3, 1.7, 2.5, 3.5, 4.25)
COMPLEX_RE = (-0.5, 0.5, 1.5, 2.5)
COMPLEX_IM = (-2.0, -1.1, -0.4, 0.4, 1.1, 3.0)
# Gamma poles, where the closed form returns its Laurent constant term.
LAURENT_S = (0.0, -1.0, -2.0)
MELLIN_LEVELS = tuple(range(5, 14))
# Items of each kind in one round; "g3" is G3_{0,x} at s = 0 (criterion 10).
MELLIN_MIX = (("g3", 9), ("laurent", 9), ("real", 24), ("complex", 18))


def _mellin_pair(spec: EisensteinSpec, s: complex):
    closed = mellin.mellin_eisenstein_closed(spec, s)
    numeric = mellin.mellin_numeric(mellin.eisenstein_form(spec), s)
    return closed, numeric


def _closed_vs_numeric(out) -> float:
    closed, numeric = out
    err = abs(closed.value - numeric.value) / max(1.0, abs(closed.value))
    if not err <= MELLIN_TOL:
        raise CheckFailed(f"closed {closed.value} against numeric {numeric.value}")
    return err


def _check_g3(x2: Fraction) -> Callable[[Any], float]:
    want = -2.0 * ZETA_PRIME_MINUS2 * bernoulli_poly(1, x2)

    def check(out) -> float:
        err = abs(out[0].value - want)
        if not err <= G3_CONSTANT_TOL:
            raise CheckFailed(f"M*(G3, 0) = {out[0].value}, expected {want}")
        return max(err, _closed_vs_numeric(out))

    return check


def _mellin_item(rng: random.Random, kind: str, j: int) -> Item:
    """The j-th item of a kind; levels and families rotate with j."""
    n = MELLIN_LEVELS[j % len(MELLIN_LEVELS)]
    if kind == "g3":
        x2 = Fraction(rng.randrange(1, n), n)
        spec, s, check = EisensteinSpec("G", 3, EllipticParam(0, x2)), 0.0, _check_g3(x2)
    else:
        x = EllipticParam(Fraction(rng.randrange(1, n), n), Fraction(rng.randrange(1, n), n))
        spec = EisensteinSpec("EG"[j % 2], rng.randint(2, 4), x)
        if kind == "laurent":
            s = rng.choice(LAURENT_S)
        elif kind == "real":
            s = rng.choice(REAL_S)
        else:
            s = complex(rng.choice(COMPLEX_RE), rng.choice(COMPLEX_IM))
        check = _closed_vs_numeric
    return Item(f"M({spec}, s={s})", lambda: _mellin_pair(spec, s), check)


def mellin_single(rng: random.Random) -> list[Item]:
    """Closed and numeric Mellin transforms of single series: no products."""
    items = [_mellin_item(rng, kind, j) for kind, count in MELLIN_MIX for j in range(count)]
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

SUITES = ("bg", "shuffle", "rz", "thm1", "thm2", "k2")
VERIFY_LEVELS = (5, 7)


def _verify(suite: str) -> list[tuple[int, str]]:
    """``verify --suite <suite>`` at each level: (exit code, output) per level."""
    runs = []
    for level in VERIFY_LEVELS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["verify", "--suite", suite, "--level", str(level)])
        runs.append((status, out.getvalue()))
    return runs


def _check_verify(runs) -> float:
    residual = 0.0
    for status, text in runs:
        verdicts = json.loads(text)["verdicts"]
        if status != 0 or not verdicts or not all(v.get("pass") is True for v in verdicts):
            raise CheckFailed(f"exit code {status}, verdicts {verdicts}")
        residual = max(residual, *(v["residual"] for v in verdicts))
    return residual


def verify_suites(rng: random.Random) -> list[Item]:
    """Every suite, one item each, verified at levels 5 and 7.

    The suites run in the order of ``verify --suite all``, so the seed does
    not change them.  An item holds both levels of its suite because one
    call of a short suite takes 0.1 to 0.5 s: with one item per call, the
    median item of a round is the mean of one short and one long call, and
    over ten runs of the same code its quartiles lay a quarter of its median
    apart.  Both orders of the twelve calls hit and miss every cache the
    same number of times.
    """
    return [
        Item(
            f"verify --suite {suite} --level {', '.join(map(str, VERIFY_LEVELS))}",
            lambda suite=suite: _verify(suite),
            _check_verify,
        )
        for suite in SUITES
    ]


WORKLOADS: dict[str, Callable[[random.Random], list[Item]]] = {
    "regulator-pairs": regulator_pairs,
    "mellin-single": mellin_single,
    "verify-suites": verify_suites,
}
