"""Batch command-line front end.

Subcommands:

* ``mev``        -- multiple Eisenstein values for one or more parameter
                    words (``--params "1/4,1/4" "1/5,2/5;3/5,1/5"``).
* ``regulator``  -- the full two-pipeline report for a pair (a, b).
* ``qdump``      -- CSV dump of a q-expansion.
* ``verify``     -- run a verification suite and emit a verdict table;
                    exit status is nonzero iff any residual exceeds the
                    tolerance or an input violates a hypothesis.

Rationals are parsed as ``p/q`` strings, never floats.  Output is
deterministic for a fixed configuration (maps are emitted sorted, floats
via repr).  The environment variable ``MEVREG_PRECISION`` selects the
mpmath working precision used by the dilogarithm backend; a value that is
not a positive integer is an input error (exit status 2), and so are a
``--tol`` that is not finite and positive, a ``--level`` below 2, and a
flag the subcommand would ignore (``--tol`` and ``--level`` on ``mev``,
``--tol`` on ``qdump``, ``--level`` on ``qdump`` outside the GN family).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from mevreg.eisenstein import (
    DEFAULT_CUTOFF,
    EisensteinSpec,
    EllipticParam,
    gn_series,
    qdump_rows,
    series_for,
)
from mevreg import identities as identities_mod
from mevreg.mellin import im_i_direct, im_i_rz
from mevreg.mev import lambda_mev
from mevreg.regulator import k2_regulator, regulator_report
from mevreg.specfun import mp_precision

__all__ = ["main"]

_SUITES = ("bg", "shuffle", "rz", "thm1", "thm2", "k2", "all")


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if "." in text or "e" in text.lower():
        raise argparse.ArgumentTypeError(
            f"rationals are parsed as p/q strings, got {text!r}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _parse_pair(text: str) -> EllipticParam:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'p/q,r/s', got {text!r}")
    return EllipticParam(_parse_rational(parts[0]), _parse_rational(parts[1]))


def _parse_word(text: str) -> list[EllipticParam]:
    return [_parse_pair(chunk) for chunk in text.split(";") if chunk.strip()]


def _emit(payload, fmt: str, out_path: Optional[str], csv_rows=None) -> None:
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv" and csv_rows is not None:
        text = "\n".join(csv_rows) + "\n"
    else:
        text = _as_text(payload) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_text(payload) -> str:
    if isinstance(payload, dict):
        lines = []
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                v = json.dumps(v, sort_keys=True)
            lines.append(f"{k}: {v}")
        return "\n".join(lines)
    if isinstance(payload, list):
        return "\n".join(_as_text(item) for item in payload)
    return str(payload)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_mev(args) -> int:
    if args.tol is not None or args.level is not None:
        raise ValueError("mev takes neither --tol nor --level")
    results = []
    for word_text in args.params:
        word = _parse_word(word_text)
        res = lambda_mev(word, args.cutoff)
        results.append(
            {
                "schema": 1,
                "params": [[str(p.x1), str(p.x2)] for p in word],
                "value": [res.value.real, res.value.imag],
                "truncation_bound": res.truncation_bound,
                "word": res.word_echo,
            }
        )
    _emit(results if len(results) > 1 else results[0], args.format, args.out)
    return 0


def _cmd_regulator(args) -> int:
    rep = regulator_report(args.a, args.b, args.level, args.cutoff)
    payload = rep.to_dict()
    _emit(payload, args.format, args.out)
    ok = rep.residual_thm1 < args.tol and rep.residual_thm2 < args.tol
    return 0 if ok else 1


def _cmd_qdump(args) -> int:
    if not args.params:
        raise ValueError("qdump needs --params")
    if len(args.params) > 1:
        raise ValueError(f"qdump takes one --params pair, got {len(args.params)}")
    if args.tol is not None:
        raise ValueError("qdump does not take --tol")
    if args.level is not None and args.family != "GN":
        raise ValueError(f"--level applies to the GN family only, not to {args.family}")
    x = args.params[0]
    if args.family == "GN":
        if args.level is None:
            raise ValueError("qdump of the level family needs --level")
        xbar = (x.x1 * args.level, x.x2 * args.level)
        if any(t.denominator != 1 for t in xbar):
            raise ValueError(f"GN parameters {x} are not on the 1/{args.level} grid")
        series = gn_series(args.weight, args.level, tuple(map(int, xbar)), args.cutoff)
        header = f"# spec: GN^({args.weight});{args.level}_{x}"
    else:
        spec = EisensteinSpec(args.family, args.weight, x)
        series = series_for(spec, args.cutoff)
        header = f"# spec: {spec}"
    rows = [header] + qdump_rows(series)
    _emit(None, "csv", args.out, csv_rows=rows)
    return 0


def _suite_bg(level: int, cutoff: Fraction) -> list:
    f = Fraction
    reports = []
    reports.append(
        identities_mod.check_bg_e(
            EllipticParam(f(1, level), f(1, level)),
            EllipticParam(f(2, level) if level > 4 else f(1, 2), f(3, level)),
            cutoff,
        )
    )
    reports.append(
        identities_mod.check_bg_g1(
            f(1, level), f(2, level), f(1, level), f(3, level), cutoff
        )
    )
    reports.append(identities_mod.check_bg_g2(f(1, level), f(2, level), cutoff))
    return reports


def _suite_shuffle(level: int, cutoff: Fraction) -> list:
    f = Fraction
    a = EllipticParam(f(1, level), f(2, level))
    b = EllipticParam(f(2, level), f(1, level))
    return identities_mod.check_shuffle_ledger(a, b, cutoff)


def _suite_rz(level: int, cutoff: Fraction) -> list:
    f = Fraction
    out = []
    for u, v, ell in [
        (EllipticParam(f(1, level), f(2, level)), EllipticParam(f(1, level), f(1, level)), 3),
        (EllipticParam(f(1, level), f(2, level)), EllipticParam(f(2, level), f(1, level)), 2),
    ]:
        d = im_i_direct(u, v, ell, cutoff)
        r = im_i_rz(u, v, ell, cutoff)
        out.append(
            identities_mod.IdentityReport(
                f"rz(l={ell},u={u},v={v})", abs(d - r), details={"direct": d, "rz": r}
            )
        )
    return out


def _thm_pairs(level: int) -> list[tuple[EllipticParam, EllipticParam]]:
    f = Fraction
    pairs = []
    for (a1, a2, b1, b2) in [(1, 1, 2, 3), (1, 2, 3, 1), (2, 4, 4, 3)]:
        a = EllipticParam(f(a1, level), f(a2, level))
        b = EllipticParam(f(b1 % level, level), f(b2 % level, level))
        c = -(a + b)
        if any(p.has_zero_coord for p in (a, b, c)):
            continue
        pairs.append((a, b))
    return pairs


def _suite_thm(level: int, cutoff: Fraction, which: int) -> list:
    out = []
    for a, b in _thm_pairs(level):
        rep = regulator_report(a, b, level, cutoff)
        residual = rep.residual_thm1 if which == 1 else rep.residual_thm2
        out.append(
            identities_mod.IdentityReport(
                f"thm{which}(a={a},b={b})",
                residual,
                details={"g_mev": rep.g_mev, "g_lvalue": rep.g_lvalue},
            )
        )
    return out


def _suite_k2(level: int, cutoff: Fraction) -> list:
    f = Fraction
    a = EllipticParam(f(1, level), f(2, level))
    b = EllipticParam(f(2, level), f(1, level))
    val = k2_regulator(a, b, cutoff)
    anti = abs(val + k2_regulator(b, a, cutoff))
    return [
        identities_mod.IdentityReport(
            f"k2_antisymmetry(a={a},b={b})", anti, details={"k2": val}
        )
    ]


def _cmd_verify(args) -> int:
    level = 5 if args.level is None else args.level
    suites = {
        "bg": lambda: _suite_bg(level, args.cutoff),
        "shuffle": lambda: _suite_shuffle(level, args.cutoff),
        "rz": lambda: _suite_rz(level, args.cutoff),
        "thm1": lambda: _suite_thm(level, args.cutoff, 1),
        "thm2": lambda: _suite_thm(level, args.cutoff, 2),
        "k2": lambda: _suite_k2(level, args.cutoff),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    table = []
    status = 0
    for name in names:
        try:
            reports = suites[name]()
        except ValueError as exc:
            table.append(
                {"suite": name, "identity": "precondition", "error": str(exc)}
            )
            status = 1
            continue
        if not reports:
            table.append(
                {
                    "suite": name,
                    "identity": "no instance",
                    "error": f"suite {name} has no admissible instance at level {level}",
                }
            )
            status = 1
        for rep in reports:
            entry = {"suite": name, **rep.to_dict()}
            entry["pass"] = bool(rep.residual < args.tol)
            if not entry["pass"]:
                status = 1
            table.append(entry)
    payload = {"schema": 1, "tolerance": args.tol, "verdicts": table}
    csv_rows = ["suite,identity,residual,pass"] + [
        "{},{},{},{}".format(
            t["suite"], t.get("identity", "?"), t.get("residual", ""), t.get("pass", "")
        )
        for t in table
    ]
    _emit(payload, args.format, args.out, csv_rows=csv_rows)
    return status


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mevreg",
        description="Multiple Eisenstein values and modular regulator integrals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=None):
        p.add_argument("--cutoff", type=_parse_rational, default=DEFAULT_CUTOFF)
        p.add_argument("--tol", type=float, default=tol)
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--out", default=None)
        p.add_argument("--level", type=int, default=None)

    p = sub.add_parser("mev", help="compute multiple Eisenstein values")
    p.add_argument(
        "--params",
        nargs="+",
        required=True,
        help="words like '1/4,1/4' or '1/5,2/5;3/5,1/5'",
    )
    common(p)
    p.set_defaults(func=_cmd_mev)

    p = sub.add_parser("regulator", help="two-pipeline regulator report")
    p.add_argument("--a", type=_parse_pair, required=True)
    p.add_argument("--b", type=_parse_pair, required=True)
    common(p, tol=1e-7)
    p.set_defaults(func=_cmd_regulator)

    p = sub.add_parser("qdump", help="CSV dump of a q-expansion")
    p.add_argument("--family", choices=("E", "G", "H", "GN", "logSiegel"), default="E")
    p.add_argument("--weight", type=int, default=2)
    p.add_argument("--params", nargs="*", type=_parse_pair, default=[])
    common(p)
    p.set_defaults(func=_cmd_qdump)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=_SUITES, required=True)
    common(p, tol=1e-7)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        mp_precision()  # a malformed MEVREG_PRECISION fails before any work
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
            raise ValueError(f"--tol must be finite and positive, got {args.tol!r}")
        if args.level is not None and args.level < 2:
            raise ValueError(f"--level must be at least 2, got {args.level}")
        return args.func(args)
    except (ValueError, ArithmeticError, argparse.ArgumentTypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
