"""Print one sha256 per CLI command over a fixed list of commands.

Each digest covers the exit status, stdout and stderr of ``mevreg.cli.main``
run in this process.  Run it against two source trees and compare the
output to check that a change leaves the CLI output bytes alone:

    PYTHONPATH=/path/to/other/src python tests/output_digest.py > old.txt
    PYTHONPATH=src python tests/output_digest.py --against old.txt

With ``--against FILE`` it prints only the commands whose digest differs
from the one FILE lists for them (a command FILE lacks counts as differing)
and exits with status 1 if there is any.

The file is not collected by pytest (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys

from mevreg.cli import main

PARAMS = (
    "1/5,2/5", "0,1/3", "2/7,0", "0,0", "1/4096,3/7", "3/7,1/4096", "4103/28672,1/5",
)
CUTOFFS = ("4", "25/2", "12")
# level -> parameters on its 1/N grid
GN_PARAMS = {
    3: ("1/3,2/3",),
    5: ("1/5,2/5", "0,2/5", "3/5,0", "0,0"),
    7: ("2/7,3/7",),
    12: ("1/12,5/12", "5/12,0"),
    4096: ("1/4096,0", "1/4096,3/4096"),
}
REGULATOR_PAIRS = {
    5: (("1/5,1/5", "2/5,3/5"), ("1/5,2/5", "3/5,1/5")),
    7: (("1/7,1/7", "2/7,3/7"),),
    11: (("1/11,2/11", "3/11,5/11"),),
    17: (("1/17,3/17", "5/17,2/17"),),
}
MEV_WORDS = (
    "1/4,1/4", "0,1/3", "2/5,0", "1/5,2/5;3/5,1/5", "1/7,3/7;2/7,2/7;5/7,1/7",
)
# the exact bg checks on more grids; level 12 mixes the denominators 12, 6 and 4
BG_LEVELS = ("4", "6", "12", "13")
# appended after the lists above, so the earlier digests keep their order
LATE_REGULATOR_PAIRS = {
    13: ("1/13,2/13", "3/13,8/13"),
    29: ("1/29,2/29", "3/29,24/29"),
}
# a product of letters on the mixed 1/4 and 1/6 grids
MIXED_GRID_WORD = "1/4,1/3;1/6,5/12"
# the text and csv printers, which none of the commands above reach
PRINTER_COMMANDS = (
    ["mev", "--params", *MEV_WORDS, "--format", "text"],
    ["regulator", "--a", "1/5,1/5", "--b", "2/5,3/5", "--level", "5", "--format", "text"],
    ["verify", "--suite", "all", "--level", "5", "--format", "text"],
    ["verify", "--suite", "bg", "--level", "5", "--format", "csv"],
)
# every suite (the shuffle ledger, rz, thm and bg_e) at two more levels
LATE_VERIFY_LEVELS = ("11", "13")


def commands() -> list[list[str]]:
    out = []
    for cutoff in CUTOFFS:
        for family in ("E", "G", "H", "logSiegel"):
            for weight in ("1", "2", "3", "4"):
                for params in PARAMS:
                    out.append(["qdump", "--family", family, "--weight", weight,
                                "--params", params, "--cutoff", cutoff])
        for level, params_list in GN_PARAMS.items():
            for weight in ("1", "2", "3", "4"):
                for params in params_list:
                    out.append(["qdump", "--family", "GN", "--weight", weight,
                                "--level", str(level), "--params", params,
                                "--cutoff", cutoff])
    for level, pairs in REGULATOR_PAIRS.items():
        for a, b in pairs:
            out.append(["regulator", "--a", a, "--b", b, "--level", str(level)])
    for level in ("5", "7"):
        out.append(["verify", "--suite", "all", "--level", level])
    out.append(["mev", "--params", *MEV_WORDS])
    for word in MEV_WORDS:
        out.append(["mev", "--params", word])
    for level in BG_LEVELS:
        out.append(["verify", "--suite", "bg", "--level", level])
    for level, (a, b) in LATE_REGULATOR_PAIRS.items():
        out.append(["regulator", "--a", a, "--b", b, "--level", str(level)])
    out.append(["mev", "--params", MIXED_GRID_WORD])
    out.extend(list(argv) for argv in PRINTER_COMMANDS)
    for level in LATE_VERIFY_LEVELS:
        out.append(["verify", "--suite", "all", "--level", level])
    return out


def digest(argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
    blob = f"{status}\n{stdout.getvalue()}\n{stderr.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def run(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE", help="earlier output to compare with")
    opts = parser.parse_args(args)
    if opts.against is None:
        for argv in commands():
            sys.stdout.write(f"{digest(argv)}  {' '.join(argv)}\n")
            sys.stdout.flush()
        return 0
    with open(opts.against) as fh:
        old = dict(reversed(line.rstrip("\n").split("  ", 1)) for line in fh if line.strip())
    differ = 0
    for argv in commands():
        command = " ".join(argv)
        if old.get(command) != digest(argv):
            sys.stdout.write(f"{command}\n")
            differ += 1
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(run())
