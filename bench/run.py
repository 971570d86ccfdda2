"""mevreg benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 bench/run.py --workload regulator-pairs --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout; it imports mevreg from ``src/``.
A run repeats rounds of seeded items, each round from cold caches, until the
next round would end after ``--seconds``.  Every item's output is checked.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one seeded
round over and over, alternately plain and with spans around the public
functions of each module, and prints the per-layer metrics.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it holds the details: the run context, cache snapshots,
round times, the raw failure fraction and residual, and the tail percentile.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import betainc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_BEYOND = 10  # items a tail percentile needs beyond it
RESIDUAL_FLOOR = 1e-17  # residual_digits is at most 17


@dataclass
class Round:
    wall: float = 0.0
    attempted: int = 0
    item_times: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    failed: int = 0
    caches_before: dict = field(default_factory=dict)
    caches_after: dict = field(default_factory=dict)

    def cache_delta(self) -> dict:
        return {
            name: (after[0] - self.caches_before[name][0], after[1] - self.caches_before[name][1])
            for name, after in self.caches_after.items()
        }


def _snapshot(caches: dict) -> dict:
    """(hits, misses, currsize) of every cache."""
    out = {}
    for name, fn in caches.items():
        info = fn.cache_info()
        out[name] = (info.hits, info.misses, info.currsize)
    return out


def run_round(items, caches: dict) -> Round:
    """Time and check every item once, starting from cold caches."""
    for fn in caches.values():
        fn.cache_clear()
    gc.collect()
    rnd = Round(attempted=len(items), caches_before=_snapshot(caches))
    start = perf_counter()
    for item in items:
        t0 = perf_counter()
        try:
            out = item.run()
            rnd.item_times.append(perf_counter() - t0)
            rnd.residuals.append(item.check(out))
        except Exception:  # a failed item is counted and the run goes on
            rnd.failed += 1
            sys.stderr.write(f"item failed: {item.label}\n{traceback.format_exc()}")
    rnd.wall = perf_counter() - start
    rnd.caches_after = _snapshot(caches)
    return rnd


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters that import mevreg and mevreg.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import mevreg, mevreg.cli"]

    def once() -> float:
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=120,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return perf_counter() - t0

    once()  # compiles the bytecode of a fresh checkout; not counted
    return [once() for _ in range(SETUP_REPEATS)]


def quantile(times: list[float], pct: float) -> float:
    """Harrell-Davis estimate of the pct-th percentile: a mean of all order
    statistics, weighted by a beta density centred on the percentile.

    The sample median of a few items of unlike sizes, as in a verify-suites
    round, is the mean of the two items nearest the middle, so a slow moment
    in either of them moves it; here every item near the percentile counts."""
    n = len(times)
    p = pct / 100.0
    weights = np.diff(betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n))
    return float(np.dot(weights, sorted(times)))


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p90 with at least
    TAIL_BEYOND items beyond it, and the median when none has."""
    n = len(times)
    pct = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_BEYOND), 50.0)
    return pct, quantile(times, pct)


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_context() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _digits(residual: float) -> float:
    return -math.log10(max(residual, RESIDUAL_FLOOR))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float, caches: dict, details: dict) -> tuple[list, dict]:
    setup = measure_setup()
    rounds: list[Round] = []
    start = perf_counter()
    while True:
        items = workload(random.Random(f"{seed}:{len(rounds)}"))
        rounds.append(run_round(items, caches))
        wall = statistics.median(r.wall for r in rounds)
        if perf_counter() - start + wall > seconds:
            break
    times = [t for r in rounds for t in r.item_times]
    residuals = [x for r in rounds for x in r.residuals]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    pct, tail_value = tail(times) if times else (50.0, math.nan)
    max_residual = max(residuals, default=math.nan)
    deltas = [r.cache_delta() for r in rounds]
    details.update(
        setup_s=setup,
        round_wall_s=[r.wall for r in rounds],
        items=len(times),
        item_tail_percentile=pct,
        fail_frac=failed / attempted,
        max_residual=max_residual,
        caches_first_round={"before": rounds[0].caches_before, "after": rounds[0].caches_after},
        cache_hits_misses={
            name: [sum(d[name][0] for d in deltas), sum(d[name][1] for d in deltas)]
            for name in caches
        },
    )
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "wall_s": _metric(wall, "s"),
        "item_p50_s": _metric(quantile(times, 50.0) if times else math.nan, "s"),
        "item_tail_s": _metric(tail_value, "s"),
        "pass_frac": _metric(1.0 - failed / attempted, "fraction"),
        "residual_digits": _metric(
            statistics.median(_digits(max(r.residuals, default=math.nan)) for r in rounds),
            "digits",
        ),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    return rounds, metrics


def per_layer(workload, seed: int, seconds: float, caches: dict, details: dict) -> tuple[list, dict]:
    from spans import Tracer

    items = workload(random.Random(f"{seed}:0"))
    plain: list[Round] = []
    traced: list[Round] = []
    layer_rounds: list[dict] = []
    start = perf_counter()
    while True:
        plain.append(run_round(items, caches))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(run_round(items, caches))
        finally:
            tracer.remove()
        layer_rounds.append(tracer.metrics(traced[-1].cache_delta()))
        pair = statistics.median(p.wall + t.wall for p, t in zip(plain, traced))
        if perf_counter() - start + pair > seconds:
            break
    counts = [
        {k: v for k, v in m.items() if not k.endswith(("_s", "_ratio"))} for m in layer_rounds
    ]
    wall_plain = statistics.median(r.wall for r in plain)
    wall_traced = statistics.median(r.wall for r in traced)
    details.update(
        traced_rounds=len(traced),
        wall_s_untraced=wall_plain,
        wall_s_traced=wall_traced,
        tracing_overhead_s=wall_traced - wall_plain,
        counts_repeat=all(c == counts[0] for c in counts),
        caches_first_round={"before": traced[0].caches_before, "after": traced[0].caches_after},
    )
    if not details["counts_repeat"]:
        sys.stderr.write("count metrics differ between traced rounds of one batch\n")
    metrics = {}
    for key in sorted(layer_rounds[0]):
        values = [m[key] for m in layer_rounds]
        unit = "s" if key.endswith("_s") else "fraction" if key.endswith("_ratio") else "count"
        value = statistics.median(values) if unit == "s" else values[0]
        metrics[key] = _metric(value, unit)
    return plain + traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mevreg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mevreg sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from spans import lru_caches
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": run_context(),
        "loadavg_start": os.getloadavg(),
    }
    measure = per_layer if args.trace else end_to_end
    rounds, metrics = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, lru_caches(), details
    )
    details["loadavg_end"] = os.getloadavg()
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
