"""Spans around the public functions of each mevreg module.

``Tracer.install`` wraps every function named in ``TARGETS`` and rebinds the
wrapper in every mevreg module that holds the original, so a name imported
with ``from ... import`` (``mul_series`` in both ``regint`` and ``mellin``)
is traced wherever it is called.  ``Tracer.remove`` puts the originals back.

A span's self time is its duration minus the durations of the spans it
called.  Spans are folded into per-metric totals as they close; nothing is
kept per call.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Callable, Optional

import mevreg

LAYERS = ("specfun", "eisenstein", "regint", "mev", "mellin", "regulator", "identities", "cli")

# Observers turn (args, result, fresh) into extra counts; ``fresh`` is False
# when a cached function answered from its cache.
Observer = Callable[[tuple, object, bool], dict]


def _mul(args, result, fresh):
    return {
        "regint.mul_term_pairs": len(args[0]) * len(args[1]),
        "regint.mul_terms_out": len(result),
    }


def _new_series(args, result, fresh):
    return {"eisenstein.series_terms": len(result) if fresh else 0}


def _numeric(args, result, fresh):
    form = args[0]
    return {"mellin.numeric_terms": len(form.inf_side) + len(form.zero_side)}


def _identity_reports(args, result, fresh):
    return {"identities.checks": len(result) if isinstance(result, list) else 1}


@dataclass(frozen=True)
class Target:
    module: str
    name: str
    time_metric: str
    call_metric: Optional[str] = None
    observe: Optional[Observer] = None


_SERIES = ("e_series", "g_series", "gn_series", "h_series", "log_siegel_series", "eichler_series")

TARGETS = (
    Target("specfun", "hurwitz_zeta", "specfun.hurwitz_s", "specfun.hurwitz_calls"),
    Target("specfun", "periodic_zeta", "specfun.periodic_s", "specfun.periodic_calls"),
    Target("specfun", "upper_incomplete_gamma", "specfun.incgamma_s", "specfun.incgamma_calls"),
    *(
        Target("eisenstein", name, "eisenstein.series_s", "eisenstein.series_calls", _new_series)
        for name in _SERIES
    ),
    Target("regint", "mul_series", "regint.mul_s", "regint.mul_calls", _mul),
    Target("regint", "antiderivative_to_infinity", "regint.antideriv_s"),
    Target(
        "regint", "evaluate_at", "regint.eval_s", None,
        lambda args, result, fresh: {"regint.eval_terms": len(args[0])},
    ),
    Target("regint", "evaluate_with_bound", "regint.eval_s"),
    *(
        Target("regint", name, "regint.word_s")
        for name in (
            "word_integral_to_infinity",
            "word_integral_zero_to_infinity",
            "word_integral_zero_to_infinity_with_bound",
        )
    ),
    *(
        Target("regint", name, "regint.letter_s")
        for name in ("siegel_letter", "modular_letter", "merged_product_letter")
    ),
    Target("mev", "lambda_word", "mev.self_s", "mev.words"),
    *(
        Target("mev", name, "mev.self_s")
        for name in (
            "lambda_single_closed", "lambda_mev", "lambda_signed", "lambda_general",
            "length_drop_rhs",
        )
    ),
    Target("mellin", "mellin_eisenstein_closed", "mellin.closed_s", "mellin.closed_calls"),
    Target("mellin", "laurent_constant", "mellin.closed_s", "mellin.laurent_calls"),
    Target("mellin", "mellin_numeric", "mellin.numeric_s", "mellin.numeric_calls", _numeric),
    Target("mellin", "g_product_form", "mellin.product_form_s"),
    *(
        Target("mellin", name, "mellin.other_s")
        for name in ("eisenstein_form", "im_i_direct", "im_i_rz", "l_deriv_weight2_at_minus1")
    ),
    Target("regulator", "regulator_report", "regulator.self_s", "regulator.reports"),
    *(
        Target("regulator", name, "regulator.self_s")
        for name in (
            "goncharov_mev", "goncharov_lvalue", "beilinson", "zeta3_term", "dg_da2",
            "k2_regulator",
        )
    ),
    *(
        Target("identities", name, "identities.self_s", None, _identity_reports)
        for name in ("check_bg_e", "check_bg_g1", "check_bg_g2", "check_dilog_sum",
                     "check_shuffle_ledger")
    ),
    Target("cli", "main", "cli.self_s"),
)

# Cache groups behind the hit-ratio metrics, by "<module>.<function>".
HIT_RATIOS = {
    "specfun.incgamma_hit_ratio": ("specfun._gamma_upper_cached",),
    "eisenstein.series_hit_ratio": tuple(f"eisenstein.{name}" for name in _SERIES),
    "regint.letter_hit_ratio": ("regint.siegel_letter", "regint.modular_letter"),
}

COUNT_METRICS = tuple(
    sorted(
        {t.call_metric for t in TARGETS if t.call_metric}
        | {
            "regint.mul_term_pairs", "regint.mul_terms_out", "regint.eval_terms",
            "eisenstein.series_terms", "mellin.numeric_terms", "identities.checks",
        }
        | {f"{layer}.errors" for layer in LAYERS}
    )
)
TIME_METRICS = tuple(sorted({t.time_metric for t in TARGETS}))


def package_modules() -> list:
    """The mevreg package and every module in it."""
    return [mevreg] + [
        importlib.import_module(f"mevreg.{info.name}")
        for info in pkgutil.iter_modules(mevreg.__path__)
    ]


def lru_caches() -> dict:
    """Every lru_cache defined in the package, by "<module>.<function>"."""
    found = {}
    for mod in package_modules():
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__:
                found[f"{mod.__name__.removeprefix('mevreg.')}.{name}"] = obj
    return found


class Tracer:
    """Per-metric self times and counts of the spans of one traced round."""

    def __init__(self) -> None:
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, fn, target: Target):
        stack, times, counts = self._stack, self.times, self.counts
        track_misses = target.observe is not None and hasattr(fn, "cache_info")

        @wraps(fn)
        def traced(*args, **kwargs):
            misses = fn.cache_info().misses if track_misses else 0
            children = [0.0]
            stack.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[f"{target.module}.errors"] += 1
                raise
            finally:
                duration = perf_counter() - t0
                stack.pop()
                times[target.time_metric] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
            if target.call_metric:
                counts[target.call_metric] += 1
            if target.observe:
                fresh = not track_misses or fn.cache_info().misses != misses
                for key, n in target.observe(args, result, fresh).items():
                    counts[key] += n
            return result

        return traced

    def install(self) -> None:
        modules = package_modules()
        for target in TARGETS:
            home = importlib.import_module(f"mevreg.{target.module}")
            original = getattr(home, target.name)
            wrapper = self._wrap(original, target)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))

    def remove(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    def metrics(self, cache_delta: dict) -> dict:
        """Every per-layer metric of the round; cache_delta maps a cache to (hits, misses)."""
        out = {key: float(self.times.get(key, 0.0)) for key in TIME_METRICS}
        out.update({key: int(self.counts.get(key, 0)) for key in COUNT_METRICS})
        for key, names in HIT_RATIOS.items():
            hits = sum(cache_delta[name][0] for name in names)
            lookups = hits + sum(cache_delta[name][1] for name in names)
            out[key] = hits / lookups if lookups else 0.0
        return out
