"""Shared harness for the standalone ``benchmarks/bench_*.py`` drivers.

Every driver used to re-implement the same boilerplate: the ``src/``
path bootstrap, ``--json``/``--repeat``/``--quick`` flags, best-of-N
timing with warmup, per-leg metric extraction, pair-wise overhead
measurement, and JSON report writing. This module is that boilerplate,
once. Importing it makes ``repro`` importable (the path bootstrap runs
at import time), so drivers start with::

    from runner import add_common_args, best_of, leg_report, write_report

Benchmarks remain runnable standalone (``python benchmarks/bench_x.py``)
and under pytest collection (they only execute under ``__main__``).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

#: The run metrics every leg report extracts when present (the
#: observability catalog's interpreter family; see docs/OBSERVABILITY.md).
KEY_METRICS = [
    "yatl.inputs.total",
    "yatl.inputs.converted",
    "yatl.outputs.trees",
    "yatl.rule.applications",
    "yatl.rule.bindings_matched",
    "yatl.dispatch.indexed_calls",
    "yatl.dispatch.unindexed_calls",
    "yatl.dispatch.subjects_considered",
    "yatl.dispatch.subjects_admitted",
    "yatl.dispatch.hit_ratio",
    "yatl.dispatch.candidate_reduction_ratio",
    "yatl.skolem.ids_fresh",
    "yatl.skolem.ids_reused",
    "yatl.demand.iterations",
]


def add_common_args(parser, repeat_default: int = 2) -> None:
    """The flags every driver shares: ``--repeat``, ``--quick``,
    ``--json``."""
    parser.add_argument(
        "--repeat", type=int, default=repeat_default,
        help=f"timed repetitions per configuration; best is reported "
             f"(default {repeat_default})",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke sizes for CI (overrides the scale flags)",
    )
    parser.add_argument(
        "--json", metavar="FILE", dest="json_path",
        help="write timings and key run metrics to FILE as JSON",
    )


def timed(fn: Callable[[], object]) -> Tuple[float, object]:
    """One timed call: ``(wall seconds, fn's return value)``."""
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def best_of(
    fn: Callable[[], object], repeat: int, warmup: int = 0
) -> Tuple[float, object]:
    """Best wall time over ``repeat`` timed calls (after ``warmup``
    untimed ones); returns ``(best seconds, last result)``."""
    for _ in range(max(0, warmup)):
        fn()
    timings: List[float] = []
    value: object = None
    for _ in range(max(1, repeat)):
        elapsed, value = timed(fn)
        timings.append(elapsed)
    return min(timings), value


def pairwise_overhead_pct(
    baseline: Callable[[], object],
    candidate: Callable[[], object],
    repeat: int,
) -> Tuple[float, float, float]:
    """Median per-pair overhead of *candidate* over *baseline*.

    Each repetition runs both legs back to back with alternating order,
    so both see the same machine conditions; the median of the per-pair
    ratios survives scheduler outliers that would dominate a
    min-of-legs comparison of a few-percent delta. Returns
    ``(overhead_pct, best_baseline_s, best_candidate_s)``.
    """
    base_times: List[float] = []
    cand_times: List[float] = []
    overheads: List[float] = []
    for repetition in range(max(1, repeat)):
        legs = (baseline, candidate) if repetition % 2 == 0 else (
            candidate, baseline
        )
        for leg in legs:
            elapsed, _ = timed(leg)
            (base_times if leg is baseline else cand_times).append(elapsed)
        if base_times[-1]:
            overheads.append(
                (cand_times[-1] - base_times[-1]) / base_times[-1] * 100
            )
    overhead = statistics.median(overheads) if overheads else 0.0
    return overhead, min(base_times), min(cand_times)


def leg_report(
    elapsed: float, result, keys: Optional[Sequence[str]] = None
) -> Dict[str, object]:
    """``wall_ms`` plus the leg's key metric totals (metrics read from
    ``result.metrics``; absent metrics are skipped)."""
    report: Dict[str, object] = {"wall_ms": round(elapsed * 1000, 3)}
    metrics = getattr(result, "metrics", None)
    if metrics is not None:
        for name in (keys if keys is not None else KEY_METRICS):
            metric = metrics.get(name)
            if metric is not None:
                report[name] = metric.total()
    return report


def _git_sha() -> Optional[str]:
    """The current commit, or None outside a work tree / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def host_info() -> Dict[str, object]:
    """Where and on what a benchmark ran — stamped into every report,
    since two reports compare only when they share a host: a machine
    change moves timings as much as a code change does."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


def write_report(report: Dict[str, object], json_path: Optional[str]) -> None:
    """Write the JSON report when ``--json`` was given (host-stamped)."""
    if not json_path:
        return
    report.setdefault("host", host_info())
    with open(json_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  json     : {json_path}")


def percentile(sorted_values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile over pre-sorted samples."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, int(round(quantile * (len(sorted_values) - 1)))))
    return sorted_values[index]
