"""Summaries of samples, the metric catalog, and record comparison.

The catalog (names, units, directions, bounds) is ``BENCHMARK.json`` at
the repository root; nothing here repeats it.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]


def catalog() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def vm_hwm_mb(pid="self") -> float:
    """A process's high-water resident set (``VmHWM``, Linux). Unlike
    ``ru_maxrss`` it starts afresh at exec, so a child never reports
    the peak of the parent it was spawned from."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(samples: Sequence[float], value: Optional[float] = None) -> dict:
    """A metric entry: the median of the samples (or a given value),
    its quartiles and sample count, and the unrounded samples."""
    samples = list(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0] if samples else 0.0
    if value is None:
        value = statistics.median(samples) if samples else 0.0
    return {"value": value, "n": len(samples), "q1": q1, "q3": q3,
            "samples": samples}


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Per-span-name self time in ms: each span's duration minus its
    children's. A span is a dict with ``name``, ``span_id``,
    ``parent_id`` and ``duration_us`` (the shape ``GET /trace`` serves)."""
    child_us: Dict[int, float] = {}
    for s in spans:
        if s["parent_id"] is not None:
            child_us[s["parent_id"]] = child_us.get(s["parent_id"], 0.0) + s["duration_us"]
    table: Dict[str, float] = {}
    for s in spans:
        own = max(0.0, s["duration_us"] - child_us.get(s["span_id"], 0.0))
        table[s["name"]] = table.get(s["name"], 0.0) + own / 1000.0
    return table


def median_spread(entry: dict) -> Optional[float]:
    """Width of the ~95% distribution-free confidence interval of the
    median (order statistics n/2 ± 0.98·√n), as a share of the median;
    None for a metric measured once per run, which has no estimate."""
    samples = sorted(entry.get("samples") or [])
    n = len(samples)
    if n < 2:
        return None
    if not entry["value"]:
        return math.inf
    lo = max(0, math.floor(n / 2 - 0.98 * math.sqrt(n)))
    hi = min(n - 1, math.ceil(n / 2 + 0.98 * math.sqrt(n)) - 1)
    return (samples[hi] - samples[lo]) / abs(entry["value"])


def agree(first: dict, second: dict, metrics: List[dict]) -> List[dict]:
    """Compare two run records metric by metric, per workload.

    ``regressed``: the second is worse than the first by more than the
    metric's bound, and either both spreads are within the bound or
    every sample of the second is worse than every sample of the first.
    ``unresolved``: otherwise, when either side's spread is wider than
    the bound, so a difference that size cannot be told from noise.
    ``agree`` otherwise. A metric measured once per run (no spread) is
    judged on its value alone."""
    rows = []
    for workload in sorted(set(first["workloads"]) & set(second["workloads"])):
        a_metrics = first["workloads"][workload]["metrics"]
        b_metrics = second["workloads"][workload]["metrics"]
        for metric in metrics:
            name = metric["name"]
            if name not in a_metrics or name not in b_metrics:
                continue
            a, b = a_metrics[name], b_metrics[name]
            bound = metric["bound"]
            a_samples = a.get("samples") or [a["value"]]
            b_samples = b.get("samples") or [b["value"]]
            if metric["better"] == "lower":
                change = b["value"] / a["value"] - 1.0 if a["value"] else math.inf
                separated = min(b_samples) > max(a_samples)
            else:
                change = 1.0 - b["value"] / a["value"] if a["value"] else math.inf
                separated = max(b_samples) < min(a_samples)
            spreads = [x for x in (median_spread(a), median_spread(b))
                       if x is not None]
            spread = max(spreads) if spreads else None
            noisy = spread is not None and spread > bound
            if change > bound:
                verdict = "unresolved" if noisy and not separated else "regressed"
            elif noisy:
                verdict = "unresolved"
            else:
                verdict = "agree"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "first": a["value"], "second": b["value"],
                "worse_by": change, "spread": spread, "bound": bound,
                "verdict": verdict,
            })
    return rows


def format_agree(rows: List[dict]) -> str:
    lines = [f"{'workload':<14} {'metric':<12} {'first':>12} {'second':>12} "
             f"{'worse by':>9} {'spread':>8} {'bound':>6}  verdict"]
    for r in rows:
        lines.append(
            f"{r['workload']:<14} {r['metric']:<12} {r['first']:>12.6g} "
            f"{r['second']:>12.6g} {r['worse_by']:>+9.1%} "
            f"{'n/a' if r['spread'] is None else format(r['spread'], '.1%'):>8} "
            f"{r['bound']:>6.0%}  {r['verdict']}"
        )
    counts: Dict[str, int] = {}
    for r in rows:
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    lines.append(", ".join(f"{v}: {n}" for v, n in sorted(counts.items())))
    return "\n".join(lines)
