"""``repro top`` — a curses-free live dashboard over ``GET /stats``.

Polls a running ``repro serve`` daemon and redraws per-program
request-rate / latency / error tables using plain ANSI escapes (no
curses, no dependencies), so it works in any terminal and its renderer
is unit-testable as a pure string function.
"""

from __future__ import annotations

import json
import math
import sys
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Sequence, TextIO

CLEAR = "\x1b[2J\x1b[H"
INVERSE = "\x1b[7m"
RESET = "\x1b[0m"

#: Unicode block elements, shortest to tallest, for sparklines.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

_TABLE_HEADER = (
    f"{'PROGRAM':<28} {'REQS':>8} {'REQ/S':>8} {'ERR':>6} {'REJ':>6} "
    f"{'HIT%':>6} {'SHADOW':>8} {'P50MS':>8} {'P95MS':>8} {'P99MS':>8}"
)


def fetch_stats(url: str, timeout: float = 5.0) -> Dict[str, object]:
    """One ``/stats`` poll, parsed."""
    with urllib.request.urlopen(url.rstrip("/") + "/stats",
                                timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def fetch_history(
    url: str, limit: int = 32, timeout: float = 5.0
) -> Dict[str, object]:
    """One ``/stats/history`` poll, parsed."""
    with urllib.request.urlopen(
        url.rstrip("/") + f"/stats/history?limit={limit}",
        timeout=timeout,
    ) as response:
        return json.loads(response.read().decode("utf-8"))


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """Render *values* as a block-element sparkline (last ``width``
    points). A flat series renders as its lowest block so the line is
    still visibly present; an empty series renders empty."""
    points = [float(v) for v in values][-width:]
    if not points:
        return ""
    low, high = min(points), max(points)
    span = high - low
    if span <= 0:
        return SPARK_BLOCKS[0] * len(points)
    top = len(SPARK_BLOCKS) - 1
    return "".join(
        SPARK_BLOCKS[int(round((v - low) / span * top))] for v in points
    )


def _history_series(
    samples: Sequence[Dict[str, object]], name: str, field: str
) -> List[Dict[str, float]]:
    """``{"ts", "value"}`` points for one metric field across history
    samples, skipping ticks that predate the metric."""
    points: List[Dict[str, float]] = []
    for sample in samples:
        entry = sample.get("metrics", {}).get(name)
        if entry is None or entry.get(field) is None:
            continue
        points.append({
            "ts": float(sample.get("ts", 0.0)),
            "value": float(entry[field]),
        })
    return points


def history_rates(
    samples: Sequence[Dict[str, object]], name: str, field: str = "total"
) -> List[float]:
    """Per-second deltas between consecutive history ticks (the
    client-side mirror of :meth:`MetricsHistory.rates`)."""
    points = _history_series(samples, name, field)
    rates: List[float] = []
    for before, after in zip(points, points[1:]):
        dt = max(after["ts"] - before["ts"], 1e-9)
        rates.append(max(0.0, after["value"] - before["value"]) / dt)
    return rates


def history_mean_latency(
    samples: Sequence[Dict[str, object]],
    name: str = "serve.latency_ms",
) -> List[float]:
    """Mean request latency (ms) per history interval, derived from
    the histogram's count/sum deltas. Idle intervals repeat the last
    observed mean (0 before any traffic) so the sparkline stays
    aligned with the rate sparkline tick for tick."""
    counts = _history_series(samples, name, "count")
    sums = _history_series(samples, name, "sum")
    means: List[float] = []
    last = 0.0
    for before_n, after_n, before_s, after_s in zip(
        counts, counts[1:], sums, sums[1:]
    ):
        dn = after_n["value"] - before_n["value"]
        if dn > 0:
            last = max(0.0, after_s["value"] - before_s["value"]) / dn
        means.append(last)
    return means


def _ms(value: Optional[float]) -> str:
    """A latency cell: absent/None/non-finite render as the ``-``
    placeholder (a stats payload never should contain NaN percentiles,
    but a dashboard must not print ``nan`` if one does)."""
    if value is None:
        return "-"
    number = float(value)
    if not math.isfinite(number):
        return "-"
    return f"{number:.1f}"


def _shadow_cell(entry: Dict[str, object]) -> str:
    """Shadow verification ok/mismatch counts for one program row
    (``-`` before any check has run — or against an older daemon whose
    ``/stats`` rows carry no shadow fields)."""
    ok = float(entry.get("shadow_ok", 0) or 0)
    mismatches = float(entry.get("shadow_mismatches", 0) or 0)
    if not ok and not mismatches:
        return "-"
    return f"{int(ok)}/{int(mismatches)}"


def _hit_pct(entry: Dict[str, object]) -> str:
    """Result-cache hit rate for one program row (``-`` before any
    traffic)."""
    requests = float(entry.get("requests", 0))
    if not requests:
        return "-"
    hits = float(entry.get("cache_hits", 0))
    return f"{hits / requests * 100:.0f}"


def _rate(
    program: str,
    now_requests: float,
    previous: Optional[Dict[str, object]],
    dt: float,
) -> str:
    """Requests/second since the previous poll; ``-`` on the first."""
    if previous is None:
        return "-"
    # Two polls can land in the same clock tick (coarse monotonic
    # clocks, or a forced redraw): clamp the elapsed time instead of
    # dividing by zero or pretending there was no previous poll.
    dt = max(dt, 1e-6)
    before = previous.get("programs", {}).get(program, {})
    delta = now_requests - float(before.get("requests", 0))
    return f"{max(0.0, delta) / dt:.1f}"


def alert_banner(server: Dict[str, object]) -> Optional[str]:
    """The firing-alert banner line (inverse video), or a quiet
    pending note, or None when the alert engine has nothing to say.
    Reads the ``alerts`` block ``/stats`` carries; daemons predating
    the SLO engine simply render no banner."""
    alerts = server.get("alerts")
    if not isinstance(alerts, dict):
        return None
    firing = [str(name) for name in alerts.get("firing", [])]
    pending = [str(name) for name in alerts.get("pending", [])]
    if firing:
        return (
            f"{INVERSE} ALERT FIRING: {', '.join(firing)} {RESET}"
            + (f"  (pending: {', '.join(pending)})" if pending else "")
        )
    if pending:
        return f"alerts pending: {', '.join(pending)}"
    return None


def _config_line(server: Dict[str, object]) -> str:
    """The configured fast-path knobs (capacities, not live state) in
    one header line: what this daemon was *started with*."""
    cache = server.get("cache", {})
    admission = server.get("admission", {})
    history = server.get("history", {})
    cache_cap = int(float(cache.get("capacity", 0) or 0))
    max_depth = admission.get("max_queue_depth")
    parts = [
        f"cache {cache_cap if cache_cap else 'off'}",
        f"queue {int(float(max_depth)) if max_depth else 'off'}",
    ]
    interval = history.get("interval_s")
    if interval:
        parts.append(f"history {float(interval):g}s")
    return "config: " + "   ".join(parts)


def render(
    stats: Dict[str, object],
    url: str,
    previous: Optional[Dict[str, object]] = None,
    dt: float = 0.0,
    history: Optional[Dict[str, object]] = None,
) -> str:
    """The full dashboard frame for one ``/stats`` payload (plus an
    optional ``/stats/history`` payload for the sparklines)."""
    server = stats.get("server", {})
    requests_total = float(server.get("requests_total", 0))
    errors_total = float(server.get("errors_total", 0))
    error_pct = (errors_total / requests_total * 100) if requests_total else 0.0
    state = "ready" if server.get("ready") else (
        "draining" if server.get("draining") else "warming"
    )
    lines = [
        f"repro top — {url}  up {float(server.get('uptime_s', 0)):.1f}s  "
        f"{state}  inflight {int(float(server.get('inflight', 0)))}",
        _config_line(server),
        f"requests {int(requests_total)}   "
        f"errors {int(errors_total)} ({error_pct:.1f}%)   "
        f"traces retained {int(server.get('traces_retained', 0))}",
    ]
    banner = alert_banner(server)
    if banner is not None:
        lines.append(banner)
    samples = (history or {}).get("samples", [])
    if len(samples) >= 2:
        req_spark = sparkline(history_rates(samples, "serve.requests"))
        lat_spark = sparkline(history_mean_latency(samples))
        if req_spark:
            lines.append(f"req/s   {req_spark}")
        if lat_spark:
            lines.append(f"mean ms {lat_spark}")
    fast_path = []
    cache = server.get("cache", {})
    if cache.get("capacity"):
        hit_rate = cache.get("hit_rate")
        hit = f" (hit {float(hit_rate) * 100:.0f}%)" if hit_rate is not None else ""
        fast_path.append(
            f"cache {int(float(cache.get('size', 0)))}/"
            f"{int(float(cache.get('capacity', 0)))}{hit}"
        )
    admission = server.get("admission", {})
    if admission.get("max_queue_depth"):
        fast_path.append(
            f"queue {int(float(admission.get('queue_depth', 0)))}/"
            f"{int(float(admission.get('max_queue_depth', 0)))} "
            f"rejected {int(float(admission.get('rejected_total', 0)))}"
        )
    shadow = (server.get("quality") or {}).get("shadow", {})
    if shadow.get("enabled"):
        fast_path.append(
            f"shadow 1/{int(float(shadow.get('sample', 0) or 0))} "
            f"ok {int(float(shadow.get('ok', 0) or 0))} "
            f"mismatch {int(float(shadow.get('mismatches', 0) or 0))}"
        )
    if fast_path:
        lines.append("   ".join(fast_path))
    lines.extend(["", _TABLE_HEADER])
    programs: Dict[str, Dict[str, object]] = stats.get("programs", {})
    if not programs:
        lines.append("  (no conversion requests yet)")
    for program in sorted(programs):
        entry = programs[program]
        latency = entry.get("latency_ms", {})
        requests = float(entry.get("requests", 0))
        lines.append(
            f"{program[:28]:<28} {int(requests):>8} "
            f"{_rate(program, requests, previous, dt):>8} "
            f"{int(float(entry.get('errors', 0))):>6} "
            f"{int(float(entry.get('rejected', 0))):>6} "
            f"{_hit_pct(entry):>6} "
            f"{_shadow_cell(entry):>8} "
            f"{_ms(latency.get('p50')):>8} "
            f"{_ms(latency.get('p95')):>8} "
            f"{_ms(latency.get('p99')):>8}"
        )
    tail = stats.get("requests", [])
    if tail:
        lines.append("")
        lines.append("recent requests:")
        for entry in tail[-5:]:
            lines.append(
                f"  {entry.get('status', '?'):>3} "
                f"{str(entry.get('program', '?')):<28} "
                f"{float(entry.get('latency_ms', 0)):>8.1f}ms  "
                f"trace {entry.get('trace_id', '?')}"
            )
    return "\n".join(lines) + "\n"


def run_top(
    url: str,
    interval: float = 2.0,
    iterations: Optional[int] = None,
    clear: bool = True,
    out: Optional[TextIO] = None,
) -> int:
    """Poll + redraw until interrupted (or for ``iterations`` frames).

    Returns 0 on a clean exit, 1 when the daemon was never reachable.
    """
    out = out if out is not None else sys.stdout
    previous: Optional[Dict[str, object]] = None
    previous_at = 0.0
    frames = 0
    reached = False
    try:
        while iterations is None or frames < iterations:
            now = time.monotonic()
            try:
                stats = fetch_stats(url)
            except (urllib.error.URLError, OSError, ValueError) as exc:
                if clear:
                    out.write(CLEAR)
                out.write(f"repro top — {url}: unreachable ({exc})\n")
                out.flush()
            else:
                reached = True
                # History is additive: an older daemon without the
                # endpoint (or a mid-drain 404) must not kill the
                # dashboard, so failures degrade to no sparklines.
                try:
                    history = fetch_history(url)
                except (urllib.error.URLError, OSError, ValueError):
                    history = None
                if clear:
                    out.write(CLEAR)
                out.write(
                    render(stats, url, previous, now - previous_at, history)
                )
                out.flush()
                previous, previous_at = stats, now
            frames += 1
            if iterations is not None and frames >= iterations:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0 if reached else 1
