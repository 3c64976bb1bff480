"""Load driver for the `repro serve` daemon: closed loop, open loop,
and the fast-path ablation.

Spins up in-process :class:`repro.serve.MediatorServer` instances on
ephemeral ports and drives ``POST /convert/<program>`` four ways:

``--mode closed`` (default)
    N keep-alive clients (default 8) issue the next request as soon as
    the previous answer lands, while a scraper thread polls
    ``/metrics`` + ``/stats`` like Prometheus would. Gates: every
    request sent appears in ``serve.requests`` and the JSONL request
    log (zero dropped samples), all responses 200.

``--mode ablation``
    The same closed loop twice over a repeated payload — result cache
    off, then on — and reports the speedup. Gate: the warm cache must
    deliver at least ``--min-cache-speedup`` (default 2.0) the req/s of
    the cold path.

``--mode open``
    Requests arrive on a fixed clock (``--arrival-rps``, auto-tuned to
    ~3x measured capacity when omitted) regardless of completions —
    the only honest way to measure overload. The server runs with a
    small ``--max-queue-depth``. Gates: admission control actually
    sheds (some 429s observed), every 429 carries ``Retry-After``, and
    the p99 of *accepted* requests stays bounded (the queue cannot
    grow without limit, so accepted latency cannot either).

``--mode full``
    All of the above, one combined report.

``--mode alerts``
    The closed loop paired back-to-back — no alert rules, then a
    live rule set (thresholds, percentile reads, burn-rate windows)
    with the history sampler ticking fast enough to evaluate many
    times mid-run. Reports the evaluator's throughput overhead as the
    median of per-pair ratios; ``--alerts-max-overhead-pct`` gates it
    (CI uses 5). The rule set is deliberately quiet: anything firing
    during the run is itself a failure.

``--mode quality``
    The warm-cache closed loop paired back-to-back — shadow
    verification off, then on (``--quality-sample``, default 8) — over
    a repeated payload so cache hits (the path shadow verification
    taxes) dominate. Reports the median per-pair throughput overhead;
    ``--quality-max-overhead-pct`` gates it (CI uses 5). Hard gates:
    the worker actually checked samples, and a self-consistent server
    produced zero mismatches.

Run standalone (not under pytest)::

    python benchmarks/bench_serve.py                        # closed loop
    python benchmarks/bench_serve.py --quick                # smoke sizes
    python benchmarks/bench_serve.py --mode full --json BENCH_PR6.json
    python benchmarks/bench_serve.py --mode alerts --json BENCH_PR8.json
    python benchmarks/bench_serve.py --mode quality --json BENCH_PR9.json
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time

try:
    from runner import percentile, write_report
except ImportError:  # pytest collects this file as benchmarks.bench_*
    from benchmarks.runner import percentile, write_report

from repro.serve import MediatorServer  # noqa: E402
from repro.workloads import brochure_sgml  # noqa: E402

PROGRAM = "SgmlBrochuresToOdmg"


def post_once(host, port, payload):
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request(
            "POST", f"/convert/{PROGRAM}", body=payload,
            headers={"Content-Type": "application/sgml"},
        )
        response = connection.getresponse()
        body = response.read()
        return response.status, dict(response.headers), json.loads(body)
    finally:
        connection.close()


def client_worker(host, port, payload, requests, latencies, statuses, lock):
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        for _ in range(requests):
            start = time.perf_counter()
            connection.request(
                "POST", f"/convert/{PROGRAM}", body=payload,
                headers={"Content-Type": "application/sgml"},
            )
            response = connection.getresponse()
            response.read()
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            with lock:
                latencies.append(elapsed_ms)
                statuses[response.status] = statuses.get(response.status, 0) + 1
    finally:
        connection.close()


def scraper_worker(host, port, stop, scrape_counts, lock):
    """Poll /metrics and /stats like a monitoring stack would."""
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        while not stop.is_set():
            for path in ("/metrics", "/stats"):
                connection.request("GET", path)
                response = connection.getresponse()
                response.read()
                with lock:
                    scrape_counts[path] = scrape_counts.get(path, 0) + 1
            stop.wait(0.05)
    finally:
        connection.close()


def drive_closed_loop(server, payload, clients, requests, scrape=True):
    """Hammer one server with N closed-loop clients; returns the raw
    measurements (latencies sorted ascending)."""
    latencies, statuses, scrape_counts = [], {}, {}
    lock = threading.Lock()
    stop_scraper = threading.Event()
    scraper = threading.Thread(
        target=scraper_worker,
        args=(server.host, server.port, stop_scraper, scrape_counts, lock),
    ) if scrape else None
    workers = [
        threading.Thread(
            target=client_worker,
            args=(server.host, server.port, payload, requests,
                  latencies, statuses, lock),
        )
        for _ in range(clients)
    ]
    if scraper is not None:
        scraper.start()
    wall_start = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    wall_s = time.perf_counter() - wall_start
    stop_scraper.set()
    if scraper is not None:
        scraper.join()
    latencies.sort()
    return wall_s, latencies, statuses, scrape_counts


def latency_report(latencies):
    return {
        "p50": round(percentile(latencies, 0.50), 3),
        "p95": round(percentile(latencies, 0.95), 3),
        "p99": round(percentile(latencies, 0.99), 3),
        "max": round(latencies[-1], 3) if latencies else 0.0,
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_closed(args, payload):
    """The PR-4 closed-loop run with the zero-dropped-samples gate."""
    total = args.clients * args.requests
    server = MediatorServer(port=0, warm=False, cache_size=args.cache_size)
    server.warm_now()
    with server:
        print(
            f"closed loop on :{server.port} — {args.clients} clients x "
            f"{args.requests} requests, {args.brochures} brochure(s)/payload "
            f"({len(payload)} bytes)"
        )
        wall_s, latencies, statuses, scrape_counts = drive_closed_loop(
            server, payload, args.clients, args.requests
        )
        served = server.registry.counter("serve.requests").total()
        logged = len(server.request_log)
        server_stats = server.registry.histogram(
            "serve.latency_ms"
        ).stats(program=PROGRAM)
        cache_stats = server.cache.stats() if server.cache else None

    throughput = total / wall_s if wall_s else float("inf")
    report = {
        "scenario": {
            "clients": args.clients,
            "requests_per_client": args.requests,
            "total_requests": total,
            "payload_bytes": len(payload),
            "program": PROGRAM,
            "cache_size": args.cache_size,
        },
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(throughput, 1),
        "client_latency_ms": latency_report(latencies),
        "server_latency_ms": {
            "count": server_stats["count"],
            "p50": server_stats["p50"],
            "p95": server_stats["p95"],
            "p99": server_stats["p99"],
        },
        "statuses": statuses,
        "scrapes": scrape_counts,
        "metric_samples": {"serve_requests": served, "request_log": logged},
    }
    if cache_stats is not None:
        report["cache"] = cache_stats

    print(f"  wall       : {wall_s * 1000:9.1f} ms "
          f"({throughput:.1f} req/s, {args.clients} concurrent)")
    print(f"  client p50 : {report['client_latency_ms']['p50']:9.2f} ms")
    print(f"  client p95 : {report['client_latency_ms']['p95']:9.2f} ms")
    print(f"  scrapes    : {sum(scrape_counts.values())} during load")

    failures = []
    non_ok = {s: n for s, n in statuses.items() if s != 200}
    if non_ok:
        failures.append(f"non-200 responses under load: {non_ok}")
    if served != total or logged != total:
        failures.append(
            f"dropped samples — sent {total}, serve.requests={served}, "
            f"request log={logged}"
        )
    else:
        print(f"  samples    : {total} sent == {served:g} counted == "
              f"{logged} logged (zero dropped)")
    if args.max_p95_ms is not None and \
            report["client_latency_ms"]["p95"] > args.max_p95_ms:
        failures.append(
            f"client p95 {report['client_latency_ms']['p95']:.2f} ms "
            f"exceeds the {args.max_p95_ms:.2f} ms budget"
        )
    return report, failures


def run_ablation(args, payload):
    """Cache off vs on over a repeated payload."""
    failures = []
    runs = {}
    # The cache saves the conversion, not the HTTP shell (~5 ms/req of
    # socket + JSON framing): measure over a payload whose conversion
    # cost dominates, or the ablation understates the fast path.
    ablation_brochures = max(args.brochures, 24)
    payload = brochure_sgml(ablation_brochures, distinct_suppliers=4).encode()
    for label, cache_size in (("cache_off", 0), ("cache_on", 256)):
        server = MediatorServer(port=0, warm=False, cache_size=cache_size)
        server.warm_now()
        with server:
            wall_s, latencies, statuses, _ = drive_closed_loop(
                server, payload, args.clients, args.requests, scrape=False
            )
            hit_rate = (
                server.cache.stats()["hit_rate"] if server.cache else None
            )
        total = args.clients * args.requests
        throughput = total / wall_s if wall_s else float("inf")
        runs[label] = {
            "wall_s": round(wall_s, 3),
            "throughput_rps": round(throughput, 1),
            "client_latency_ms": latency_report(latencies),
            "hit_rate": hit_rate,
        }
        non_ok = {s: n for s, n in statuses.items() if s != 200}
        if non_ok:
            failures.append(f"{label}: non-200 responses {non_ok}")
        print(f"  {label:9}: {throughput:9.1f} req/s  "
              f"p50 {runs[label]['client_latency_ms']['p50']:.2f} ms"
              + (f"  (hit rate {hit_rate})" if hit_rate is not None else ""))

    speedup = (
        runs["cache_on"]["throughput_rps"] /
        runs["cache_off"]["throughput_rps"]
        if runs["cache_off"]["throughput_rps"] else float("inf")
    )
    print(f"  speedup   : {speedup:9.2f}x (gate: >= "
          f"{args.min_cache_speedup:.1f}x)")
    if speedup < args.min_cache_speedup:
        failures.append(
            f"cache speedup {speedup:.2f}x below the "
            f"{args.min_cache_speedup:.1f}x gate"
        )

    return {
        "runs": runs,
        "cache_speedup": round(speedup, 2),
    }, failures


def run_open(args, payload):
    """Fixed-arrival-rate overload against a bounded queue."""
    failures = []
    # Queue depth only builds when a conversion outlives a GIL slice
    # (sys.getswitchinterval() is 5 ms): short conversions serialize on
    # the GIL and never stack. Overload with a payload whose conversion
    # is decisively longer than one slice, like real mediation traffic.
    payload = brochure_sgml(
        max(args.brochures, 24), distinct_suppliers=4
    ).encode()
    server = MediatorServer(port=0, warm=False, cache_size=0,
                            max_queue_depth=args.max_queue_depth)
    server.warm_now()
    with server:
        # Measure capacity to auto-tune an overloading arrival rate.
        if args.arrival_rps is None:
            probe_start = time.perf_counter()
            probes = 5
            for _ in range(probes):
                post_once(server.host, server.port, payload)
            service_s = (time.perf_counter() - probe_start) / probes
            arrival_rps = min(max(20.0, 2.0 / service_s), 500.0)
        else:
            arrival_rps = args.arrival_rps
        interval = 1.0 / arrival_rps
        total = max(int(args.open_duration_s * arrival_rps), 20)
        print(f"open loop on :{server.port} — {arrival_rps:.0f} req/s "
              f"arrival for {total} requests, "
              f"max_queue_depth={args.max_queue_depth}")

        # Arrivals follow a fixed clock; a pool of keep-alive workers
        # (not one thread per request, which would overflow the TCP
        # accept backlog and measure the kernel, not the server) claims
        # scheduled slots. Latency counts from the *scheduled* arrival,
        # so worker backlog shows up as latency instead of silently
        # slowing the arrival process (no coordinated omission).
        outcomes = []
        lock = threading.Lock()
        slots = iter(range(total))
        base = time.perf_counter() + 0.05

        def open_worker():
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30
            )
            try:
                while True:
                    with lock:
                        slot = next(slots, None)
                    if slot is None:
                        return
                    scheduled = base + slot * interval
                    delay = scheduled - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    try:
                        connection.request(
                            "POST", f"/convert/{PROGRAM}", body=payload,
                            headers={"Content-Type": "application/sgml"},
                        )
                        response = connection.getresponse()
                        response.read()
                        status = response.status
                        headers = dict(response.headers)
                    except OSError:
                        status, headers = -1, {}
                        connection.close()
                        connection = http.client.HTTPConnection(
                            server.host, server.port, timeout=30
                        )
                    elapsed_ms = (time.perf_counter() - scheduled) * 1000.0
                    with lock:
                        outcomes.append((status, elapsed_ms, headers))
            finally:
                connection.close()

        workers = [
            threading.Thread(target=open_worker)
            for _ in range(min(32, total))
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        rejected_total = server.registry.counter(
            "serve.rejected", "requests shed by admission control"
        ).total()

    accepted = sorted(ms for status, ms, _ in outcomes if status == 200)
    shed = [(ms, headers) for status, ms, headers in outcomes
            if status == 429]
    transport_errors = sum(1 for status, _, _ in outcomes if status == -1)
    other = {status for status, _, _ in outcomes} - {200, 429, -1}
    report = {
        "arrival_rps": round(arrival_rps, 1),
        "total_requests": total,
        "max_queue_depth": args.max_queue_depth,
        "accepted": len(accepted),
        "rejected": len(shed),
        "rejected_metric": rejected_total,
        "transport_errors": transport_errors,
        "accepted_latency_ms": latency_report(accepted),
        "rejection_latency_ms": latency_report(sorted(ms for ms, _ in shed)),
    }
    print(f"  accepted  : {len(accepted)} "
          f"(p99 {report['accepted_latency_ms']['p99']:.2f} ms)")
    print(f"  rejected  : {len(shed)} with 429 "
          f"(p99 {report['rejection_latency_ms']['p99']:.2f} ms)")

    if other:
        failures.append(f"unexpected statuses under overload: {sorted(other)}")
    if transport_errors > total * 0.05:
        failures.append(
            f"{transport_errors} transport errors — overload leaked below "
            f"the admission gate"
        )
    if not shed:
        failures.append(
            "open-loop overload produced zero 429s — admission control "
            "never engaged"
        )
    else:
        missing = [headers for _, headers in shed
                   if "Retry-After" not in headers]
        if missing:
            failures.append(
                f"{len(missing)} 429(s) without a Retry-After header"
            )
    if rejected_total != len(shed):
        failures.append(
            f"serve.rejected={rejected_total:g} but clients saw "
            f"{len(shed)} 429s"
        )
    # Bounded-queue argument: an accepted request waits behind at most
    # max_queue_depth conversions, so its latency is bounded by roughly
    # (depth + 1) x service time. Give slack for scheduling noise.
    if accepted:
        budget_ms = args.open_p99_budget_ms
        if report["accepted_latency_ms"]["p99"] > budget_ms:
            failures.append(
                f"accepted p99 {report['accepted_latency_ms']['p99']:.1f} ms "
                f"exceeds the bounded-queue budget {budget_ms:.0f} ms"
            )
    return report, failures


#: The quiet-by-construction rule set the alerts mode evaluates: every
#: rule kind and stat path the evaluator supports, with bounds no
#: healthy benchmark run can cross — the cost is real, the alerts are
#: not.
ALERT_BENCH_RULES = [
    {"name": "p99-latency", "metric": "serve.latency_ms", "stat": "p99",
     "op": ">", "value": 1e9, "for": "1s"},
    {"name": "p50-latency", "metric": "serve.latency_ms", "stat": "p50",
     "op": ">", "value": 1e9},
    {"name": "error-rate", "metric": "serve.errors", "stat": "rate",
     "op": ">", "value": 1e9, "for": "5s"},
    {"name": "rejections", "metric": "serve.rejected", "op": ">",
     "value": 1e9},
    {"name": "slo-fast", "objective": 0.999, "window": "5m",
     "max_burn_rate": 1e9},
    {"name": "slo-slow", "objective": 0.99, "window": "1h",
     "max_burn_rate": 1e9},
]


def run_alerts(args, payload):
    """Closed loop with and without a live alert-rule set, paired
    back-to-back; the overhead gate for the always-on evaluator."""
    from repro.obs.alerts import rules_from_data

    failures = []
    pairs = []
    runs = {}
    # A sub-second leg measures scheduler noise, not the evaluator:
    # keep each leg long enough for several sampler ticks.
    requests = max(args.requests, 25)
    total = args.clients * requests
    evaluations = transitions = 0
    fired = []
    # One discarded leg warms the process (allocator, import side
    # effects) so the first measured pair is not biased against
    # whichever label runs first.
    warmup = MediatorServer(port=0, warm=False, cache_size=0)
    warmup.warm_now()
    with warmup:
        drive_closed_loop(warmup, payload, args.clients,
                          max(5, requests // 5), scrape=False)
    for attempt in range(args.alerts_pairs):
        for label, rules in (("alerts_off", None),
                             ("alerts_on",
                              rules_from_data(ALERT_BENCH_RULES))):
            server = MediatorServer(
                port=0, warm=False, cache_size=0,
                history_interval_s=args.alerts_tick_s,
                alert_rules=rules,
            )
            server.warm_now()
            with server:
                wall_s, latencies, statuses, _ = drive_closed_loop(
                    server, payload, args.clients, requests,
                    scrape=False,
                )
                if rules is not None:
                    summary = server.alerts.summary()
                    evaluations += summary["evaluations"]
                    transitions += len(server.alerts.snapshot()["transitions"])
                    fired.extend(summary["firing"] + summary["pending"])
            throughput = total / wall_s if wall_s else float("inf")
            runs.setdefault(label, []).append(round(throughput, 1))
            non_ok = {s: n for s, n in statuses.items() if s != 200}
            if non_ok:
                failures.append(f"{label}: non-200 responses {non_ok}")
            if attempt == 0:
                print(f"  {label:10}: {throughput:9.1f} req/s  "
                      f"p50 {percentile(latencies, 0.5):.2f} ms")
        off, on = runs["alerts_off"][-1], runs["alerts_on"][-1]
        pairs.append((off / on - 1.0) * 100.0 if on else float("inf"))

    pairs.sort()
    middle = len(pairs) // 2
    overhead_pct = (
        pairs[middle] if len(pairs) % 2
        else (pairs[middle - 1] + pairs[middle]) / 2.0
    )
    print(f"  overhead  : {overhead_pct:+9.2f}% (median of "
          f"{len(pairs)} back-to-back pair(s); "
          f"{evaluations} evaluation(s) during load)")
    if evaluations == 0:
        failures.append(
            "the evaluator never ran during the alerts-on legs — "
            "lengthen the run or shrink --alerts-tick-s"
        )
    if fired or transitions:
        failures.append(
            f"the quiet rule set produced activity under load: "
            f"fired/pending={sorted(set(fired))}, "
            f"transitions={transitions}"
        )
    if args.alerts_max_overhead_pct is not None and \
            overhead_pct > args.alerts_max_overhead_pct:
        failures.append(
            f"alert-evaluator overhead {overhead_pct:+.2f}% exceeds the "
            f"{args.alerts_max_overhead_pct:.1f}% budget"
        )
    return {
        "rules": len(ALERT_BENCH_RULES),
        "tick_s": args.alerts_tick_s,
        "runs": {label: {"throughput_rps": values}
                 for label, values in runs.items()},
        "pair_overheads_pct": [round(value, 2) for value in pairs],
        "overhead_pct": round(overhead_pct, 2),
        "evaluations": evaluations,
        "transitions": transitions,
    }, failures


def run_quality(args, payload):
    """Warm-cache closed loop with and without shadow verification,
    paired back-to-back; the overhead gate for the quality observatory
    (source-drift fingerprints ride the conversion path in both legs —
    the pair isolates what PR 9 adds to the steady-state hit path)."""
    failures = []
    pairs = []
    runs = {}
    requests = max(args.requests, 25)
    total = args.clients * requests
    checked = mismatches = dropped = 0
    warmup = MediatorServer(port=0, warm=False, cache_size=256)
    warmup.warm_now()
    with warmup:
        drive_closed_loop(warmup, payload, args.clients,
                          max(5, requests // 5), scrape=False)
    for attempt in range(args.quality_pairs):
        for label, sample in (("shadow_off", None),
                              ("shadow_on", args.quality_sample)):
            server = MediatorServer(port=0, warm=False, cache_size=256,
                                    shadow_sample=sample)
            server.warm_now()
            with server:
                wall_s, latencies, statuses, _ = drive_closed_loop(
                    server, payload, args.clients, requests, scrape=False,
                )
                if sample is not None:
                    # Let the worker drain what the run enqueued so the
                    # mismatch gate judges every sampled hit.
                    deadline = time.perf_counter() + 10.0
                    while (server._shadow_queue.qsize()
                           and time.perf_counter() < deadline):
                        time.sleep(0.05)
                    shadow = server.quality_payload()["shadow"]
                    checked += shadow["checked"]
                    mismatches += shadow["mismatches"]
                    dropped += shadow["dropped"]
            throughput = total / wall_s if wall_s else float("inf")
            runs.setdefault(label, []).append(round(throughput, 1))
            non_ok = {s: n for s, n in statuses.items() if s != 200}
            if non_ok:
                failures.append(f"{label}: non-200 responses {non_ok}")
            if attempt == 0:
                print(f"  {label:10}: {throughput:9.1f} req/s  "
                      f"p50 {percentile(latencies, 0.5):.2f} ms")
        off, on = runs["shadow_off"][-1], runs["shadow_on"][-1]
        pairs.append((off / on - 1.0) * 100.0 if on else float("inf"))

    pairs.sort()
    middle = len(pairs) // 2
    overhead_pct = (
        pairs[middle] if len(pairs) % 2
        else (pairs[middle - 1] + pairs[middle]) / 2.0
    )
    print(f"  overhead  : {overhead_pct:+9.2f}% (median of "
          f"{len(pairs)} back-to-back pair(s); "
          f"{checked:g} shadow check(s), {mismatches:g} mismatch(es))")
    if checked == 0:
        failures.append(
            "shadow verification never checked a sample during the "
            "shadow-on legs — lengthen the run or shrink --quality-sample"
        )
    if mismatches:
        failures.append(
            f"shadow verification disagreed with the cache on a "
            f"self-consistent server ({mismatches:g} mismatch(es))"
        )
    if args.quality_max_overhead_pct is not None and \
            overhead_pct > args.quality_max_overhead_pct:
        failures.append(
            f"shadow-verification overhead {overhead_pct:+.2f}% exceeds "
            f"the {args.quality_max_overhead_pct:.1f}% budget"
        )
    return {
        "sample": args.quality_sample,
        "runs": {label: {"throughput_rps": values}
                 for label, values in runs.items()},
        "pair_overheads_pct": [round(value, 2) for value in pairs],
        "overhead_pct": round(overhead_pct, 2),
        "shadow": {"checked": checked, "mismatches": mismatches,
                   "dropped": dropped},
    }, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("closed", "ablation", "open",
                                           "full", "alerts", "quality"),
                        default="closed")
    parser.add_argument("--clients", type=int, default=8,
                        help="concurrent client threads (default 8)")
    parser.add_argument("--requests", type=int, default=50,
                        help="requests per client (default 50)")
    parser.add_argument("--brochures", type=int, default=6,
                        help="brochures per request payload (default 6)")
    parser.add_argument("--cache-size", type=int, default=0,
                        help="result-cache entries for --mode closed "
                             "(default 0: measure the conversion path)")
    parser.add_argument("--min-cache-speedup", type=float, default=2.0,
                        metavar="X",
                        help="ablation gate: warm cache must reach X times "
                             "the cold req/s (default 2.0)")
    parser.add_argument("--arrival-rps", type=float, default=None,
                        help="open-loop arrival rate (default: 3x measured "
                             "capacity)")
    parser.add_argument("--open-duration-s", type=float, default=2.0,
                        help="open-loop run length (default 2s)")
    parser.add_argument("--open-p99-budget-ms", type=float, default=2000.0,
                        help="open-loop accepted-p99 bound (default 2000)")
    parser.add_argument("--max-queue-depth", type=int, default=4,
                        help="open-loop admission watermark (default 4)")
    parser.add_argument("--alerts-pairs", type=int, default=3,
                        help="back-to-back off/on pairs for --mode alerts "
                             "(default 3; the overhead is their median)")
    parser.add_argument("--alerts-tick-s", type=float, default=0.2,
                        metavar="S",
                        help="history-sampler interval during --mode alerts "
                             "(default 0.2 — many evaluations per leg)")
    parser.add_argument("--alerts-max-overhead-pct", type=float,
                        default=None, metavar="PCT",
                        help="fail when the alert evaluator costs more than "
                             "PCT%% closed-loop throughput (CI uses 5)")
    parser.add_argument("--quality-pairs", type=int, default=3,
                        help="back-to-back off/on pairs for --mode quality "
                             "(default 3; the overhead is their median)")
    parser.add_argument("--quality-sample", type=int, default=8,
                        metavar="N",
                        help="shadow-verify 1-in-N cache hits during "
                             "--mode quality (default 8)")
    parser.add_argument("--quality-max-overhead-pct", type=float,
                        default=None, metavar="PCT",
                        help="fail when shadow verification costs more than "
                             "PCT%% warm-cache throughput (CI uses 5)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes")
    parser.add_argument("--json", metavar="FILE", dest="json_path",
                        help="write the report to FILE as JSON")
    parser.add_argument("--max-p95-ms", type=float, default=None,
                        metavar="MS",
                        help="fail when closed-loop client p95 exceeds MS")
    args = parser.parse_args(argv)
    if args.quick:
        args.requests, args.brochures = 10, 3
        args.open_duration_s = min(args.open_duration_s, 1.0)
    if args.clients < 1 or args.requests < 1:
        parser.error("--clients/--requests must be >= 1")

    payload = brochure_sgml(args.brochures, distinct_suppliers=4).encode()
    report = {"benchmark": "serve", "mode": args.mode}
    failures = []

    if args.mode in ("closed", "full"):
        closed_report, closed_failures = run_closed(args, payload)
        report.update(closed_report)
        failures.extend(closed_failures)
    if args.mode in ("ablation", "full"):
        print("cache ablation (closed loop, repeated payload):")
        report["ablation"], ablation_failures = run_ablation(args, payload)
        failures.extend(ablation_failures)
    if args.mode in ("open", "full"):
        report["open_loop"], open_failures = run_open(args, payload)
        failures.extend(open_failures)
    if args.mode == "alerts":
        print("alert-evaluator overhead (closed loop, off vs on):")
        report["alerts"], alert_failures = run_alerts(args, payload)
        failures.extend(alert_failures)
    if args.mode == "quality":
        print("shadow-verification overhead (warm cache, off vs on):")
        report["quality"], quality_failures = run_quality(args, payload)
        failures.extend(quality_failures)

    for failure in failures:
        print(f"FAIL: {failure}")
    write_report(report, args.json_path)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
