"""End-to-end benchmark of the YAT mediator: source text to target output.

Four workloads run the paper's pipelines from raw SGML and relational
text to ODMG objects, HTML pages and HTTP responses. Each workload
leans on a different layer, so a change that speeds one layer shows
where it helps and where it should change nothing (README.md has the
rationale and the layer → end-to-end prediction table).

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 7                     # all workloads
    python3 benchmarks/e2e/run.py --workload rule3_join --seed 3 --seconds 15
    python3 benchmarks/e2e/run.py --seed 7 --trace 1 --trace-dir traces
    python3 benchmarks/e2e/run.py --quick --json quick.json    # smoke scale
    python3 benchmarks/e2e/run.py --agree first.json second.json

``--trace 0`` (default) reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` reports its per-layer metrics and adds a traced process
per batch workload (span self-time table, tracing overhead) and
``/trace`` fetches on serve_mix. ``--trace-dir`` also writes a Chrome
trace per batch workload. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. The
exit code is 1 when any output is wrong or any operation failed.

The program under test is imported from ``src/`` of this checkout, in
child processes only; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import ledger
import serve_mix
from child import mapping_digest

HERE = Path(__file__).resolve().parent
ROOT = ledger.ROOT
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("fig1_publish", "dealer_ingest", "rule3_join", "serve_mix")
#: Batch workloads run in this many fresh processes, one after another,
#: each measuring for an equal share of the run's seconds.
BATCH_CHILDREN = 3
MIN_PASSES = 2
TRACED_PASSES = 3
#: One workload's run must end well inside three minutes.
TIME_CAP_S = 170.0
#: A traced pass's span self times must add up to its wall time.
SELF_TIME_TOLERANCE = 0.05
QUICK_SECONDS = 1.5

#: Per-layer metrics of layers a workload never calls (README.md,
#: "Bypassed layers"); they read 0 in a traced result line. Any other
#: per-layer metric missing from a traced run makes the run incorrect,
#: so a renamed span or counter cannot read 0 unnoticed.
_RELATIONAL = ("relational.load_ms", "wrappers.relational_import_ms")
_O2WEB = ("wrappers.odmg_export_ms", "wrappers.odmg_import_ms",
          "wrappers.html_export_ms", "yatl.run.o2web_ms",
          "self_ms.wrapper.export", "self_ms.yatl.demand.round")
_SERVE = ("serve.client_ms.p95", "serve.server_ms.p50", "serve.server_ms.p95",
          "serve.shell_ms.p50", "serve.shell_ms.p95",
          "serve.closed_loop.shell_ms.p50", "serve.cache_hit_ratio",
          "serve.gen_lag_ms.p95", "serve.dropped", "serve.non_200",
          "serve.max_rps", "self_ms.serve.request", "self_ms.serve.parse")
BYPASSED = {
    "fig1_publish": _RELATIONAL + _SERVE,
    "dealer_ingest": _RELATIONAL + _O2WEB + ("system.merge_ms",) + _SERVE,
    "rule3_join": _O2WEB + _SERVE,
    "serve_mix": _RELATIONAL + _O2WEB + ("system.merge_ms", "trace_overhead_pct"),
}


class Context:
    """What one workload run needs: settings, deadline, child spawner."""

    def __init__(self, args, profile: str, seconds: float) -> None:
        self.root = str(ROOT)
        self.seed = args.seed
        self.profile = profile
        self.seconds = seconds
        self.trace = bool(args.trace)
        self.trace_dir = args.trace_dir
        self.golden = {} if args.update_golden else load_golden(GOLDEN)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        # One string-hash layout for every run: the seed varies only the
        # inputs, so runs under different seeds differ by their data.
        self.env["PYTHONHASHSEED"] = "0"
        self.serve_payloads = inputs.ServePayloads(profile, args.seed)
        self.deadline = time.perf_counter() + TIME_CAP_S

    def remaining(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def golden_key(self, workload: str) -> str:
        return f"{self.seed}/{self.profile}/{workload}"

    def child(self, job: dict) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(job), capture_output=True, text=True,
            cwd=self.root, env=self.env, timeout=self.remaining(),
        )
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            raise RuntimeError(f"child exited {proc.returncode}: {tail[0]}")
        return json.loads(proc.stdout)


class Outcome:
    """The operations of one workload run and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, attempted: int, failed: int, errors=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)

    def fail(self, message: str) -> None:
        self.add(1, 1, [message])


def load_golden(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def count_metrics(counts: dict, compiled: int) -> dict:
    """Per-layer metrics of ``repro.yatl`` from its run counters; a
    metric whose counter the program did not report is left out."""

    def ratio(num, den):
        return num / den if den else 0.0

    formulas = {
        "yatl.inputs.converted_ratio": lambda c: ratio(
            c["yatl.inputs.converted"], c["yatl.inputs.total"]),
        "yatl.dispatch.candidate_reduction_ratio": lambda c: ratio(
            c["yatl.dispatch.subjects_considered"]
            - c["yatl.dispatch.subjects_admitted"],
            c["yatl.dispatch.subjects_considered"]),
        "yatl.rule.bindings_matched": lambda c: c["yatl.rule.bindings_matched"],
        "yatl.skolem.reuse_ratio": lambda c: ratio(
            c["yatl.skolem.ids_reused"],
            c["yatl.skolem.ids_fresh"] + c["yatl.skolem.ids_reused"]),
    }
    metrics = {"yatl.arena.compiled_rules": compiled}
    for name, formula in formulas.items():
        try:
            metrics[name] = formula(counts)
        except KeyError:
            pass
    return metrics


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------


def run_batch(ctx: Context, name: str, outcome: Outcome) -> dict:
    data = inputs.batch_inputs(name, ctx.profile, ctx.seed)
    job = {
        "mode": "timed", "workload": name, "inputs": data,
        "golden": ctx.golden.get(ctx.golden_key(name)),
        "budget_s": ctx.seconds / BATCH_CHILDREN, "min_passes": MIN_PASSES,
    }
    children = []
    for _ in range(BATCH_CHILDREN):
        try:
            result = ctx.child(job)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            outcome.fail(f"child process: {exc}")
            continue
        outcome.add(result["attempted"], result["failed"], result["errors"])
        children.append(result)
    if not children:
        return {}
    digests = {c["digest"] for c in children}
    if len(digests) > 1:
        outcome.fail(f"child processes disagree on the output: {sorted(digests)}")
    passes = [p for c in children for p in c["passes"]]
    walls = [p["wall_ms"] / 1000.0 for p in passes]
    docs = data["documents"]
    convert = statistics.median(walls)
    rss = [c["peak_rss_mb"] for c in children]
    metrics = {
        "setup_s": ledger.summary([c["setup_s"] for c in children]),
        "convert_s": ledger.summary(walls),
        "docs_per_s": ledger.summary([docs / w for w in walls], docs / convert),
        "peak_rss_mb": ledger.summary(rss, max(rss)),
    }
    layers = {}
    for layer in sorted({k for p in passes for k in p["layers"]}):
        layers[f"{layer}_ms"] = ledger.summary(
            [p["layers"].get(layer, 0.0) for p in passes])
    first = children[0]
    for key, value in count_metrics(first["counts"], first["compiled_rules"]).items():
        layers[key] = ledger.summary([value])
    run = {
        "size": {"documents": docs, "outputs": data["expect_outputs"],
                 "input_bytes": len(data["sgml"]) + sum(
                     len(text) for text in data.get("csv", {}).values())},
        "metrics": metrics, "layers": layers,
        "rules": f"{first['compiled_rules']}/{first['rules']} compiled",
        "digest": first["digest"],
    }
    if ctx.trace:
        run["trace"] = traced_batch(ctx, name, job, convert, layers, outcome)
    return run


def traced_batch(ctx, name, job, untraced_s, layers, outcome) -> dict:
    job = dict(job, mode="traced", traced_passes=TRACED_PASSES)
    if ctx.trace_dir:
        os.makedirs(ctx.trace_dir, exist_ok=True)
        job["trace_path"] = os.path.abspath(
            os.path.join(ctx.trace_dir, f"{name}.trace.json"))
    try:
        traced = ctx.child(job)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        outcome.fail(f"traced child process: {exc}")
        return {}
    outcome.add(traced["attempted"], traced["failed"], traced["errors"])
    wall_ms = statistics.mean(traced["traced_ms"])
    self_sum = sum(traced["self_ms"].values())
    if abs(self_sum / wall_ms - 1.0) > SELF_TIME_TOLERANCE:
        outcome.fail(f"span self times sum to {self_sum:.1f} ms of a "
                     f"{wall_ms:.1f} ms traced pass")
    overhead = (statistics.median(traced["traced_ms"]) / 1000.0 / untraced_s - 1) * 100
    layers["trace_overhead_pct"] = ledger.summary([overhead])
    for span_name, ms in traced["self_ms"].items():
        layers[f"self_ms.{span_name}"] = ledger.summary([ms])
    table = dict(sorted(traced["self_ms"].items(), key=lambda kv: -kv[1]))
    if ctx.trace_dir:
        with open(os.path.join(ctx.trace_dir, f"{name}.self_ms.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"per_pass_self_ms": table, "traced_pass_ms": wall_ms},
                      handle, indent=2)
    return {"traced_ms": traced["traced_ms"], "self_ms": table,
            "self_sum_ms": self_sum, "spans": traced["spans"],
            "chrome_trace": job.get("trace_path")}


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------


def run_serve(ctx: Context, outcome: Outcome) -> dict:
    try:
        obs = serve_mix.drive(ctx)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        outcome.fail(f"serve_mix: {exc}")
        return {}
    try:
        oracle = ctx.child({"mode": "serve_oracle", "program": serve_mix.PROGRAM,
                            "payloads": obs["texts"]})
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        outcome.fail(f"serve oracle process: {exc}")
        return {}
    expected = oracle["payloads"]
    phases = [obs["closed"]] + obs["ladder"] + obs["traced"]
    for sample in obs["extra"] + [s for p in phases for s in p["samples"]]:
        check_response(sample, expected[sample["key"]], outcome)
    hot = ctx.serve_payloads.hot
    digest = mapping_digest({k: expected[k]["output"] for k in hot})
    golden = ctx.golden.get(ctx.golden_key("serve_mix"))
    outcome.add(1, 0)
    if golden is not None and golden != digest:
        outcome.fail(f"hot payload outputs {digest[:12]} != golden {golden[:12]}")

    main, closed = obs["main"], obs["closed"]
    docs = ctx.serve_payloads.size["brochures"]
    per_request = [docs * serve_mix.CONNECTIONS * 1000.0 / s["service_ms"]
                   for s in closed["samples"] if s["status"] == 200]
    metrics = {
        "setup_s": ledger.summary(obs["setup_s"]),
        "convert_s": ledger.summary([ms / 1000.0 for ms in main["latency_ms"]]),
        "docs_per_s": ledger.summary(per_request, closed["ok_per_s"] * docs),
        "peak_rss_mb": ledger.summary([obs["peak_rss_mb"]]),
    }
    totals = {name: 0 for name in next(iter(expected.values()))["counts"]}
    for entry in expected.values():
        for name, value in entry["counts"].items():
            totals[name] += value
    # Ratios over all payloads; bindings per request, like a batch pass.
    if "yatl.rule.bindings_matched" in totals:
        totals["yatl.rule.bindings_matched"] = statistics.median(
            e["counts"]["yatl.rule.bindings_matched"] for e in expected.values())
    layers = {
        k: ledger.summary([v])
        for k, v in count_metrics(totals, oracle["compiled_rules"]).items()
    }
    meeting = [r["rate"] for r in obs["ladder"] if serve_mix.meets_limit(r)]
    p = ledger.percentile
    layers.update({
        "serve.client_ms.p95": ledger.summary(main["latency_ms"], main["p95_ms"]),
        "serve.server_ms.p50": ledger.summary(main["server_ms"], p(main["server_ms"], 50)),
        "serve.server_ms.p95": ledger.summary(main["server_ms"], p(main["server_ms"], 95)),
        "serve.shell_ms.p50": ledger.summary(main["shell_ms"], p(main["shell_ms"], 50)),
        "serve.shell_ms.p95": ledger.summary(main["shell_ms"], p(main["shell_ms"], 95)),
        "serve.closed_loop.shell_ms.p50": ledger.summary(
            closed["shell_ms"], p(closed["shell_ms"], 50)),
        "serve.cache_hit_ratio": ledger.summary([main["cache_hit_ratio"]]),
        "serve.gen_lag_ms.p95": ledger.summary(main["gen_lag_ms"], p(main["gen_lag_ms"], 95)),
        "serve.dropped": ledger.summary([sum(r["dropped"] for r in obs["ladder"])]),
        "serve.non_200": ledger.summary([sum(r["non_200"] for r in phases)]),
        "serve.max_rps": ledger.summary([max(meeting, default=0)]),
    })
    rows = obs["traces"]
    if rows:
        for layer in ("sgml.parse", "wrappers.sgml_import", "yatl.run"):
            layers[f"{layer}_ms"] = ledger.summary([r["layers"][layer] for r in rows])
        for span_name in sorted({n for r in rows for n in r["self_ms"]}):
            layers[f"self_ms.{span_name}"] = ledger.summary(
                [r["self_ms"].get(span_name, 0.0) for r in rows])
    ladder = [
        {k: v for k, v in r.items() if k != "samples"} for r in obs["ladder"]
    ]
    return {
        "size": {"documents_per_request": docs, "hot_payloads": len(hot),
                 "hot_every": serve_mix.HOT_EVERY,
                 "connections": serve_mix.CONNECTIONS},
        "metrics": metrics, "layers": layers,
        "rules": f"{oracle['compiled_rules']}/{oracle['rules']} compiled",
        "digest": digest,
        "ladder": ladder,
        "closed_loop": {k: v for k, v in closed.items() if k != "samples"},
        "traces_fetched": len(obs["traces"]),
    }


def check_response(sample: dict, expected: dict, outcome: Outcome) -> None:
    """A 200 with the in-process conversion's counts (and output, when
    the request asked for it); anything else is a failed request."""
    outcome.add(1, 0)
    if sample["status"] != 200:
        outcome.add(0, 1, [f"{sample['key']}: HTTP {sample['status']} "
                           f"{sample.get('error') or ''}".strip()])
        return
    got = sample["counts"]
    want = {k: expected[k] for k in ("input_trees", "output_trees", "unconverted")}
    if got != want:
        outcome.add(0, 1, [f"{sample['key']}: counts {got} != in-process {want}"])
    elif sample["output"] is not None and mapping_digest(sample["output"]) != expected["output"]:
        outcome.add(0, 1, [f"{sample['key']}: output differs from in-process run"])


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def git_sha():
    """The checkout's commit, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_stamp() -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_1m_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


def print_workload(name: str, run: dict, catalog: dict) -> None:
    print(f"\n== {name}: {run['wall_s']:.1f} s wall, {run['attempted']} operations, "
          f"{run['failed']} failed (error rate {run['error_rate']:.4f}); "
          f"arena rules {run.get('rules', '?')}")
    for error in run["errors"][:10]:
        print(f"   ! {error}")
    if not run.get("metrics"):
        return
    print(f"   {'end-to-end metric':<30} {'median':>12} {'unit':<6} {'n':>5} "
          f"{'q1':>12} {'q3':>12}")
    for metric in catalog["end_to_end"]:
        e = run["metrics"][metric["name"]]
        print(f"   {metric['name']:<30} {e['value']:>12.6g} {metric['unit']:<6} "
              f"{e['n']:>5} {e['q1']:>12.6g} {e['q3']:>12.6g}")
    print(f"   {'per-layer metric':<40} {'value':>12} {'unit':<6} {'n':>5}")
    for key, e in run["layers"].items():
        print(f"   {key:<40} {e['value']:>12.6g} {e['unit']:<6} {e['n']:>5}")
    for rung in run.get("ladder", []):
        print(f"   rate {rung['rate']:>4} req/s: sent {rung['sent']:>4} dropped "
              f"{rung['dropped']:>4} non-200 {rung['non_200']:>3} p50 "
              f"{rung['p50_ms']:7.2f} ms p95 {rung['p95_ms']:7.2f} ms "
              f"hit ratio {rung['cache_hit_ratio']:.2f}"
              f"{'  meets limit' if serve_mix.meets_limit(rung) else ''}")


def result_line(runs: dict, catalog: dict, trace: bool) -> dict:
    """The final JSON object: every end-to-end metric (or, traced,
    every per-layer metric) for the workload(s) run. A missing metric
    makes the line incorrect, except a bypassed layer's, which reads 0."""
    wanted = catalog["per_layer"] if trace else catalog["end_to_end"]
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    metrics = {}
    missing = []
    for workload, run in runs.items():
        pool = run.get("layers", {}) if trace else run.get("metrics", {})
        for metric in wanted:
            name = metric["name"]
            if name in pool:
                value = pool[name]["value"]
            elif trace and name in BYPASSED[workload]:
                value = 0.0
            else:
                missing.append(f"{workload}.{name}")
                continue
            key = name if len(runs) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": metric["unit"]}
    if missing:
        print(f"missing metrics: {', '.join(missing)}")
    return {"correct": failed == 0 and not missing, "attempted": max(1, attempted),
            "failed": failed, "metrics": metrics}


def agree_main(paths) -> int:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    rows = ledger.agree(records[0], records[1], ledger.catalog()["end_to_end"])
    print(ledger.format_agree(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="run only this workload (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds "
                             f"of BENCHMARK.json, {QUICK_SECONDS:g} with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", help="write Chrome traces and "
                        "self-time tables here (with --trace 1)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test input sizes and run length")
    parser.add_argument("--json", metavar="PATH",
                        help="write the full run record (samples, host stamp)")
    parser.add_argument("--update-golden", action="store_true",
                        help="record this run's output digests in golden.json")
    parser.add_argument("--agree", nargs=2, metavar=("FIRST", "SECOND"),
                        help="compare two --json records against the bounds")
    args = parser.parse_args(argv)
    if args.agree:
        return agree_main(args.agree)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2

    catalog = ledger.catalog()
    units = {m["name"]: m["unit"]
             for m in catalog["end_to_end"] + catalog["per_layer"]}
    profile = "quick" if args.quick else "full"
    seconds = args.seconds or (QUICK_SECONDS if args.quick else catalog["run_seconds"])
    # Byte-compile once up front so no set-up time includes compilation.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    record = {"benchmark": "e2e", "seed": args.seed, "profile": profile,
              "seconds": seconds, "trace": args.trace, "host": host_stamp(),
              "workloads": {}}
    runs = {}
    for name in args.workload or WORKLOADS:
        started = time.perf_counter()
        ctx = Context(args, profile, seconds)
        outcome = Outcome()
        run = run_serve(ctx, outcome) if name == "serve_mix" else run_batch(
            ctx, name, outcome)
        run.update(wall_s=time.perf_counter() - started,
                   attempted=outcome.attempted, failed=outcome.failed,
                   errors=outcome.errors,
                   error_rate=outcome.failed / max(1, outcome.attempted))
        for group in ("metrics", "layers"):
            for key, entry in run.get(group, {}).items():
                entry["unit"] = units.get(key, "ms" if key.startswith("self_ms.") else "")
        runs[name] = run
        record["workloads"][name] = run
        print_workload(name, run, catalog)
        if args.update_golden and "digest" in run and not outcome.failed:
            golden = load_golden(GOLDEN)
            golden[ctx.golden_key(name)] = run["digest"]
            with open(GOLDEN, "w", encoding="utf-8") as handle:
                json.dump(dict(sorted(golden.items())), handle, indent=2)
                handle.write("\n")
    record["host"]["loadavg_1m_end"] = os.getloadavg()[0]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    line = result_line(runs, catalog, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
