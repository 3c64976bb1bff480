"""Command-line interface: stand-alone conversion executables.

Section 5.1: "The runtime environment can be used independently or be
linked to import/export wrappers to generate stand-alone executables
(e.g. like LATEX2HTML). ... If the HTML output wrapper is used, the
generated executable can be used as a CGI script."

Usage::

    python -m repro list
    python -m repro show O2Web
    python -m repro check my_program.yatl
    python -m repro convert SgmlBrochuresToOdmg brochures.sgml
    python -m repro convert my.yatl brochures.sgml --to html -o site/
    python -m repro convert O2Web data.sgml --profile profile.json
    python -m repro convert O2Web data.sgml --flamegraph flame.txt
    python -m repro profile SgmlBrochuresToOdmg brochures.sgml -o p.json
    python -m repro stats SgmlBrochuresToOdmg brochures.sgml --format prometheus
    python -m repro quality SgmlBrochuresToOdmg brochures.sgml
    python -m repro diff SgmlBrochuresToOdmg before.sgml after.sgml
    python -m repro pipeline brochures.sgml -o site/   # SGML -> HTML direct
    python -m repro serve --port 8023                  # long-running daemon
    python -m repro serve --alerts rules.toml          # + SLO alerting
    python -m repro top http://127.0.0.1:8023          # live dashboard
    python -m repro watch http://127.0.0.1:8023 --once # health verdict

Programs are named library programs or ``.yatl`` files; input documents
are SGML files (one or several documents per file). ``--profile``
writes a Chrome-trace profile (load it in ``about:tracing`` or
https://ui.perfetto.dev) with the run's metrics attached; ``stats``
runs a conversion and prints its metrics instead of its output;
``--events`` writes the structured JSONL event log (one ``rule.fired``
event per recorded firing, span/trace ids joinable with the profile);
``lineage`` answers "why is this output node here?" (backward) and
"where did this input end up?" (forward) — see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from contextlib import nullcontext
from typing import List, Optional

from .errors import YatError
from .library.store import Library, standard_library
from .obs import (
    DEFAULT_HZ,
    EventLog,
    MetricsRegistry,
    ProvenanceStore,
    SpanRecorder,
    collecting,
    metrics_to_json,
    metrics_to_prometheus,
    profiling,
    quality_report,
    record,
    recording,
    render_diff_text,
    semantic_diff,
    span,
    tracing,
    write_profile,
)
from .sgml.parser import parse_sgml_many
from .wrappers.html import HtmlExportWrapper
from .wrappers.sgml import SgmlImportWrapper
from .yatl.parser import parse_program
from .yatl.printer import render_program
from .yatl.program import Program


def _load_program(spec: str, library: Library) -> Program:
    """A program: a ``.yatl`` file path or a library program name."""
    if spec.endswith(".yatl") or os.path.sep in spec:
        with open(spec) as handle:
            return parse_program(handle.read())
    return library.load_program(spec)


def _read_inputs(paths: List[str], coerce_numbers: bool):
    documents = []
    read_bytes = 0
    for path in paths:
        with open(path) as handle:
            text = handle.read()
        read_bytes += len(text.encode("utf-8"))
        documents.extend(parse_sgml_many(text))
    record("cli.input.files", len(paths))
    record("cli.input.bytes", read_bytes)
    wrapper = SgmlImportWrapper(coerce_numbers=coerce_numbers)
    return wrapper.to_store(documents)


def cmd_list(args, library: Library) -> int:
    print("programs:")
    for name in library.program_names():
        print(f"  {name}")
    print("models:")
    for name in library.model_names():
        print(f"  {name}")
    return 0


def cmd_show(args, library: Library) -> int:
    program = _load_program(args.program, library)
    print(render_program(program))
    return 0


def cmd_check(args, library: Library) -> int:
    program = _load_program(args.program, library)
    report = program.analyze_cycles()
    signature = program.signature()
    print(f"program {program.name}: {len(program.rules)} rule(s)")
    if report.cycles:
        cycles = " / ".join("->".join(c) for c in report.cycles)
        status = "safe-recursive" if report.is_acceptable else "REJECTED"
        print(f"  dereference cycles: {cycles} ({status})")
    else:
        print("  dereference cycles: none")
    for violation in report.violations:
        print(f"  violation: {violation}")
    print(f"  input model : {', '.join(signature.input_model.pattern_names())}")
    print(f"  output model: {', '.join(signature.output_model.pattern_names())}")
    try:
        program.check_models()
    except YatError as exc:
        print(f"  declared-model check failed: {exc}")
        return 1
    return 0 if report.is_acceptable else 1


def _emit(result, out_dir: Optional[str], to: str) -> None:
    if to == "html":
        pages = HtmlExportWrapper().export_result(result)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            for url, text in pages.items():
                with open(os.path.join(out_dir, url), "w") as handle:
                    handle.write(text)
            print(f"{len(pages)} page(s) written to {out_dir}/")
        else:
            for url, text in pages.items():
                print(f"=== {url}")
                print(text)
    else:  # trees
        for name, node in result.store:
            print(f"=== {name}")
            print(node)
            print()
    if result.warnings:
        print(f"({len(result.warnings)} warning(s))", file=sys.stderr)
        for warning in result.warnings:
            print(f"  {warning}", file=sys.stderr)


def _refuse_overwrite(args, *path_attrs: str) -> Optional[str]:
    """The first output path that already exists, unless ``--force``."""
    if getattr(args, "force", False):
        return None
    for attr in path_attrs:
        path = getattr(args, attr, None)
        if path and os.path.exists(path):
            return path
    return None


def _flamegraph_format(path: str) -> str:
    """Flamegraph output format by extension: ``.json`` means
    speedscope (https://speedscope.app), anything else collapsed-stack
    text (``flamegraph.pl`` input)."""
    return "speedscope" if path.endswith(".json") else "collapsed"


def _write_flamegraph(path: str, profile, name: str) -> str:
    """Write *profile* to *path* in the extension-selected format;
    returns the format written."""
    out_format = _flamegraph_format(path)
    with open(path, "w") as handle:
        if out_format == "speedscope":
            json.dump(profile.speedscope(name), handle, sort_keys=True)
            handle.write("\n")
        else:
            handle.write(profile.collapsed())
    return out_format


def cmd_convert(args, library: Library) -> int:
    program = _load_program(args.program, library)
    existing = _refuse_overwrite(args, "profile", "events", "flamegraph")
    if existing is not None:
        print(
            f"error: {existing} already exists (use --force to overwrite)",
            file=sys.stderr,
        )
        return 1
    span_profiling = bool(getattr(args, "profile", None))
    eventing = bool(getattr(args, "events", None))
    flamegraph = getattr(args, "flamegraph", None)
    registry = MetricsRegistry()
    recorder = SpanRecorder() if span_profiling else None
    events = EventLog() if eventing else None
    provenance = (
        ProvenanceStore(sample_rate=args.sample_rate, events=events)
        if eventing
        else None
    )
    with collecting(registry), (
        recording(recorder) if span_profiling else nullcontext()
    ), (tracing(provenance) if provenance is not None else nullcontext()), (
        profiling(hz=args.hz) if flamegraph else nullcontext()
    ) as profiler:
        with span("pipeline", program=args.program, to=args.to):
            store = _read_inputs(args.inputs, coerce_numbers=not args.no_coerce)
            result = program.run(store, runtime_typing=args.runtime_typing)
            with span("export", to=args.to):
                _emit(result, args.output, args.to)
    if flamegraph:
        out_format = _write_flamegraph(
            flamegraph, profiler.profile, f"repro convert {args.program}"
        )
        print(
            f"flamegraph ({out_format}, "
            f"{profiler.profile.sample_count} sample(s)) written to "
            f"{flamegraph}",
            file=sys.stderr,
        )
    if span_profiling:
        write_profile(
            args.profile,
            registry,
            recorder,
            meta={
                "program": args.program,
                "inputs": list(args.inputs),
                "to": args.to,
            },
        )
        print(f"profile written to {args.profile}", file=sys.stderr)
    if eventing:
        events.write(args.events, max_bytes=args.events_log_max_bytes)
        rotated = (
            f", {events.last_rotations} rotation(s)"
            if events.last_rotations else ""
        )
        print(
            f"{len(events)} event(s) written to {args.events} "
            f"({provenance.recorded}/{provenance.firings} firing(s) recorded"
            f"{rotated})",
            file=sys.stderr,
        )
    if result.unconverted:
        print(f"({len(result.unconverted)} input(s) matched by no rule)",
              file=sys.stderr)
    return 0


def cmd_profile(args, library: Library) -> int:
    """Run a conversion under the sampling profiler and report where
    the wall time went (phases + self-time leaders), optionally writing
    a flamegraph file."""
    program = _load_program(args.program, library)
    existing = _refuse_overwrite(args, "out")
    if existing is not None:
        print(
            f"error: {existing} already exists (use --force to overwrite)",
            file=sys.stderr,
        )
        return 1
    registry = MetricsRegistry()
    with collecting(registry), profiling(hz=args.hz) as profiler:
        with span("pipeline", program=args.program, to="profile"):
            store = _read_inputs(args.inputs, coerce_numbers=not args.no_coerce)
            result = program.run(store, runtime_typing=args.runtime_typing)
    profile = profiler.profile
    total = profile.total_seconds
    print(
        f"profiled {program.name}: {profile.sample_count} sample(s) over "
        f"{profile.duration_s:.3f}s at {args.hz:g}hz "
        f"({len(result.store)} output tree(s))"
    )
    phases = profile.phase_totals()
    if phases:
        print("phases:")
        for phase, entry in phases.items():
            seconds = entry["seconds"]
            pct = (seconds / total * 100) if total else 0.0
            print(
                f"  {phase:<10} {seconds:>8.3f}s {pct:>6.1f}%  "
                f"({int(entry['samples'])} sample(s))"
            )
    else:
        print("phases: (no samples — run finished between ticks; "
              "try --hz 500 or a larger input)")
    leaders = profile.top_functions(limit=args.top)
    if leaders:
        print("top functions (self time):")
        for entry in leaders:
            print(
                f"  {entry['self_seconds']:>8.3f}s  [{entry['phase']}] "
                f"{entry['function']}"
            )
    if args.out:
        out_format = _write_flamegraph(
            args.out, profile, f"repro profile {args.program}"
        )
        print(f"flamegraph ({out_format}) written to {args.out}",
              file=sys.stderr)
    return 0


def _print_backward_chain(prov, node: str, out, indent: str = "",
                          seen=None) -> None:
    """The recursive ``why is this node here?`` text report."""
    seen = set() if seen is None else seen
    records = prov.records_of(node)
    source = prov.source_of(node)
    origin = f" (source {source})" if source else ""
    if node in seen:
        print(f"{indent}{node}{origin} (see above)", file=out)
        return
    seen.add(node)
    if not records:
        print(f"{indent}{node}{origin}", file=out)
        return
    for record_ in records:
        rule = record_.rule
        if record_.program:
            rule += f" (program {record_.program})"
        print(f"{indent}{node}{origin} <- {rule}", file=out)
        for input_id in record_.inputs:
            _print_backward_chain(prov, input_id, out, indent + "  ", seen)


def cmd_lineage(args, library: Library) -> int:
    """Run a conversion with the recorder on, then answer lineage
    queries over the result."""
    program = _load_program(args.program, library)
    registry = MetricsRegistry()
    provenance = ProvenanceStore(sample_rate=args.sample_rate)
    with collecting(registry), tracing(provenance), recording(SpanRecorder()):
        with span("pipeline", program=args.program, to="lineage"):
            store = _read_inputs(args.inputs, coerce_numbers=not args.no_coerce)
            result = program.run(store, runtime_typing=args.runtime_typing)
    nodes = [args.node] if args.node else list(result.store.names())
    known = provenance.nodes()
    missing = [n for n in nodes if n not in known]
    if missing:
        print(
            f"error: no lineage for {', '.join(missing)} "
            f"(known nodes: {', '.join(sorted(known)) or 'none'})",
            file=sys.stderr,
        )
        return 1
    if args.format == "dot":
        print(provenance.to_dot(args.node if args.node else None), end="")
        return 0
    if args.format == "json":
        payload = {
            "program": program.name,
            "sample_rate": provenance.sample_rate,
            "nodes": {
                node: {
                    "backward": [r.to_json() for r in provenance.backward(node)],
                    "forward": sorted(provenance.forward(node)),
                    "leaves": sorted(provenance.leaves(node)),
                    "origins": sorted(provenance.origins_of(node)),
                }
                for node in nodes
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for node in nodes:
        if args.forward:
            reached = sorted(provenance.forward(node))
            where = ", ".join(reached) if reached else "(consumed by nothing)"
            print(f"{node} -> {where}")
        else:
            _print_backward_chain(provenance, node, sys.stdout)
    return 0


def cmd_stats(args, library: Library) -> int:
    """Run a conversion and report its metrics instead of its output."""
    program = _load_program(args.program, library)
    registry = MetricsRegistry()
    with collecting(registry):
        store = _read_inputs(args.inputs, coerce_numbers=not args.no_coerce)
        result = program.run(store, runtime_typing=args.runtime_typing)
    if args.format == "json":
        print(json.dumps(metrics_to_json(registry), indent=2, sort_keys=True))
    elif args.format == "prometheus":
        print(metrics_to_prometheus(registry), end="")
    else:
        print(f"program {program.name}: {len(result.store)} output tree(s), "
              f"{len(result.unconverted)} unconverted, "
              f"{len(result.warnings)} warning(s)")
        for metric in sorted(registry, key=lambda m: m.name):
            samples = sorted(metric.samples(), key=lambda s: sorted(s[0].items()))
            for labels, value in samples:
                suffix = ""
                if labels:
                    pairs = ", ".join(f"{k}={v}" for k, v in sorted(labels.items()))
                    suffix = "{" + pairs + "}"
                if metric.kind == "histogram":
                    stats = metric.stats(**labels)
                    text = f"count={stats['count']:g} sum={stats['sum']:.6f}"
                    if stats["p50"] is not None:
                        text += (
                            f" p50={stats['p50']:.6g} p95={stats['p95']:.6g}"
                            f" p99={stats['p99']:.6g}"
                        )
                elif value == int(value):
                    text = f"{int(value)}"
                else:
                    text = f"{value:g}"
                print(f"  {metric.name}{suffix} = {text}")
    return 0


def cmd_quality(args, library: Library) -> int:
    """Run a conversion and report its quality: rule coverage (fired /
    never-fired / fallback-only), per-rule input share, and
    unconverted-input accounting (docs/OBSERVABILITY.md, "Conversion
    quality"). Exits 1 when --strict and the run left rules cold or
    inputs unconverted."""
    program = _load_program(args.program, library)
    registry = MetricsRegistry()
    provenance = ProvenanceStore()
    with collecting(registry), tracing(provenance):
        store = _read_inputs(args.inputs, coerce_numbers=not args.no_coerce)
        result = program.run(store, runtime_typing=args.runtime_typing)
    report = quality_report(program, result)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text(), end="")
    if args.strict and (
        report.never_fired or float(report.inputs["unconverted"])
    ):
        return 1
    return 0


def cmd_diff(args, library: Library) -> int:
    """Convert two inputs through the same program and diff the outputs
    on canonical Skolem terms, attributing every added / removed /
    changed node to the rule and binding inputs that produced it."""
    program = _load_program(args.program, library)

    def run_side(path: str):
        registry = MetricsRegistry()
        provenance = ProvenanceStore()
        with collecting(registry), tracing(provenance):
            store = _read_inputs([path], coerce_numbers=not args.no_coerce)
            return program.run(store, runtime_typing=args.runtime_typing)

    result_a = run_side(args.input_a)
    result_b = run_side(args.input_b)
    diff = semantic_diff(result_a, result_b)
    if args.format == "json":
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(render_diff_text(diff), end="")
    summary = diff["summary"]
    changed = (
        int(summary["added"]) + int(summary["removed"])
        + int(summary["changed"])
    )
    return 1 if (args.exit_code and changed) else 0


def cmd_serve(args, library: Library) -> int:
    """Run the mediator as a long-lived daemon (see repro.serve)."""
    from .obs.alerts import load_rules
    from .serve import MediatorServer
    from .system import YatSystem

    alert_rules = load_rules(args.alerts) if args.alerts else None
    server = MediatorServer(
        host=args.host,
        port=args.port,
        system=YatSystem(library=library),
        request_log_path=args.request_log,
        event_log_path=args.event_log,
        trace_capacity=args.trace_capacity,
        warm=not args.no_warm,
        allow_test_delay=args.debug_delay,
        cache_size=args.cache_size,
        max_queue_depth=args.max_queue_depth,
        history_interval_s=args.history_interval,
        history_capacity=args.history_capacity,
        alert_rules=alert_rules,
        request_log_max_bytes=args.request_log_max_bytes,
        shadow_sample=args.shadow_sample,
    )
    if args.shadow_sample:
        print(
            f"shadow verification: re-converting 1 in "
            f"{args.shadow_sample} cache hit(s) in the background "
            f"(GET /quality for the verdict)",
            file=sys.stderr,
        )
    if alert_rules:
        print(
            f"alerting: {len(alert_rules)} rule(s) from {args.alerts} "
            f"(GET /alerts, `repro watch` for the verdict)",
            file=sys.stderr,
        )
    stop_requested = threading.Event()

    def _request_stop(signum, frame):
        stop_requested.set()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    server.start()
    print(
        f"repro serve listening on http://{server.host}:{server.port} "
        f"(endpoints: POST /convert/<program>, GET /metrics /healthz "
        f"/readyz /stats /stats/history /alerts /quality /debug/profile "
        f"/trace/<id>)",
        file=sys.stderr,
    )
    try:
        stop_requested.wait()
        print("shutting down: draining in-flight requests...",
              file=sys.stderr)
        server.stop()
        print(
            f"served {len(server.request_log)} request(s); logs flushed",
            file=sys.stderr,
        )
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def cmd_top(args, library: Library) -> int:
    """The live terminal dashboard over a running daemon's /stats."""
    from .serve import run_top

    return run_top(
        args.url,
        interval=args.interval,
        iterations=args.iterations,
        clear=not args.no_clear,
    )


def cmd_watch(args, library: Library) -> int:
    """The SLO verdict over a running daemon's /alerts (exit 0 healthy,
    1 unreachable, 2 firing) — what CI and deploy gates branch on."""
    from .serve import run_watch

    return run_watch(
        args.url,
        once=args.once,
        interval=args.interval,
        iterations=args.iterations,
        timeout=args.timeout,
        check_shadow=not args.no_shadow,
    )


def cmd_pipeline(args, library: Library) -> int:
    """The LATEX2HTML-style executable: SGML brochures straight to HTML
    via the composed one-step program."""
    to_odmg = library.load_program("SgmlBrochuresToOdmg")
    web = library.load_program("O2Web")
    composed = to_odmg.composed_with(web, name="SgmlToHtml")
    store = _read_inputs(args.inputs, coerce_numbers=True)
    result = composed.run(store)
    _emit(result, args.output, "html")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="YAT: declarative data conversion (SIGMOD 1998 reproduction)",
    )
    parser.add_argument(
        "--library", metavar="DIR",
        help="program library directory (defaults to the built-in library)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list library programs and models")

    show = sub.add_parser("show", help="print a program in YATL syntax")
    show.add_argument("program")

    check = sub.add_parser("check", help="static checks: cycles + signature")
    check.add_argument("program")

    convert = sub.add_parser("convert", help="run a conversion program")
    convert.add_argument("program")
    convert.add_argument("inputs", nargs="+", help="SGML input file(s)")
    convert.add_argument("--to", choices=["trees", "html"], default="trees")
    convert.add_argument("-o", "--output", metavar="DIR",
                         help="directory for HTML output")
    convert.add_argument("--runtime-typing", action="store_true",
                         help="raise on inputs matched by no rule (Section 3.5)")
    convert.add_argument("--no-coerce", action="store_true",
                         help="keep numeric-looking PCDATA as strings")
    convert.add_argument("--profile", metavar="FILE",
                         help="write a Chrome-trace profile (spans + metrics) "
                              "of the run to FILE")
    convert.add_argument("--events", metavar="FILE",
                         help="write the structured JSONL event log (one "
                              "rule.fired event per recorded firing) to FILE")
    convert.add_argument("--events-log-max-bytes", type=int, default=None,
                         metavar="N",
                         help="rotate the --events log to FILE.1 once it "
                              "would exceed N bytes (default: no rotation)")
    convert.add_argument("--flamegraph", metavar="FILE",
                         help="sample the run with the wall-clock profiler "
                              "and write a flamegraph to FILE (.json = "
                              "speedscope, else collapsed-stack text)")
    convert.add_argument("--hz", type=float, default=DEFAULT_HZ,
                         metavar="HZ",
                         help=f"--flamegraph sampling rate "
                              f"(default {DEFAULT_HZ:g})")
    convert.add_argument("--force", action="store_true",
                         help="overwrite existing --profile/--events/"
                              "--flamegraph files")
    convert.add_argument("--sample-rate", type=float, default=1.0,
                         metavar="RATE",
                         help="fraction of rule firings to record in the "
                              "event log (default 1.0; counters stay exact)")

    profile = sub.add_parser(
        "profile",
        help="run a conversion under the sampling profiler and report "
             "where the wall time went (phases, hot functions, "
             "flamegraph export)",
    )
    profile.add_argument("program")
    profile.add_argument("inputs", nargs="+", help="SGML input file(s)")
    profile.add_argument("--hz", type=float, default=DEFAULT_HZ,
                         metavar="HZ",
                         help=f"samples per second (default {DEFAULT_HZ:g})")
    profile.add_argument("--top", type=int, default=10, metavar="N",
                         help="self-time leaders to list (default 10)")
    profile.add_argument("-o", "--out", metavar="FILE",
                         help="write a flamegraph to FILE (.json = "
                              "speedscope, else collapsed-stack text)")
    profile.add_argument("--force", action="store_true",
                         help="overwrite an existing --out file")
    profile.add_argument("--runtime-typing", action="store_true",
                         help="raise on inputs matched by no rule (Section 3.5)")
    profile.add_argument("--no-coerce", action="store_true",
                         help="keep numeric-looking PCDATA as strings")

    lineage = sub.add_parser(
        "lineage",
        help="run a conversion with provenance on and query node lineage",
    )
    lineage.add_argument("program")
    lineage.add_argument("inputs", nargs="+", help="SGML input file(s)")
    lineage.add_argument("--node", metavar="ID",
                         help="the node to explain (default: every output)")
    lineage.add_argument("--forward", action="store_true",
                         help="ask 'where did this node end up?' instead of "
                              "'why is it here?'")
    lineage.add_argument("--format", choices=["text", "json", "dot"],
                         default="text")
    lineage.add_argument("--sample-rate", type=float, default=1.0,
                         metavar="RATE",
                         help="fraction of rule firings to record "
                              "(default 1.0 — complete chains)")
    lineage.add_argument("--runtime-typing", action="store_true",
                         help="raise on inputs matched by no rule (Section 3.5)")
    lineage.add_argument("--no-coerce", action="store_true",
                         help="keep numeric-looking PCDATA as strings")

    stats = sub.add_parser(
        "stats", help="run a conversion and print its metrics"
    )
    stats.add_argument("program")
    stats.add_argument("inputs", nargs="+", help="SGML input file(s)")
    stats.add_argument("--format", choices=["text", "json", "prometheus"],
                       default="text")
    stats.add_argument("--runtime-typing", action="store_true",
                       help="raise on inputs matched by no rule (Section 3.5)")
    stats.add_argument("--no-coerce", action="store_true",
                       help="keep numeric-looking PCDATA as strings")

    quality = sub.add_parser(
        "quality",
        help="run a conversion and report rule coverage (fired / "
             "never-fired / fallback-only) and unconverted inputs",
    )
    quality.add_argument("program")
    quality.add_argument("inputs", nargs="+", help="SGML input file(s)")
    quality.add_argument("--format", choices=["text", "json"],
                         default="text")
    quality.add_argument("--strict", action="store_true",
                         help="exit 1 when any rule never fired or any "
                              "input stayed unconverted")
    quality.add_argument("--runtime-typing", action="store_true",
                         help="raise on inputs matched by no rule "
                              "(Section 3.5)")
    quality.add_argument("--no-coerce", action="store_true",
                         help="keep numeric-looking PCDATA as strings")

    diff = sub.add_parser(
        "diff",
        help="convert two inputs through one program and diff the "
             "outputs on canonical Skolem terms (with rule/provenance "
             "attribution)",
    )
    diff.add_argument("program")
    diff.add_argument("input_a", help="SGML input file (before)")
    diff.add_argument("input_b", help="SGML input file (after)")
    diff.add_argument("--format", choices=["text", "json"], default="text")
    diff.add_argument("--exit-code", action="store_true",
                      help="exit 1 when the outputs differ (git-diff "
                           "convention for scripts)")
    diff.add_argument("--runtime-typing", action="store_true",
                      help="raise on inputs matched by no rule "
                           "(Section 3.5)")
    diff.add_argument("--no-coerce", action="store_true",
                      help="keep numeric-looking PCDATA as strings")

    pipeline = sub.add_parser(
        "pipeline", help="SGML brochures to HTML in one composed step"
    )
    pipeline.add_argument("inputs", nargs="+", help="SGML input file(s)")
    pipeline.add_argument("-o", "--output", metavar="DIR")

    serve = sub.add_parser(
        "serve",
        help="run the mediator as an HTTP daemon with a live "
             "telemetry plane (/metrics, /healthz, /readyz, /stats, "
             "/trace/<id>)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8023,
                       help="listen port (0 binds an ephemeral port)")
    serve.add_argument("--request-log", metavar="FILE",
                       help="append one JSONL record per request to FILE")
    serve.add_argument("--request-log-max-bytes", type=int, default=None,
                       metavar="N",
                       help="rotate the request log to FILE.1 once it "
                            "would exceed N bytes (default: no rotation)")
    serve.add_argument("--alerts", metavar="FILE",
                       help="declarative alert/SLO rules (TOML or JSON) "
                            "evaluated on every history tick; see "
                            "docs/OBSERVABILITY.md")
    serve.add_argument("--event-log", metavar="FILE",
                       help="write the server lifecycle event log (JSONL) "
                            "to FILE on shutdown")
    serve.add_argument("--trace-capacity", type=int, default=64,
                       metavar="N",
                       help="recent request traces retained for "
                            "/trace/<id> (default 64)")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip program-library warmup (readyz stays 503)")
    serve.add_argument("--cache-size", type=int, default=256, metavar="N",
                       help="conversion result cache capacity in entries "
                            "(0 disables; default 256)")
    serve.add_argument("--max-queue-depth", type=int, default=None,
                       metavar="N",
                       help="admission control: shed conversions with 429 + "
                            "Retry-After once N are already executing or "
                            "queued (default: unbounded)")
    serve.add_argument("--history-interval", type=float, default=5.0,
                       metavar="S",
                       help="seconds between /stats/history snapshots "
                            "(default 5)")
    serve.add_argument("--history-capacity", type=int, default=360,
                       metavar="N",
                       help="/stats/history ring size in samples "
                            "(default 360 — half an hour at the default "
                            "interval)")
    serve.add_argument("--shadow-sample", type=int, default=None,
                       metavar="N",
                       help="shadow verification: re-convert 1 in N "
                            "result-cache hits on a background worker and "
                            "byte-compare against the cached response "
                            "(GET /quality; default: off)")
    serve.add_argument("--debug-delay", action="store_true",
                       help=argparse.SUPPRESS)  # honor ?delay_ms= (tests)

    top = sub.add_parser(
        "top", help="live dashboard over a running `repro serve` daemon"
    )
    top.add_argument("url", nargs="?", default="http://127.0.0.1:8023",
                     help="daemon base URL (default http://127.0.0.1:8023)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between /stats polls (default 2)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="render N frames then exit (default: until ^C)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of clearing the screen")

    watch = sub.add_parser(
        "watch",
        help="poll a daemon's /alerts and report the health verdict "
             "(exit 0 healthy, 1 unreachable, 2 alerts firing)",
    )
    watch.add_argument("url", nargs="?", default="http://127.0.0.1:8023",
                       help="daemon base URL (default http://127.0.0.1:8023)")
    watch.add_argument("--once", action="store_true",
                       help="poll once, print the verdict, and exit")
    watch.add_argument("--interval", type=float, default=5.0,
                       help="seconds between /alerts polls (default 5)")
    watch.add_argument("--iterations", type=int, default=None, metavar="N",
                       help="poll N times then exit (default: until ^C)")
    watch.add_argument("--timeout", type=float, default=5.0,
                       help="per-poll HTTP timeout in seconds (default 5)")
    watch.add_argument("--no-shadow", action="store_true",
                       help="judge on alerts alone: ignore shadow "
                            "verification mismatches from GET /quality")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    library = (
        Library(directory=args.library) if args.library else standard_library()
    )
    handlers = {
        "list": cmd_list,
        "show": cmd_show,
        "check": cmd_check,
        "convert": cmd_convert,
        "profile": cmd_profile,
        "lineage": cmd_lineage,
        "stats": cmd_stats,
        "quality": cmd_quality,
        "diff": cmd_diff,
        "pipeline": cmd_pipeline,
        "serve": cmd_serve,
        "top": cmd_top,
        "watch": cmd_watch,
    }
    try:
        return handlers[args.command](args, library)
    except (YatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
