"""One fresh process of the end-to-end benchmark.

Reads a job (JSON) on stdin, writes a result (JSON) on stdout. The job
carries only generated text; this process imports the program, builds
the conversion programs, runs one cold pass (together: set-up), then
timed passes until its time budget is spent. Each layer is timed from
outside, around the benchmark's call into that module's public
function, and the same call opens a ``bench.<layer>`` span so a traced
pass nests the program's own spans beneath it.

Outside every timed region each pass's output digest is checked against
the golden digest (when the job has one) or else against the cold
pass, and once per process against an independent execution path.

Modes: ``timed`` (the measured passes), ``traced`` (passes under a span
recorder: self-time table and Chrome trace) and ``serve_oracle``
(in-process conversion of serve_mix payloads).
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time
from collections import defaultdict

from ledger import self_times, vm_hwm_mb

#: yatl counters read from ``ConversionResult.metrics`` after a pass.
COUNTERS = (
    "yatl.inputs.total",
    "yatl.inputs.converted",
    "yatl.dispatch.subjects_considered",
    "yatl.dispatch.subjects_admitted",
    "yatl.rule.bindings_matched",
    "yatl.skolem.ids_fresh",
    "yatl.skolem.ids_reused",
)
#: A layer that is part of a wider one (the O2Web run is a yatl run).
PART_OF = {"yatl.run.o2web": "yatl.run"}


def store_digest(store) -> str:
    digest = hashlib.sha256()
    for name, node in store:
        digest.update(f"{name}\t{node}\n".encode())
    return digest.hexdigest()


def mapping_digest(mapping) -> str:
    return hashlib.sha256(
        json.dumps(mapping, sort_keys=True).encode()
    ).hexdigest()


class Laps:
    """Times calls into the program's layers, per layer name."""

    def __init__(self, span) -> None:
        self._span = span
        self.ms = defaultdict(float)

    def __call__(self, layer, fn, *args, **kwargs):
        with self._span(f"bench.{layer}"):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = (time.perf_counter() - start) * 1000.0
        self.ms[layer] += elapsed
        if layer in PART_OF:
            self.ms[PART_OF[layer]] += elapsed
        return out


class Fig1Publish:
    """Figure 1 through the facade: SGML -> ODMG objects -> HTML pages."""

    def __init__(self, job) -> None:
        from repro import YatSystem
        from repro.objectdb import car_dealer_schema
        from repro.sgml import parse_sgml_many

        self.parse = parse_sgml_many
        self.text = job["inputs"]["sgml"]
        self.system = YatSystem()
        self.to_odmg = self.system.import_program("SgmlBrochuresToOdmg")
        self.web = self.system.import_program("O2Web")
        self.schema = car_dealer_schema()
        self.programs = [self.to_odmg, self.web]

    def run_pass(self, lap):
        from repro.obs import MetricsRegistry

        system = self.system
        # A fresh system registry per pass, so counts are per pass.
        system.metrics = MetricsRegistry()
        docs = lap("sgml.parse", self.parse, self.text)
        store = lap("wrappers.sgml_import", system.import_sgml, docs)
        merged = lap("system.merge", system.merge_stores, store)
        objects = lap("yatl.run", system.run, self.to_odmg, merged)
        odmg = lap("wrappers.odmg_export", system.export_odmg, objects, self.schema)
        back = lap("wrappers.odmg_import", system.import_odmg, odmg)
        pages = lap("yatl.run.o2web", system.run, self.web, back)
        html = lap("wrappers.html_export", system.export_html, pages)
        return html, [objects, pages]

    def oracle(self) -> str:
        """Section 4.3: the composed one-step program's pages."""
        from repro.wrappers.html import HtmlExportWrapper

        composed = self.system.compose(self.to_odmg, self.web, name="SgmlToHtml")
        store = self.system.import_sgml(self.parse(self.text))
        return output_digest(HtmlExportWrapper().export_result(composed.run(store)))


class DealerIngest:
    """Heterogeneous bulk ingest on the zero-copy arena path."""

    def __init__(self, job) -> None:
        from repro.sgml import parse_sgml_many
        from repro.workloads import dealer_document_program
        from repro.wrappers.sgml import SgmlImportWrapper

        self.parse = parse_sgml_many
        self.wrapper = SgmlImportWrapper()
        self.text = job["inputs"]["sgml"]
        self.program = dealer_document_program(job["inputs"]["kinds"])
        self.programs = [self.program]

    def run_pass(self, lap):
        docs = lap("sgml.parse", self.parse, self.text)
        store = lap("wrappers.sgml_import", self.wrapper.to_arena_store, docs)
        result = lap("yatl.run", self.program.run, store)
        return result, [result]

    def oracle(self) -> str:
        """The same arena input decoded to trees (``use_arena=False``)."""
        store = self.wrapper.to_arena_store(self.parse(self.text))
        return output_digest(self.program.run(store, use_arena=False))


class Rule3Join:
    """Section 3.2: Rule 3 joins SGML brochures with relational rows."""

    def __init__(self, job) -> None:
        from repro import YatSystem
        from repro.library import brochures_rule3_program
        from repro.relational import Database, dealer_schema
        from repro.relational.csvio import load_csv
        from repro.sgml import parse_sgml_many
        from repro.wrappers.relational import RelationalImportWrapper

        self.parse = parse_sgml_many
        self.load_csv = load_csv
        self.database = lambda: Database(dealer_schema())
        self.relational = RelationalImportWrapper()
        self.text = job["inputs"]["sgml"]
        self.csv = job["inputs"]["csv"]
        self.system = YatSystem()
        self.program = brochures_rule3_program()
        self.programs = [self.program]

    def load(self):
        database = self.database()
        for name, text in self.csv.items():
            table = self.load_csv(database.schema.table(name), text)
            for row in table.rows():
                database.insert(name, *row)
        return database

    def merged(self, lap):
        database = lap("relational.load", self.load)
        rel = lap("wrappers.relational_import", self.relational.to_store, database)
        docs = lap("sgml.parse", self.parse, self.text)
        sgml = lap("wrappers.sgml_import", self.system.import_sgml, docs,
                   coerce_numbers=False)
        return lap("system.merge", self.system.merge_stores, sgml, rel)

    def run_pass(self, lap):
        result = lap("yatl.run", self.program.run, self.merged(lap))
        return result, [result]

    def oracle(self) -> str:
        """The same join without the dispatch index."""
        merged = self.merged(lambda _layer, fn, *a, **k: fn(*a, **k))
        return output_digest(self.program.run(merged, use_dispatch_index=False))


PIPELINES = {
    "fig1_publish": Fig1Publish,
    "dealer_ingest": DealerIngest,
    "rule3_join": Rule3Join,
}


def output_digest(output) -> str:
    """Digest of a pass's target output: HTML pages or a result store."""
    if isinstance(output, dict):
        return mapping_digest(output)
    return store_digest(output.store)


def output_size(output) -> int:
    return len(output) if isinstance(output, dict) else len(output.store)


def pass_counts(results):
    """Counter totals over the pass's distinct metric registries. A
    counter no registry holds is left out rather than read as 0, so a
    renamed counter shows as a missing metric."""
    registries = {id(r.metrics): r.metrics for r in results}.values()
    totals = {}
    for name in COUNTERS:
        found = [reg.get(name) for reg in registries if reg.get(name)]
        if found:
            totals[name] = sum(counter.total() for counter in found)
    return totals


def compiled_rules(programs):
    """How many rules would run on the arena fast path."""
    from repro.core.arena import GLOBAL_INTERN
    from repro.yatl.arena_exec import compile_fast_rule

    rules = [rule for program in programs for rule in program.rules]
    compiled = sum(compile_fast_rule(r, GLOBAL_INTERN) is not None for r in rules)
    return compiled, len(rules)


class Checker:
    """Output oracle bookkeeping for one process."""

    def __init__(self, job) -> None:
        self.expected = job.get("golden")
        self.expect_outputs = job["inputs"]["expect_outputs"]
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def check(self, label: str, output) -> str:
        self.attempted += 1
        digest = output_digest(output)
        if self.expected is None:
            self.expected = digest  # the cold pass is the reference
        if digest != self.expected:
            self.fail(f"{label}: output digest {digest[:12]} != {self.expected[:12]}")
        elif output_size(output) != self.expect_outputs:
            self.fail(f"{label}: {output_size(output)} outputs, "
                      f"expected {self.expect_outputs}")
        return digest


def run_batch(job):
    start = time.perf_counter()
    pipeline = PIPELINES[job["workload"]](job)
    from repro.obs import span

    checker = Checker(job)
    output, results = pipeline.run_pass(Laps(span))
    setup_s = time.perf_counter() - start
    digest = checker.check("cold pass", output)
    counts = pass_counts(results)
    del output, results
    passes = []
    tries = 0
    budget_end = time.perf_counter() + job["budget_s"]
    while tries < job["min_passes"] or time.perf_counter() < budget_end:
        tries += 1
        gc.collect()
        laps = Laps(span)
        begin = time.perf_counter()
        try:
            output, results = pipeline.run_pass(laps)
        except Exception as exc:  # a failed pass counts; keep measuring
            checker.attempted += 1
            checker.fail(f"pass {tries}: {type(exc).__name__}: {exc}")
            continue
        wall_ms = (time.perf_counter() - begin) * 1000.0
        checker.check(f"pass {tries}", output)
        passes.append({"wall_ms": wall_ms, "layers": dict(laps.ms)})
        del output, results
    peak_rss_mb = vm_hwm_mb()
    checker.attempted += 1
    oracle = pipeline.oracle()
    if oracle != checker.expected:
        checker.fail(f"independent path digest {oracle[:12]} != {checker.expected[:12]}")
    compiled, rules = compiled_rules(pipeline.programs)
    return {
        "setup_s": setup_s,
        "passes": passes,
        "digest": digest,
        "counts": counts,
        "compiled_rules": compiled,
        "rules": rules,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
    }


def run_traced(job):
    pipeline = PIPELINES[job["workload"]](job)
    from repro.obs import SpanRecorder, chrome_trace, recording, span

    checker = Checker(job)
    output, _ = pipeline.run_pass(Laps(span))  # cold pass, untraced
    checker.check("cold pass", output)
    del output
    recorder = SpanRecorder()
    walls = []
    for index in range(job["traced_passes"]):
        gc.collect()
        with recording(recorder):
            begin = time.perf_counter()
            with span("bench.pass", index=index):
                output, _ = pipeline.run_pass(Laps(span))
            walls.append((time.perf_counter() - begin) * 1000.0)
        checker.check(f"traced pass {index + 1}", output)
        del output
    spans = recorder.spans()
    passes = len(walls)
    span_wall_ms = sum(s.duration_us for s in spans if s.name == "bench.pass") / 1000.0
    records = [{"name": s.name, "span_id": s.span_id, "parent_id": s.parent_id,
                "duration_us": s.duration_us} for s in spans]
    table = {name: ms / passes for name, ms in self_times(records).items()}
    if job.get("trace_path"):
        with open(job["trace_path"], "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(recorder), handle)
    return {
        "traced_ms": walls,
        "self_ms": table,
        "pass_span_ms": span_wall_ms / passes,
        "spans": len(spans),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
    }


def run_serve_oracle(job):
    """Convert each serve_mix payload in process, exactly as the daemon
    does for ``POST /convert/<program>?include=output``."""
    from repro import YatSystem
    from repro.sgml import parse_sgml_many
    from repro.wrappers.sgml import SgmlImportWrapper

    system = YatSystem()
    program = system.load_program_cached(job["program"])
    out = {}
    for key, text in job["payloads"].items():
        store = SgmlImportWrapper().to_store(parse_sgml_many(text))
        result = program.run(store)
        out[key] = {
            "input_trees": len(store),
            "output_trees": len(result.store),
            "unconverted": len(result.unconverted),
            "output": mapping_digest({n: str(t) for n, t in result.store}),
            "counts": pass_counts([result]),
        }
    compiled, rules = compiled_rules([program])
    return {"payloads": out, "compiled_rules": compiled, "rules": rules}


MODES = {"timed": run_batch, "traced": run_traced, "serve_oracle": run_serve_oracle}


def main() -> int:
    job = json.load(sys.stdin)
    result = MODES[job["mode"]](job)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
