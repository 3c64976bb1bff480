"""The sampling profiler: aggregation, attribution, export, capture."""

import ast
import json
import sys
import threading
import time

import pytest

from repro.obs import (
    DEFAULT_HZ,
    Profile,
    SamplingProfiler,
    ambient_profiler,
    phase_of_stack,
    profiling,
)
from repro.obs.profile import (
    _ARENA_EXEC_FUNCS,
    _INTERPRETER_FUNCS,
    capture_stack,
    frame_label,
    phase_of_frame,
)
from repro.yatl import arena_exec, interpreter


def _key(name, path="/x/src/repro/core/trees.py", line=1):
    return (name, path, line)


MATCH = _key("match_edges", "/x/src/repro/yatl/matching.py", 10)
CONSTRUCT = _key("build", "/x/src/repro/core/instantiation.py", 20)
SKOLEM = _key("lookup", "/x/src/repro/yatl/skolem.py", 30)
MAIN = _key("main", "/home/app/main.py", 1)


class TestPhaseAttribution:
    def test_file_catalog_wins(self):
        assert phase_of_frame(MATCH) == "match"
        assert phase_of_frame(CONSTRUCT) == "construct"
        assert phase_of_frame(SKOLEM) == "skolem"

    def test_non_repro_frames_have_no_phase(self):
        assert phase_of_frame(MAIN) is None

    def test_leafmost_attributable_frame_wins(self):
        assert phase_of_stack((MAIN, MATCH, SKOLEM)) == "skolem"
        assert phase_of_stack((MAIN, SKOLEM, MATCH)) == "match"

    def test_unattributable_stack_is_other(self):
        assert phase_of_stack((MAIN,)) == "other"

    def test_interpreter_function_names_attribute(self):
        frame = _key("_construct_outputs",
                     "/x/src/repro/yatl/interpreter.py", 5)
        assert phase_of_frame(frame) == "construct"


ARENA_INTERN = _key("intern", "/x/src/repro/core/arena.py", 101)
ARENA_ENCODE = _key("encode", "/x/src/repro/core/arena.py", 269)
ARENA_BATCH = _key("_match_candidates",
                   "/x/src/repro/yatl/arena_exec.py", 548)
ARENA_DECODE = _key("decode", "/x/src/repro/core/arena.py", 320)
ARENA_MATCH = _key("match_block", "/x/src/repro/yatl/arena_exec.py", 90)
ARENA_BUILD = _key("build_order", "/x/src/repro/yatl/arena_exec.py", 299)
ARENA_HEAD = _key("build_leaf", "/x/src/repro/yatl/arena_exec.py", 256)
ARENA_ENGINE = _key("fast_for", "/x/src/repro/yatl/arena_exec.py", 486)


class TestArenaPhase:
    """The columnar engine's frames land in the catalog: representation
    work is ``arena``, its matching/head construction count toward the
    pipeline phases they replace."""

    def test_arena_columns_attribute_to_arena(self):
        assert phase_of_frame(ARENA_INTERN) == "arena"
        assert phase_of_frame(ARENA_ENCODE) == "arena"
        assert phase_of_frame(ARENA_DECODE) == "arena"
        assert phase_of_frame(ARENA_ENGINE) == "arena"

    def test_batch_matching_counts_as_match_and_construct(self):
        assert phase_of_frame(ARENA_BATCH) == "match"
        assert phase_of_frame(ARENA_MATCH) == "match"
        assert phase_of_frame(ARENA_BUILD) == "construct"
        assert phase_of_frame(ARENA_HEAD) == "construct"

    def test_arena_in_phase_catalog(self):
        from repro.obs.profile import PHASES

        assert "arena" in PHASES
        assert PHASES.index("arena") < PHASES.index("other")

    def test_collapsed_stacks_attribute_arena_phase(self):
        profile = Profile()
        profile.add_stack((MAIN, ARENA_INTERN), seconds=0.02, count=2)
        profile.add_stack((MAIN, ARENA_MATCH), seconds=0.03, count=3)
        profile.add_stack((MAIN, ARENA_MATCH, ARENA_DECODE),
                          seconds=0.01, count=1)
        totals = profile.phase_totals()
        assert totals["arena"]["samples"] == 3  # intern + leafmost decode
        assert totals["match"]["samples"] == 3
        collapsed = profile.collapsed()
        assert ";repro/core/arena.py:intern 2" in collapsed
        assert "repro/yatl/arena_exec.py:match_block" in collapsed


def _defs(module):
    """Names of every ``def`` (nested ones included) in *module*'s file."""
    with open(module.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


class TestCatalogDrift:
    """The function-level phase catalogs must track the code they
    describe: a renamed or deleted function would otherwise drop its
    samples into the file's default phase without any error."""

    @pytest.mark.parametrize("module, catalog", [
        (interpreter, _INTERPRETER_FUNCS),
        (arena_exec, _ARENA_EXEC_FUNCS),
    ], ids=["interpreter", "arena_exec"])
    def test_every_catalog_key_names_a_def(self, module, catalog):
        assert sorted(set(catalog) - _defs(module)) == []

    def test_arena_head_builders_are_construct(self):
        builders = sorted(
            name for name in _defs(arena_exec) if name.startswith("build_")
        )
        assert builders
        phases = {name: _ARENA_EXEC_FUNCS.get(name) for name in builders}
        assert phases == dict.fromkeys(builders, "construct")


class TestProfile:
    def test_add_and_totals(self):
        profile = Profile(hz=100.0)
        profile.add_stack((MAIN, MATCH), seconds=0.02, count=2)
        profile.add_stack((MAIN, MATCH), seconds=0.01, count=1)
        profile.add_stack((MAIN, SKOLEM), seconds=0.01, count=1)
        assert profile.sample_count == 4
        assert profile.total_seconds == pytest.approx(0.04)

    def test_stacks_sort_heaviest_first(self):
        profile = Profile()
        profile.add_stack((MAIN, SKOLEM), seconds=0.01, count=1)
        profile.add_stack((MAIN, MATCH), seconds=0.09, count=9)
        assert profile.stacks()[0][0] == (MAIN, MATCH)

    def test_phase_totals(self):
        profile = Profile()
        profile.add_stack((MAIN, MATCH), seconds=0.03, count=3)
        profile.add_stack((MAIN, CONSTRUCT), seconds=0.01, count=1)
        profile.add_stack((MAIN,), seconds=0.01, count=1)
        totals = profile.phase_totals()
        assert totals["match"] == {"seconds": pytest.approx(0.03),
                                   "samples": 3}
        assert totals["construct"]["samples"] == 1
        assert totals["other"]["samples"] == 1

    def test_top_functions_use_leaf_self_time(self):
        profile = Profile()
        profile.add_stack((MATCH, CONSTRUCT), seconds=0.05, count=5)
        profile.add_stack((MATCH,), seconds=0.02, count=2)
        leaders = profile.top_functions(limit=2)
        assert leaders[0]["function"].endswith("instantiation.py:build")
        assert leaders[0]["self_seconds"] == pytest.approx(0.05)
        # MATCH gets self time only where it was the leaf.
        assert leaders[1]["self_seconds"] == pytest.approx(0.02)

    def test_merge_sums_stacks_and_maxes_duration(self):
        left = Profile()
        left.add_stack((MAIN, MATCH), seconds=0.02, count=2)
        left.duration_s = 1.0
        right = Profile()
        right.add_stack((MAIN, MATCH), seconds=0.01, count=1)
        right.add_stack((MAIN, SKOLEM), seconds=0.01, count=1)
        right.duration_s = 0.4  # shards run concurrently: max, not sum
        left.merge(right)
        assert left.sample_count == 4
        assert left.duration_s == 1.0

    def test_collapsed_format(self):
        profile = Profile()
        profile.add_stack((MAIN, MATCH), seconds=0.02, count=2)
        line = profile.collapsed().strip()
        assert line.endswith(" 2")
        assert ";repro/yatl/matching.py:match_edges" in line

    def test_collapsed_empty_profile(self):
        assert Profile().collapsed() == ""

    def test_speedscope_document(self):
        profile = Profile(hz=100.0)
        profile.add_stack((MAIN, MATCH), seconds=0.02, count=2)
        profile.add_stack((MAIN, SKOLEM), seconds=0.01, count=1)
        doc = profile.speedscope("unit")
        assert "speedscope" in doc["$schema"]
        inner = doc["profiles"][0]
        assert inner["type"] == "sampled"
        assert len(inner["samples"]) == len(inner["weights"]) == 2
        assert inner["endValue"] == pytest.approx(0.03)
        # Frame indices resolve through the shared table.
        names = [doc["shared"]["frames"][i]["name"]
                 for i in inner["samples"][0]]
        assert names[-1] in ("repro/yatl/matching.py:match_edges",
                             "repro/yatl/skolem.py:lookup")
        json.dumps(doc)  # must be serializable

    def test_speedscope_weight_falls_back_to_count_over_hz(self):
        profile = Profile(hz=10.0)
        profile.add_stack((MAIN,), seconds=0.0, count=5)
        doc = profile.speedscope()
        assert doc["profiles"][0]["weights"][0] == pytest.approx(0.5)

    def test_json_roundtrip(self):
        profile = Profile(hz=50.0)
        profile.add_stack((MAIN, MATCH), seconds=0.02, count=2)
        profile.duration_s = 0.5
        clone = Profile.from_json(profile.to_json())
        assert clone.hz == 50.0
        assert clone.duration_s == 0.5
        assert clone.stacks() == profile.stacks()

    def test_merge_json(self):
        profile = Profile()
        shard = Profile()
        shard.add_stack((MAIN, MATCH), seconds=0.01, count=1)
        profile.merge_json(shard.to_json())
        assert profile.sample_count == 1


class TestCaptureStack:
    def test_captures_root_first(self):
        def inner():
            frame = sys._getframe()
            return capture_stack(frame)

        def outer():
            return inner()

        stack = outer()
        names = [key[0] for key in stack]
        assert names[-1] == "inner"
        assert names[-2] == "outer"

    def test_truncates_at_root_end(self):
        def recurse(depth, frame_box):
            if depth == 0:
                frame_box.append(sys._getframe())
                return
            recurse(depth - 1, frame_box)

        box = []
        recurse(20, box)
        stack = capture_stack(box[0], max_depth=5)
        assert len(stack) == 5
        assert stack[-1][0] == "recurse"  # leaf survives truncation


class TestSamplingProfiler:
    def test_rejects_nonpositive_hz(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_sample_once_records_current_threads(self):
        profiler = SamplingProfiler(hz=100.0)
        recorded = profiler.sample_once(weight_s=0.25)
        assert recorded >= 1
        assert profiler.profile.total_seconds >= 0.25

    def test_start_stop_idempotent(self):
        profiler = SamplingProfiler(hz=200.0)
        profiler.start()
        profiler.start()
        assert profiler.running
        profile = profiler.stop()
        profiler.stop()
        assert not profiler.running
        assert profile is profiler.profile
        assert profile.duration_s > 0

    def test_live_capture_sees_busy_thread(self):
        stop = threading.Event()

        def spin():
            while not stop.wait(0.001):
                sum(range(100))

        worker = threading.Thread(target=spin, daemon=True)
        worker.start()
        try:
            with SamplingProfiler(hz=500.0) as profiler:
                time.sleep(0.15)
        finally:
            stop.set()
            worker.join()
        assert profiler.profile.sample_count > 0
        labels = {
            frame_label(key[-1])
            for key, _count, _s in profiler.profile.stacks()
        }
        assert any("spin" in label or "wait" in label for label in labels)

    def test_samples_this_process(self):
        profiler = SamplingProfiler()
        assert not profiler.samples_this_process()  # never started
        profiler.start()
        try:
            assert profiler.samples_this_process()
        finally:
            profiler.stop()


class TestAmbientProfiling:
    def test_no_profiler_by_default(self):
        assert ambient_profiler() is None

    def test_profiling_installs_and_restores(self):
        with profiling(hz=300.0) as profiler:
            assert ambient_profiler() is profiler
            assert profiler.running
        assert ambient_profiler() is None
        assert not profiler.running

    def test_default_hz(self):
        with profiling() as profiler:
            assert profiler.hz == DEFAULT_HZ
