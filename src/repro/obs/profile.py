"""Continuous profiling: a low-overhead wall-clock sampling profiler.

Counters say *what* the interpreter did and spans say *when* each
region ran, but neither answers "where does wall-clock time actually
go below the rule level?" without instrumenting every function. This
module answers it by *sampling*: a background thread wakes ``hz``
times per second, snapshots every thread's Python stack through
``sys._current_frames()``, and aggregates the stacks into a
:class:`Profile`. The threads being profiled pay nothing per call —
the entire cost is borne by the sampler thread (one GIL acquisition
and a frame walk per tick), which is what keeps the overhead within
the CI budget (``bench_dispatch_index --sampler``: <= 5% at the
default rate).

Samples attribute to *interpreter phases* — ``match`` / ``construct``
/ ``skolem`` / ``compose`` (plus ``parse``, ``wrap``, ``demand``,
``splice``, ``serve``) — by mapping the innermost recognizable frame
of each stack onto the pipeline stage that owns its code, so a profile
of a conversion decomposes the same way the span tree does, without
requiring a recorder to be installed.

Exports:

* ``collapsed()`` — Brendan Gregg's collapsed-stack text
  (``frame;frame;frame count``), the input format of ``flamegraph.pl``
  and of every flamegraph viewer that accepts folded stacks;
* ``speedscope()`` — a speedscope JSON document
  (https://www.speedscope.app — drag the file in, or
  ``speedscope out.json``), ``"type": "sampled"`` with real measured
  weights.

The profiler installs ambiently (:func:`profiling`) like the metrics
registry and span recorder.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterable, List, Optional, Tuple

#: Default sampling rate. Prime, so the sampler cannot phase-lock with
#: periodic work (metric flushes, history ticks) and systematically
#: over- or under-sample it.
DEFAULT_HZ = 97.0

#: Stacks deeper than this are truncated at the root end — the leaf
#: frames (where time is actually spent) always survive.
MAX_STACK_DEPTH = 128

#: A sampled frame: ``(function name, source file, first line)``.
FrameKey = Tuple[str, str, int]

# -- phase attribution -------------------------------------------------------

#: File-level phase ownership inside the ``repro`` package: the
#: innermost frame of a sample that lands in one of these files stamps
#: the sample with that pipeline phase. Order does not matter — the
#: leaf-most match wins.
_FILE_PHASES: Dict[str, str] = {
    "yatl/matching.py": "match",
    "yatl/bindings.py": "match",
    "yatl/dispatch.py": "match",
    "yatl/hierarchy.py": "match",
    "yatl/construction.py": "construct",
    "core/instantiation.py": "construct",
    "yatl/skolem.py": "skolem",
    "yatl/compose.py": "compose",
    "sgml/parser.py": "parse",
    "sgml/validator.py": "parse",
    "core/arena.py": "arena",
}

#: Function-level overrides for ``yatl/interpreter.py``, whose single
#: file spans every phase: the driver methods map onto the phase they
#: orchestrate (same names the span tree uses).
_INTERPRETER_FUNCS: Dict[str, str] = {
    "_bindings": "match",
    "_evaluate_calls": "match",
    "_apply_predicates": "match",
    "_roots_at": "match",
    "_leftover_indices": "match",
    "_unshadowed_rows": "match",
    "_apply_rule_with_shadowing": "match",
    "_construct_outputs": "construct",
    "_skolem_groups": "construct",
    "_on_skolem": "skolem",
    "demand_loop": "demand",
    "finish": "splice",
    "splice": "splice",
}

#: Function-level overrides for ``yatl/arena_exec.py``: a compiled
#: rule's row scan, Skolem grouping and head builders count as
#: ``match`` / ``construct`` (they do the same pipeline work as the
#: tree path); everything else in the file — rule compilation — is
#: ``arena`` time, the columnar representation's own overhead.
#: tests/obs/test_profile.py checks both function catalogs against the
#: ``def``s of their files.
_ARENA_EXEC_FUNCS: Dict[str, str] = {
    "match_block": "match",
    "scan": "match",
    "skolem_groups": "construct",
    "build_leaf": "construct",
    "build_var": "construct",
    "build_wrap": "construct",
    "build_ones": "construct",
    "build_mixed": "construct",
    "_edge_children": "construct",
    "build_star": "construct",
    "build_group": "construct",
    "build_order": "construct",
    "_agree": "construct",
    "skolem_args": "skolem",
}

#: Directory-level fallbacks (checked after files and functions).
_DIR_PHASES: Tuple[Tuple[str, str], ...] = (
    ("wrappers/", "wrap"),
    ("serve/", "serve"),
    ("sgml/", "parse"),
    ("relational/", "wrap"),
    ("objectdb/", "wrap"),
    ("html/", "wrap"),
)

#: Every phase a sample can attribute to (the catalog order used by
#: reports).
PHASES: Tuple[str, ...] = (
    "parse", "wrap", "arena", "match", "construct", "skolem", "compose",
    "demand", "splice", "serve", "other",
)


def _repro_path(filename: str) -> Optional[str]:
    """The path of *filename* relative to the ``repro`` package root,
    or None for code outside the package."""
    marker = os.sep + "repro" + os.sep
    index = filename.rfind(marker)
    if index < 0:
        return None
    return filename[index + len(marker):].replace(os.sep, "/")


def frame_label(frame: FrameKey) -> str:
    """The human spelling of one frame: ``repro/yatl/matching.py:match_edges``
    for package code, ``basename.py:func`` elsewhere."""
    name, filename, _line = frame
    inside = _repro_path(filename)
    if inside is not None:
        return f"repro/{inside}:{name}"
    return f"{os.path.basename(filename)}:{name}"


def phase_of_frame(frame: FrameKey) -> Optional[str]:
    """The pipeline phase owning one frame, or None when the frame is
    not attributable (plain library code, stdlib, tests)."""
    name, filename, _line = frame
    inside = _repro_path(filename)
    if inside is None:
        return None
    if inside == "yatl/interpreter.py":
        return _INTERPRETER_FUNCS.get(name)
    if inside == "yatl/arena_exec.py":
        return _ARENA_EXEC_FUNCS.get(name, "arena")
    phase = _FILE_PHASES.get(inside)
    if phase is not None:
        return phase
    for prefix, dir_phase in _DIR_PHASES:
        if inside.startswith(prefix):
            return dir_phase
    return None


def phase_of_stack(stack: Tuple[FrameKey, ...]) -> str:
    """The phase of one sampled stack: the innermost (leaf-most)
    attributable frame wins — a Skolem allocation reached from the
    construct phase is ``skolem`` time, exactly as the span tree would
    nest it."""
    for frame in reversed(stack):
        phase = phase_of_frame(frame)
        if phase is not None:
            return phase
    return "other"


# ---------------------------------------------------------------------------
# The aggregate
# ---------------------------------------------------------------------------


class Profile:
    """Aggregated samples: unique stacks with counts and wall seconds.

    Thread-safe: the sampler thread writes while readers export.
    """

    def __init__(self, hz: float = DEFAULT_HZ) -> None:
        self.hz = hz
        self._lock = threading.Lock()
        #: stack (root..leaf) -> [sample count, wall seconds]
        self._stacks: Dict[Tuple[FrameKey, ...], List[float]] = {}
        self.duration_s = 0.0

    # -- recording ----------------------------------------------------------

    def add_stack(
        self,
        stack: Iterable[FrameKey],
        seconds: float = 0.0,
        count: int = 1,
    ) -> None:
        key = tuple(stack)
        if not key:
            return
        with self._lock:
            entry = self._stacks.get(key)
            if entry is None:
                self._stacks[key] = [float(count), float(seconds)]
            else:
                entry[0] += count
                entry[1] += seconds

    # -- reading ------------------------------------------------------------

    @property
    def sample_count(self) -> int:
        with self._lock:
            return int(sum(entry[0] for entry in self._stacks.values()))

    @property
    def total_seconds(self) -> float:
        with self._lock:
            return sum(entry[1] for entry in self._stacks.values())

    def stacks(self) -> List[Tuple[Tuple[FrameKey, ...], int, float]]:
        """Every unique stack with its ``(count, seconds)``, heaviest
        first."""
        with self._lock:
            items = [
                (key, int(entry[0]), entry[1])
                for key, entry in self._stacks.items()
            ]
        items.sort(key=lambda item: (-item[2], -item[1], item[0]))
        return items

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Wall seconds and sample counts per interpreter phase —
        ``{phase: {"seconds": s, "samples": n}}``, catalog order,
        phases with no samples omitted."""
        totals: Dict[str, List[float]] = {}
        for key, count, seconds in self.stacks():
            phase = phase_of_stack(key)
            entry = totals.setdefault(phase, [0.0, 0.0])
            entry[0] += seconds
            entry[1] += count
        return {
            phase: {"seconds": totals[phase][0], "samples": totals[phase][1]}
            for phase in PHASES
            if phase in totals
        }

    def top_functions(self, limit: int = 10) -> List[Dict[str, object]]:
        """Self-time leaders: seconds attributed to each *leaf* frame
        (where the sampler actually caught execution)."""
        self_time: Dict[FrameKey, List[float]] = {}
        for key, count, seconds in self.stacks():
            entry = self_time.setdefault(key[-1], [0.0, 0.0])
            entry[0] += seconds
            entry[1] += count
        ranked = sorted(
            self_time.items(), key=lambda item: -item[1][0]
        )[:limit]
        return [
            {
                "function": frame_label(frame),
                "phase": phase_of_frame(frame) or "other",
                "self_seconds": round(entry[0], 6),
                "samples": int(entry[1]),
            }
            for frame, entry in ranked
        ]

    # -- export -------------------------------------------------------------

    def collapsed(self) -> str:
        """Collapsed-stack text (``root;child;leaf count``), the input
        of ``flamegraph.pl`` and folded-stack viewers. Counts are
        sample counts; lines sort heaviest-first for stable diffs."""
        lines = [
            ";".join(frame_label(frame) for frame in key) + f" {count}"
            for key, count, _seconds in self.stacks()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, name: str = "repro profile") -> Dict[str, object]:
        """A speedscope JSON document (``"type": "sampled"``): one
        entry per unique stack, weighted by measured wall seconds
        (falling back to ``count / hz`` when a merged profile carried
        counts only)."""
        frames: List[Dict[str, object]] = []
        index_of: Dict[FrameKey, int] = {}
        samples: List[List[int]] = []
        weights: List[float] = []
        for key, count, seconds in self.stacks():
            indices = []
            for frame in key:
                index = index_of.get(frame)
                if index is None:
                    index = len(frames)
                    index_of[frame] = index
                    frames.append({
                        "name": frame_label(frame),
                        "file": frame[1],
                        "line": frame[2],
                    })
                indices.append(index)
            samples.append(indices)
            weight = seconds if seconds > 0 else count / max(self.hz, 1e-9)
            weights.append(round(weight, 9))
        total = round(sum(weights), 9)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "exporter": "repro.obs.profile",
            "name": name,
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [{
                "type": "sampled",
                "name": name,
                "unit": "seconds",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }],
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._stacks)

    def __repr__(self) -> str:
        return (
            f"Profile({len(self)} stack(s), {self.sample_count} sample(s), "
            f"{self.total_seconds:.3f}s)"
        )


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------


def capture_stack(frame, max_depth: int = MAX_STACK_DEPTH) -> Tuple[FrameKey, ...]:
    """One thread's stack, root-first, truncated at the *root* end so
    the leaf frames (where time is spent) always survive."""
    frames: List[FrameKey] = []
    while frame is not None and len(frames) < max_depth:
        code = frame.f_code
        frames.append((code.co_name, code.co_filename, code.co_firstlineno))
        frame = frame.f_back
    frames.reverse()
    return tuple(frames)


class SamplingProfiler:
    """All-thread wall-clock sampler (context manager).

    A daemon thread wakes ``hz`` times per second, snapshots every
    Python thread's stack (skipping its own), and folds them into
    ``self.profile`` weighted by the *measured* interval — so a sampler
    that falls behind under load still accounts wall time correctly.

    ``start()``/``stop()`` are idempotent; ``with SamplingProfiler():``
    brackets one capture. The profiled code needs no cooperation and
    pays no per-call cost.
    """

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        max_stack_depth: int = MAX_STACK_DEPTH,
    ) -> None:
        if hz <= 0:
            raise ValueError("hz must be > 0")
        self.hz = float(hz)
        self.max_stack_depth = max_stack_depth
        self.profile = Profile(hz=self.hz)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._skip_threads = {None}

    # -- lifecycle ----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Profile:
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=5.0)
        if self._started_at is not None:
            self.profile.duration_s += time.perf_counter() - self._started_at
            self._started_at = None
        return self.profile

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling -----------------------------------------------------------

    def sample_once(self, weight_s: Optional[float] = None) -> int:
        """Take one snapshot of every thread now (used by the loop, and
        directly by tests for determinism). Returns the number of
        stacks recorded."""
        weight = weight_s if weight_s is not None else 1.0 / self.hz
        recorded = 0
        for thread_id, frame in sys._current_frames().items():
            if thread_id in self._skip_threads:
                continue
            stack = capture_stack(frame, self.max_stack_depth)
            if stack:
                self.profile.add_stack(stack, seconds=weight, count=1)
                recorded += 1
        return recorded

    def _loop(self) -> None:
        self._skip_threads = {threading.get_ident()}
        interval = 1.0 / self.hz
        last = time.perf_counter()
        next_at = last + interval
        while not self._stop.wait(max(0.0, next_at - time.perf_counter())):
            now = time.perf_counter()
            self.sample_once(weight_s=now - last)
            last = now
            next_at += interval
            if next_at <= now:  # fell behind: resynchronize
                next_at = now + interval

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        return f"SamplingProfiler(hz={self.hz:g}, {state}, {self.profile!r})"


# ---------------------------------------------------------------------------
# Ambient install
# ---------------------------------------------------------------------------

_PROFILER: ContextVar[Optional[SamplingProfiler]] = ContextVar(
    "repro_obs_profiler", default=None
)


def ambient_profiler() -> Optional[SamplingProfiler]:
    """The profiler installed by the nearest :func:`profiling`, if any."""
    return _PROFILER.get()


@contextmanager
def profiling(
    profiler: Optional[SamplingProfiler] = None, hz: float = DEFAULT_HZ
):
    """Install (and run) a sampling profiler for the ``with`` block::

        with profiling(hz=97) as profiler:
            program.run(store)
        print(profiler.profile.collapsed())
    """
    profiler = profiler if profiler is not None else SamplingProfiler(hz=hz)
    token = _PROFILER.set(profiler)
    profiler.start()
    try:
        yield profiler
    finally:
        profiler.stop()
        _PROFILER.reset(token)
