"""The multi-process parallel executor: chunk planning, Skolem
shard-merge reconciliation, the workers=N == workers=1 determinism
contract, pickling robustness, and pool lifecycle."""

import os
import pickle
import random
import warnings

import pytest

from repro import parallel
from repro.core import DataStore, Ref, Tree, tree
from repro.errors import NonDeterminismError
from repro.obs import tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.provenance import ProvenanceStore
from repro.parallel import (
    DEFAULT_SHARDS,
    MIN_CHUNK_SIZE,
    ParallelExecutor,
    ShardSpec,
    _execute_shard,
    _merge,
    plan_chunks,
    resolve_chunk_size,
    run_sharded,
)
from repro.workloads import brochure_trees
from repro.yatl import Interpreter
from repro.yatl.parser import parse_program
from repro.yatl.skolem import SkolemTable


def materialized_outputs(result):
    return sorted(
        str(result.store.materialize(name)) for name in result.store.names()
    )


def byte_view(result):
    return (
        list(result.store.items()),
        list(result.warnings),
        list(result.unconverted),
    )


# ---------------------------------------------------------------------------
# Chunk planning
# ---------------------------------------------------------------------------


class TestChunkPlanning:
    def test_heuristic_floors_at_min_chunk_size(self):
        assert resolve_chunk_size(10) == MIN_CHUNK_SIZE
        assert resolve_chunk_size(MIN_CHUNK_SIZE * DEFAULT_SHARDS) == (
            MIN_CHUNK_SIZE
        )

    def test_heuristic_targets_default_shards_when_large(self):
        n = MIN_CHUNK_SIZE * DEFAULT_SHARDS * 3
        assert resolve_chunk_size(n) == n // DEFAULT_SHARDS

    def test_explicit_chunk_size_wins(self):
        assert resolve_chunk_size(10_000, 7) == 7

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            resolve_chunk_size(10, 0)

    def test_plan_chunks_is_contiguous_and_covering(self):
        chunks = plan_chunks(10, 3)
        assert chunks == [(0, 3), (3, 6), (6, 9), (9, 10)]
        assert plan_chunks(0, 3) == []

    def test_plan_is_independent_of_workers(self):
        # The whole determinism contract: nothing about the plan can
        # ever depend on the worker count — only on (n, chunk_size).
        assert plan_chunks(100, resolve_chunk_size(100, 25)) == [
            (0, 25), (25, 50), (50, 75), (75, 100)
        ]


# ---------------------------------------------------------------------------
# Skolem shard-merge reconciliation
# ---------------------------------------------------------------------------


class TestSkolemReconciliation:
    def test_identical_terms_reconcile_to_one_id(self):
        shard_a, shard_b = SkolemTable(), SkolemTable()
        shard_a.id_for("Psupplier", ("VW dealer 1",))
        shard_a.id_for("Pcar", (1,))
        shard_b.id_for("Psupplier", ("VW dealer 1",))  # same canonical term
        shard_b.id_for("Pcar", (2,))

        master = SkolemTable()
        renames = []
        for table in (shard_a, shard_b):
            renames.append({
                local: master.id_for(functor, tuple(args))
                for local, functor, args in table.allocation_log()
            })
        supplier_a = renames[0][shard_a.lookup("Psupplier", ("VW dealer 1",))]
        supplier_b = renames[1][shard_b.lookup("Psupplier", ("VW dealer 1",))]
        assert supplier_a == supplier_b

    def test_distinct_terms_never_collide(self):
        shard_a, shard_b = SkolemTable(), SkolemTable()
        for index in range(50):
            shard_a.id_for("Pdoc", (index,))
            shard_b.id_for("Pdoc", (index + 50,))
        master = SkolemTable()
        canonical = [
            master.id_for(functor, tuple(args))
            for table in (shard_a, shard_b)
            for _, functor, args in table.allocation_log()
        ]
        assert len(set(canonical)) == 100

    def test_shared_suppliers_merge_across_shards(self, brochures_program):
        """Brochures in different shards naming the same supplier must
        yield one supplier object, exactly as a single pass would."""
        inputs = brochure_trees(8, distinct_suppliers=2)
        plain = brochures_program.run(inputs)
        sharded = brochures_program.run(inputs, workers=1, chunk_size=1)
        assert plain.ids_of("Psup")
        assert len(sharded.ids_of("Psup")) == len(plain.ids_of("Psup"))
        assert materialized_outputs(sharded) == materialized_outputs(plain)
        names = sharded.store.names()
        assert len(set(names)) == len(names)

    def test_nondeterminism_alert_survives_merge(self):
        """Two shards building distinct values for one canonical Skolem
        term is the paper's run-time nondeterminism alert; sharding
        must not swallow it."""
        program = parse_program(
            """
            program Conflict
            rule R:
              Pres(N) :
                class -> res < -> name -> N, -> val -> V >
            <=
              Pdoc :
                doc < -> name -> N, -> val -> V >
            end
            """
        )
        docs = [
            tree("doc", tree("name", "a"), tree("val", 1)),
            tree("doc", tree("name", "a"), tree("val", 2)),
        ]
        with pytest.raises(NonDeterminismError):
            program.run(docs)  # the single-pass alert...
        with pytest.raises(NonDeterminismError):
            # ...and the cross-shard one (chunk_size=1: the conflicting
            # documents are guaranteed to land in different shards).
            program.run(docs, workers=1, chunk_size=1)

    def test_merge_is_shard_order_insensitive(self, brochures_program):
        """Payloads arrive in completion order from the pool; the merge
        must sort by shard index, so any arrival order produces the
        identical result."""
        inputs = brochure_trees(6, distinct_suppliers=2)
        store = DataStore()
        for index, node in enumerate(inputs, start=1):
            store.add(f"in{index}", node)
        interpreter = Interpreter(brochures_program.rules)
        spec = interpreter.shard_spec()
        items = list(store)
        payloads = [
            _execute_shard(spec, index, items[index * 2:index * 2 + 2])
            for index in range(3)
        ]

        def merged(ordering):
            return _merge(
                list(ordering), store, MetricsRegistry(), None, None,
                strict_refs=False, workers=1, mode="serial",
            )

        reference = byte_view(merged(payloads))
        rng = random.Random(7)
        for _ in range(5):
            shuffled = payloads[:]
            rng.shuffle(shuffled)
            assert byte_view(merged(shuffled)) == reference


# ---------------------------------------------------------------------------
# workers=N == workers=1 (the determinism contract, end to end)
# ---------------------------------------------------------------------------


class TestWorkerEquivalence:
    def test_pool_output_is_byte_identical_to_serial(self, brochures_program):
        inputs = brochure_trees(8, distinct_suppliers=3)
        serial = brochures_program.run(inputs, workers=1, chunk_size=2)
        pooled = brochures_program.run(inputs, workers=2, chunk_size=2)
        assert serial.parallel["mode"] == "serial"
        assert pooled.parallel["mode"] == "pool"
        assert serial.parallel["shards"] == pooled.parallel["shards"] == 4
        assert byte_view(pooled) == byte_view(serial)

    def test_sharded_is_equivalent_to_plain_run(self, brochures_program):
        inputs = brochure_trees(8, distinct_suppliers=3)
        plain = brochures_program.run(inputs)
        sharded = brochures_program.run(inputs, workers=1, chunk_size=3)
        assert materialized_outputs(sharded) == materialized_outputs(plain)
        assert len(sharded.unconverted) == len(plain.unconverted)

    def test_evaluate_alias_reaches_the_executor(self, brochures_program):
        inputs = brochure_trees(4, distinct_suppliers=2)
        result = brochures_program.evaluate(
            inputs, workers=1, chunk_size=2
        )
        assert result.parallel == {"mode": "serial", "shards": 2, "workers": 1}

    def test_parallel_metrics_recorded(self, brochures_program):
        inputs = brochure_trees(6, distinct_suppliers=2)
        registry = MetricsRegistry()
        interpreter = Interpreter(
            brochures_program.rules, workers=1, chunk_size=2, metrics=registry
        )
        interpreter.run(inputs)
        assert registry.value("parallel.runs") == 1
        assert registry.value("parallel.shards") == 3
        assert registry.value("parallel.workers") == 1
        # Per-shard counters are labelled by shard index; total() sums.
        assert registry.counter("parallel.shard.inputs").total() == 6

    def test_provenance_merges_with_canonical_ids(self, brochures_program):
        inputs = brochure_trees(6, distinct_suppliers=2)
        prov = ProvenanceStore()
        with tracing(prov):
            result = brochures_program.run(inputs, workers=1, chunk_size=2)
        assert prov.firings > 0
        output_names = set(result.store.names())
        recorded = {record.output for record in prov.records()}
        assert recorded and recorded <= output_names
        # Lineage crosses shard boundaries: a shared supplier's origins
        # span inputs that landed in different shards.
        supplier = result.ids_of("Psup")[0]
        assert prov.origins_of(supplier)

    def test_warnings_are_identical_across_modes(self):
        program = parse_program(
            """
            program Dangle
            rule R:
              Pout(X) :
                class -> holder < -> item -> X, -> peer -> &Pmissing(X) >
            <=
              Pin :
                doc < -> item -> X >
            end
            """
        )
        docs = [tree("doc", tree("item", n)) for n in range(4)]
        plain = program.run(docs)
        sharded = program.run(docs, workers=1, chunk_size=2)
        assert plain.warnings == sharded.warnings


# ---------------------------------------------------------------------------
# Small-forest fallback
# ---------------------------------------------------------------------------


class TestInProcessFallback:
    def test_small_forest_skips_sharding(self, brochures_program):
        inputs = brochure_trees(5, distinct_suppliers=2)
        plain = brochures_program.run(inputs)
        result = brochures_program.run(inputs, workers=4)  # default chunking
        assert result.parallel["mode"] == "inprocess"
        assert result.parallel["shards"] == 1
        assert list(result.store.items()) == list(plain.store.items())

    def test_fallback_counter_increments(self, brochures_program):
        registry = MetricsRegistry()
        interpreter = Interpreter(
            brochures_program.rules, workers=2, metrics=registry
        )
        interpreter.run(brochure_trees(3, distinct_suppliers=2))
        assert registry.value("parallel.fallback.inprocess") == 1
        assert registry.value("parallel.runs") == 0


# ---------------------------------------------------------------------------
# Pickling robustness
# ---------------------------------------------------------------------------


class TestPickling:
    def test_tree_and_ref_roundtrip(self):
        node = tree(
            "brochure", tree("title", "Golf"), Ref("s1"),
            Tree(5, (Tree("x"),)),
        )
        clone = pickle.loads(pickle.dumps(node))
        assert clone == node
        assert isinstance(clone.children[1], Ref)

    def test_shard_spec_drops_and_rebuilds_hierarchy(self, brochures_program):
        spec = Interpreter(brochures_program.rules).shard_spec()
        assert spec.hierarchy is not None
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.hierarchy is None  # derived state is not shipped
        interpreter = clone.build_interpreter()
        assert interpreter.hierarchy is not None
        result = interpreter.run_local(brochure_trees(2, distinct_suppliers=2))
        assert result.store.names()

    def test_errors_roundtrip(self):
        error = NonDeterminismError("conflicting values for s1")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, NonDeterminismError)
        assert str(clone) == str(error)

    def test_unpicklable_program_degrades_to_serial(self, brochures_program):
        interpreter = Interpreter(brochures_program.rules)
        spec = interpreter.shard_spec()
        spec.model = lambda: None  # lambdas cannot be pickled
        store = DataStore()
        for index, node in enumerate(
            brochure_trees(6, distinct_suppliers=2), start=1
        ):
            store.add(f"in{index}", node)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            degraded = run_sharded(spec, store, workers=2, chunk_size=2)
        assert degraded.parallel["mode"] == "serial"

        clean = run_sharded(
            interpreter.shard_spec(), store, workers=1, chunk_size=2
        )
        # Degradation must not leak into the result's own warnings —
        # byte-identity with workers=1 includes the warning list.
        assert byte_view(degraded) == byte_view(clean)

    def test_degradation_warns_exactly_once_per_run(self, brochures_program):
        """A 3-shard degraded run must emit ONE RuntimeWarning, not one
        per shard (run_sharded is one Program.run call)."""
        spec = Interpreter(brochures_program.rules).shard_spec()
        spec.model = lambda: None
        store = DataStore()
        for index, node in enumerate(
            brochure_trees(6, distinct_suppliers=2), start=1
        ):
            store.add(f"in{index}", node)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_sharded(spec, store, workers=2, chunk_size=2)
        degradations = [
            warning for warning in caught
            if issubclass(warning.category, RuntimeWarning)
            and "degraded" in str(warning.message)
        ]
        assert len(degradations) == 1

    def test_unpicklable_shard_items_degrade_with_one_warning(
        self, brochures_program
    ):
        """Spec pickling can succeed while a shard's *items* cannot
        cross the process boundary: the run degrades to serial shards
        (still byte-identical output) with a single warning."""
        spec = Interpreter(brochures_program.rules).shard_spec()
        assert pickle.dumps(spec)  # the failure is per-item, not spec
        store = DataStore()
        for index, node in enumerate(
            brochure_trees(6, distinct_suppliers=2), start=1
        ):
            store.add(f"in{index}", node)
        class Sneaky(str):
            """A valid atom label whose local class pickle cannot
            resolve — the shard item poisons the pool submission."""

        poison = tree("brochure", tree("payload", Tree(Sneaky("boom"))))
        store.add("poison", poison)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            degraded = run_sharded(spec, store, workers=2, chunk_size=2)
        assert degraded.parallel["mode"] == "serial"
        degradations = [
            warning for warning in caught
            if issubclass(warning.category, RuntimeWarning)
            and "degraded" in str(warning.message)
        ]
        assert len(degradations) == 1
        assert "not picklable" in str(degradations[0].message)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            clean = run_sharded(
                Interpreter(brochures_program.rules).shard_spec(),
                store, workers=1, chunk_size=2,
            )
        assert byte_view(degraded) == byte_view(clean)


# ---------------------------------------------------------------------------
# Pool lifecycle
# ---------------------------------------------------------------------------


def _worker_spec_cache_size():
    """Runs in a pool worker: that worker's pid and spec-cache size."""
    return os.getpid(), len(parallel._SPEC_CACHE)


class TestParallelExecutor:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_shared_executor_is_reused_across_runs(self, brochures_program):
        inputs = brochure_trees(4, distinct_suppliers=2)
        with ParallelExecutor(2) as executor:
            executor.warm()
            first = brochures_program.run(
                inputs, chunk_size=2, executor=executor
            )
            second = brochures_program.run(
                inputs, chunk_size=2, executor=executor
            )
            # The executor's worker count governs, even without workers=.
            assert first.parallel == {"mode": "pool", "shards": 2, "workers": 2}
            assert byte_view(first) == byte_view(second)
            assert executor.stats()["tasks_submitted"] == 4

    def test_worker_spec_cache_holds_one_spec_per_program(
        self, brochures_program
    ):
        # A long-lived pool (repro serve --workers N) runs one program
        # many times: each worker must keep one spec for it, not one
        # per run.
        inputs = brochure_trees(8, distinct_suppliers=2)
        with ParallelExecutor(2) as executor:
            executor.warm()
            for _ in range(5):
                brochures_program.run(inputs, chunk_size=2, executor=executor)
            sizes = dict(
                executor.submit(_worker_spec_cache_size).result()
                for _ in range(8)
            )
        assert sizes and set(sizes.values()) == {1}

    def test_closed_executor_rejects_submissions(self):
        executor = ParallelExecutor(2)
        executor.close()
        with pytest.raises(RuntimeError):
            executor.submit(print)

    def test_interpreter_validates_worker_args(self, brochures_program):
        with pytest.raises(ValueError):
            Interpreter(brochures_program.rules, workers=0)
        with pytest.raises(ValueError):
            Interpreter(brochures_program.rules, chunk_size=0)


# ---------------------------------------------------------------------------
# Per-shard profiling
# ---------------------------------------------------------------------------


class TestShardProfiling:
    def _shard_items(self):
        trees = brochure_trees(4, distinct_suppliers=2)
        return [(f"in{i}", node) for i, node in enumerate(trees)]

    def test_shard_ships_profile_when_no_ambient_sampler(
        self, brochures_program
    ):
        spec = ShardSpec(brochures_program.rules)
        payload = _execute_shard(
            spec, 0, self._shard_items(), profile_hz=500.0
        )
        profile = payload["profile"]
        assert profile is not None
        assert profile["hz"] == 500.0
        assert profile["duration_s"] > 0

    def test_serial_shard_defers_to_the_parent_sampler(
        self, brochures_program
    ):
        # In-process shards are visible to the parent's own sampler;
        # running a second one would double-count every stack.
        from repro.obs.profile import profiling

        spec = ShardSpec(brochures_program.rules)
        with profiling(hz=500.0):
            payload = _execute_shard(
                spec, 0, self._shard_items(), profile_hz=500.0
            )
        assert payload["profile"] is None

    def test_forked_worker_samples_despite_inherited_ambient(
        self, brochures_program
    ):
        # ContextVars survive fork, so a pool worker sees the parent's
        # ambient profiler object — but not its sampler thread. The
        # guard must be PID-aware. Simulate the fork by faking the
        # recorded pid.
        from repro.obs.profile import profiling

        spec = ShardSpec(brochures_program.rules)
        with profiling(hz=500.0) as profiler:
            profiler._pid = -1  # "started in another process"
            payload = _execute_shard(
                spec, 0, self._shard_items(), profile_hz=500.0
            )
        assert payload["profile"] is not None

    def test_pool_run_merges_worker_profiles(self, brochures_program):
        from repro.obs.profile import profiling

        inputs = brochure_trees(8, distinct_suppliers=3)
        with profiling(hz=500.0) as profiler:
            result = brochures_program.run(inputs, workers=2, chunk_size=2)
        assert result.parallel["mode"] == "pool"
        # Worker captures fold into the ambient profile without
        # disturbing the run itself; duration covers the whole run.
        assert profiler.profile.duration_s > 0

    def test_profile_hz_zero_disables_shard_sampling(
        self, brochures_program
    ):
        spec = ShardSpec(brochures_program.rules)
        payload = _execute_shard(spec, 0, self._shard_items())
        assert payload["profile"] is None
