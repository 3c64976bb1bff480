"""The columnar batch engine: byte-identical outputs against the tree
path across every execution mode (PR 10 equivalence suite)."""

import pytest

from repro.core.arena import GLOBAL_INTERN, Arena, ArenaStore
from repro.core.trees import DataStore, Tree, atom, tree
from repro.library.programs import (
    brochures_rule3_program,
    matrix_transpose_program,
    o2web_program,
    sgml_brochures_to_odmg,
    supplier_list_program,
)
from repro.workloads import (
    brochure_trees,
    car_object_store,
    dealer_document_program,
    dealer_document_store,
    document_kind_names,
    sales_matrix,
)
from repro.wrappers.odmg import OdmgImportWrapper
from repro.yatl.arena_exec import compile_fast_rule
from repro.yatl.parser import parse_program


def dump(result):
    return {
        "outputs": [(name, repr(node)) for name, node in result.store],
        "unconverted": [repr(node) for node in result.unconverted],
        "warnings": list(result.warnings),
        "skolem_ids": list(result.skolems.ids()),
    }


def assert_equivalent(program, store, **options):
    """Outputs must be byte-identical across: tree path, arena batch
    path, and the --no-arena ablation (arena input, tree execution)."""
    baseline = dump(program.run(store, use_arena=False, **options))
    arena = dump(program.run(ArenaStore.from_data_store(store), **options))
    ablation = dump(
        program.run(
            ArenaStore.from_data_store(store), use_arena=False, **options
        )
    )
    assert arena == baseline
    assert ablation == baseline
    return baseline


def named(trees):
    store = DataStore()
    for index, node in enumerate(trees):
        store.add(f"d{index + 1}", node)
    return store


class TestFastRuleEligibility:
    def test_dealer_conversion_rules_compile(self):
        program = dealer_document_program(document_kind_names(3))
        compiled = {
            rule.name: compile_fast_rule(rule, GLOBAL_INTERN)
            for rule in program.rules
        }
        # The per-kind conversion rules are rigid single-pattern rules.
        assert compiled["Conv_pricelist_0"] is not None
        assert compiled["Conv_invoice_0"] is not None

    def test_rules_with_calls_fall_back(self):
        program = sgml_brochures_to_odmg()
        # Rule1 computes city(Add)/zip(Add): calls are slow-path only.
        assert compile_fast_rule(program.rule("Rule1"), GLOBAL_INTERN) is None

    def test_multi_root_joins_fall_back(self):
        program = brochures_rule3_program()
        assert compile_fast_rule(program.rule("Rule3"), GLOBAL_INTERN) is None

    def test_index_edges_fall_back(self):
        program = matrix_transpose_program()
        assert compile_fast_rule(program.rule("Rule5"), GLOBAL_INTERN) is None


class TestEquivalence:
    def test_dealer_workload(self):
        kinds = document_kind_names(6)
        program = dealer_document_program(kinds)
        store = dealer_document_store(12, 50, kinds)
        result = assert_equivalent(program, store)
        assert result["outputs"]  # non-vacuous

    def test_brochures_with_shared_skolems(self):
        program = sgml_brochures_to_odmg()
        store = named(brochure_trees(10, distinct_suppliers=3))
        assert_equivalent(program, store)

    def test_cyclic_brochures(self):
        program = sgml_brochures_to_odmg(cyclic=True)
        store = named(brochure_trees(6, distinct_suppliers=2))
        assert_equivalent(program, store)

    def test_predicate_filtering_leaves_unconverted(self):
        program = parse_program(
            "program P\n"
            "rule R:\n  Out(X) : o -> X\n<=\n"
            "  P : a -> v -> X,\n  X > 10\n"
            "end"
        )
        store = named(
            [tree("a", tree("v", atom(5))), tree("a", tree("v", atom(50)))]
        )
        result = assert_equivalent(program, store)
        assert len(result["unconverted"]) == 1  # the X=5 tree fails X > 10

    def test_heterogeneous_join(self):
        from repro.workloads import dealer_database
        from repro.wrappers.relational import RelationalImportWrapper

        program = brochures_rule3_program()
        store = named(brochure_trees(5, distinct_suppliers=3))
        for name, node in RelationalImportWrapper().to_store(
            dealer_database(3, 5)
        ):
            store.add(name, node)
        assert_equivalent(program, store)

    def test_matrix_transpose_index_edges(self):
        program = matrix_transpose_program()
        assert_equivalent(program, named([sales_matrix(4, 3)]))

    def test_ordered_supplier_list(self):
        program = supplier_list_program()
        store = named(brochure_trees(6, distinct_suppliers=4))
        assert_equivalent(program, store)

    def test_o2web_demand_recursion(self):
        program = o2web_program()
        store = OdmgImportWrapper().to_store(car_object_store(4, 3))
        assert_equivalent(program, store, validate=False)

    def test_fallback_rules(self):
        program = parse_program(
            "program F\n"
            "rule R:\n  Out(X) : o -> X\n<=\n  P : a -> X\n\n"
            "rule Fb: () <= P : stray -> X\n"
            "end"
        )
        store = named(
            [tree("a", atom(1)), tree("stray", atom(2)), tree("other", atom(3))]
        )
        result = assert_equivalent(program, store)
        # 'stray' is claimed by the fallback; 'other' stays unconverted.
        assert len(result["unconverted"]) == 1

    def test_numeric_label_conflation(self):
        # 1 == 1.0 == True: a fixed numeric pattern label must admit
        # all three spellings on the arena path, like Python equality
        # does on the tree path.
        program = parse_program(
            "program N\nrule R:\n  Out(X) : hit -> X\n<=\n  P : 1 -> X\nend"
        )
        store = named(
            [
                Tree(1, (Tree("a"),)),
                Tree(1.0, (Tree("b"),)),
                Tree(True, (Tree("c"),)),
                Tree(2, (Tree("d"),)),
            ]
        )
        result = assert_equivalent(program, store)
        assert len(result["outputs"]) == 3
        assert len(result["unconverted"]) == 1

    def test_value_equal_twin_roots(self):
        # Binding dedup collapses value-equal roots (1 == 1.0 == True,
        # and the two `z` roots) into the first one's binding: the twins
        # must count as converted, and the general rule must stay
        # shadowed on them (building Out(1) twice with different heads
        # would raise NonDeterminismError). General runs on the columns;
        # Specific's numeric-typed slot keeps it on the tree path.
        program = parse_program(
            "program Twins\n"
            "rule Specific:\n  Out(Y) : int -> Y\n<=\n  P : c -> k -> Y:int\n"
            "rule General:\n  Out(Y) : val -> Y\n<=\n  P : c -> k -> Y\n"
            "rule Fb: () <= P : legacy -> X\n"
            "end"
        )
        assert compile_fast_rule(program.rule("General"), GLOBAL_INTERN)
        assert compile_fast_rule(program.rule("Specific"), GLOBAL_INTERN) is None

        def twin(value):
            return tree("c", tree("k", value))

        store = named(
            [
                twin(atom(1)),
                twin(atom(1.0)),
                twin(atom(True)),
                twin("z"),
                twin("z"),
                twin(atom(2)),
                tree("legacy", atom(3)),
                tree("stray", atom(4)),
            ]
        )
        result = assert_equivalent(program, store)
        assert result["outputs"] == [
            ("o1", repr(tree("int", atom(1)))),
            ("o2", repr(tree("int", atom(2)))),
            ("o3", repr(tree("val", "z"))),
        ]
        assert result["unconverted"] == [repr(tree("stray", atom(4)))]

    @pytest.mark.parametrize(
        "domain, values",
        [("int", (1, 1.0)), ("int", (True, 1)), ("float", (1.0, True))],
    )
    def test_typed_slot_rejects_a_twin(self, domain, values):
        # A numeric-typed slot tells `==` values apart (`Y:int` takes 1,
        # not 1.0 or True). The root it rejects still equals a converted
        # root, so it counts as converted, and runtime typing passes.
        program = parse_program(
            "program Typed\n"
            f"rule Specific:\n  Out(Y) : {domain} -> Y\n<=\n"
            f"  P : c -> k -> Y:{domain}\n"
            "end"
        )
        store = named([tree("c", tree("k", atom(value))) for value in values])
        for runtime_typing in (False, True):
            result = assert_equivalent(
                program, store, runtime_typing=runtime_typing
            )
            assert len(result["outputs"]) == 1
            assert result["unconverted"] == []

    def test_sequence_of_trees_input(self):
        program = dealer_document_program(document_kind_names(2))
        trees = dealer_document_store(4, 10, document_kind_names(2)).trees()
        baseline = dump(program.run(trees, use_arena=False))
        arena = dump(program.run(ArenaStore.from_data_store(named(trees))))
        # Sequence inputs are named d1..dN — same as named().
        assert arena == baseline


class TestSharding:
    def test_sharded_arena_equals_sharded_trees(self):
        kinds = document_kind_names(4)
        program = dealer_document_program(kinds)
        store = dealer_document_store(8, 40, kinds)
        tree_run = dump(
            program.run(store, use_arena=False, workers=1, chunk_size=12)
        )
        arena_run = dump(
            program.run(
                ArenaStore.from_data_store(store), workers=1, chunk_size=12
            )
        )
        assert arena_run == tree_run

    def test_sharded_arena_decodes_only_unconverted_roots(self):
        # The merge names the unconverted roots; it must not decode the
        # rest of the parent's (zero-copy, nothing cached) arena.
        kinds = document_kind_names(4)
        program = dealer_document_program(kinds)
        trees = dealer_document_store(8, 40, kinds).trees()
        stray = tree("unmatched", atom(1))
        store = ArenaStore(Arena.from_trees(trees + [stray]))
        result = program.run(store, workers=1, chunk_size=12)
        assert result.unconverted == [stray]
        assert store.materialized_indices() == [len(trees)]

    def test_shard_spec_carries_use_arena(self):
        from repro.yatl.interpreter import Interpreter

        program = dealer_document_program(document_kind_names(2))
        spec = Interpreter(program.rules, use_arena=False).shard_spec()
        assert spec.use_arena is False
        assert spec.build_interpreter().use_arena is False


class TestMetricsParity:
    def test_core_counters_match_tree_path(self):
        from repro.obs import MetricsRegistry, collecting

        kinds = document_kind_names(4)
        program = dealer_document_program(kinds)
        store = dealer_document_store(8, 40, kinds)

        def run_with_metrics(data, **options):
            registry = MetricsRegistry()
            with collecting(registry):
                program.run(data, **options)
            return registry

        tree_metrics = run_with_metrics(store, use_arena=False)
        arena_metrics = run_with_metrics(ArenaStore.from_data_store(store))
        for name in (
            "yatl.inputs.total",
            "yatl.inputs.converted",
            "yatl.outputs.trees",
            "yatl.rule.applications",
            "yatl.rule.bindings_matched",
            "yatl.dispatch.indexed_calls",
            "yatl.dispatch.unindexed_calls",
            "yatl.dispatch.subjects_considered",
            "yatl.dispatch.subjects_admitted",
            "yatl.dispatch.candidate_reduction_ratio",
        ):
            assert arena_metrics.value(name) == tree_metrics.value(name), name

    @pytest.mark.parametrize("use_dispatch_index", [True, False])
    def test_dispatch_counters_match_tree_path(self, use_dispatch_index):
        # Every yatl.dispatch.* counter, on compiled rules (dealer) and
        # on tree-path, wildcard and demand-loop rules (O2Web); without
        # the index neither representation filters or counts anything.
        from repro.obs import MetricsRegistry, collecting

        kinds = document_kind_names(4)
        workloads = [
            (dealer_document_program(kinds),
             dealer_document_store(8, 40, kinds)),
            (o2web_program(),
             OdmgImportWrapper().to_store(car_object_store(4, 3))),
        ]

        def dispatch_counters(program, data, **options):
            registry = MetricsRegistry()
            with collecting(registry):
                program.run(data, validate=False,
                            use_dispatch_index=use_dispatch_index, **options)
            return {
                name: registry.value(name)
                for name in registry.names()
                if name.startswith("yatl.dispatch.")
            }

        for program, store in workloads:
            tree_counters = dispatch_counters(program, store, use_arena=False)
            arena_counters = dispatch_counters(
                program, ArenaStore.from_data_store(store)
            )
            assert arena_counters == tree_counters, program.name
            indexed = tree_counters["yatl.dispatch.indexed_calls"]
            assert (indexed > 0) is use_dispatch_index
