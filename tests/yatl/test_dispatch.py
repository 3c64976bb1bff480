"""Rule-dispatch indexing: signature extraction, root selection over
tree and arena forests, indexed/unindexed equivalence, and the
fallback/demand accounting fixes."""

import hashlib

import pytest

from repro.core import DataStore, Ref, atom, tree
from repro.core.arena import ArenaStore
from repro.core.labels import Symbol
from repro.core.trees import Tree, sym
from repro.errors import DanglingReferenceError, UnconvertedDataError
from repro.library.programs import (
    brochures_rule3_program,
    matrix_transpose_program,
    o2web_program,
    sgml_brochures_to_odmg,
    supplier_list_program,
)
from repro.workloads import (
    brochure_elements,
    brochure_trees,
    car_object_store,
    dealer_database,
    sales_matrix,
)
from repro.obs import MetricsRegistry, collecting
from repro.wrappers.odmg import OdmgImportWrapper
from repro.wrappers.relational import RelationalImportWrapper
from repro.wrappers.sgml import SgmlImportWrapper
from repro.yatl import MatchContext, match_body, matching
from repro.yatl.dispatch import (
    WILDCARD,
    DispatchStats,
    RootView,
    RuleDispatchIndex,
    rule_root_signature,
)
from repro.yatl.parser import parse_program


# ---------------------------------------------------------------------------
# Signature extraction
# ---------------------------------------------------------------------------


class TestRootSignatures:
    def test_constant_label(self, brochures_program, brochure_b1):
        sig = rule_root_signature(brochures_program.rule("Rule2"))
        assert sig is not WILDCARD
        assert sig.labels == frozenset({Symbol("brochure")})
        assert not sig.unbounded and sig.min_children == 5
        assert sig.admits(brochure_b1)
        assert not sig.admits(tree("brochure", atom(1)))  # too few children
        assert not sig.admits(tree("pricelist", atom(1)))
        assert sig.admits(Ref("b1"))  # refs are conservatively admitted

    def test_enum_domain_label(self):
        web = o2web_program()
        sig = rule_root_signature(web.rule("Web4"))
        assert sig is not WILDCARD
        assert sig.labels is not None and len(sig.labels) == 2
        assert sig.unbounded and sig.min_children == 0
        assert sig.admits(tree("set", atom(1)))
        assert sig.admits(tree("bag"))
        assert not sig.admits(tree("list", atom(1)))

    def test_restricted_domain_label(self):
        program = parse_program(
            """
            program P
            rule R:
              Out(X) : out -> X
            <=
              P : C:symbol -> X
            end
            """
        )
        sig = rule_root_signature(program.rule("R"))
        assert sig is not WILDCARD
        assert sig.labels is None and sig.domain is not None
        assert sig.admits(tree("anything", atom(1)))
        assert not sig.admits(Tree(5, (Tree(1),)))  # int label is no symbol

    def test_star_edge_is_unbounded(self):
        program = parse_program(
            """
            program P
            rule R:
              Out(X) : out -> X
            <=
              P : items < -> first -> X, *-> item -> Y >
            end
            """
        )
        sig = rule_root_signature(program.rule("R"))
        assert sig.unbounded and sig.min_children == 1
        assert sig.admits(tree("items", tree("first", atom(1))))
        assert sig.admits(
            tree("items", tree("first", atom(1)), tree("item", atom(2)))
        )
        assert not sig.admits(tree("items"))  # below the plain-edge floor

    def test_pattern_var_root_is_wildcard(self):
        web = o2web_program()
        assert rule_root_signature(web.rule("Web2")) is WILDCARD

    def test_multi_root_rule_is_wildcard(self):
        rule3 = brochures_rule3_program().rule("Rule3")
        assert len(rule3.root_body_patterns()) == 3
        assert rule_root_signature(rule3) is WILDCARD

    def test_ref_leaf_root_admits_only_refs(self):
        web = o2web_program()
        sig = rule_root_signature(web.rule("Web6"))
        assert sig is not WILDCARD and sig.refs_only
        assert sig.admits(Ref("s1"))
        assert not sig.admits(tree("class", atom(1)))

    def test_tree_root_signature_property(self, brochure_b1):
        assert brochure_b1.root_signature == (Symbol("brochure"), 5)


def forests(trees):
    """The same roots as a tree forest and as an arena store."""
    store = DataStore()
    for number, node in enumerate(trees, start=1):
        store.add(f"t{number}", node)
    return [store.trees(), ArenaStore.from_data_store(store)]


class TestCandidateFiltering:
    """``RootView.select`` — the one root-admission filter — over both
    forest representations."""

    def test_order_preserved(self, brochures_program, brochure_b1, brochure_b2):
        index = RuleDispatchIndex(brochures_program.rules)
        rule2 = brochures_program.rule("Rule2")
        stray = tree("pricelist", atom(1))
        short = tree("brochure", atom(1))  # right label, too few children
        for forest in forests([stray, brochure_b1, short, brochure_b2]):
            view = RootView(forest, index, DispatchStats())
            assert view.select(rule2) == [1, 3]
            assert view.select(rule2, among=[0, 3]) == [3]
        # An enumerated label domain spans several buckets; their union
        # must come back in input order.
        web = o2web_program()
        web4 = web.rule("Web4")
        mixed = [tree("set", atom(1)), tree("list", atom(2)),
                 tree("bag", atom(3)), tree("set", atom(4))]
        for forest in forests(mixed):
            view = RootView(forest, RuleDispatchIndex(web.rules), DispatchStats())
            assert view.select(web4) == [0, 2, 3]

    def test_cache_shared_between_equivalent_rules(self, brochures_program):
        # One label-bucket map per run, built on the first indexed
        # selection and shared by every later rule.
        index = RuleDispatchIndex(brochures_program.rules)
        rule1 = brochures_program.rule("Rule1")
        rule2 = brochures_program.rule("Rule2")
        trees = brochure_trees(3, distinct_suppliers=2)
        for forest in forests(trees + [tree("pricelist", atom(1))]):
            stats = DispatchStats()
            view = RootView(forest, index, stats)
            assert view._labels is None
            first = view.select(rule1)
            labels = view._labels
            assert view.select(rule2) == first == [0, 1, 2]
            assert view._labels is labels
            assert (stats.indexed_calls, stats.subjects_considered,
                    stats.subjects_admitted) == (2, 8, 6)

    def test_unindexed_rule_gets_everything(self, brochures_program):
        rule3_program = brochures_rule3_program()
        index = RuleDispatchIndex(rule3_program.rules)
        rule3 = rule3_program.rule("Rule3")
        rule2 = brochures_program.rule("Rule2")
        for forest in forests([tree("whatever", atom(1)), tree("else")]):
            stats = DispatchStats()
            view = RootView(forest, index, stats)
            assert list(view.select(rule3)) == [0, 1]
            assert list(view.select(rule3, among=[1])) == [1]
            assert stats.unindexed_calls == 2
            assert stats.indexed_calls == stats.subjects_considered == 0
            # Without an index (use_dispatch_index=False) every rule is
            # offered every root, and nothing is counted.
            off = DispatchStats()
            assert list(RootView(forest, None, off).select(rule2)) == [0, 1]
            assert off.unindexed_calls == off.subjects_considered == 0

    def test_select_agrees_with_admits(self):
        # RootView.select is RootSignature.admits applied to a whole
        # forest at once, Ref subjects (demand rounds offer Web6's
        # &Pobj) included: a `&`-leaf signature selects exactly the Refs,
        # every other one offers them too, a wildcard admits everything.
        objects = OdmgImportWrapper().to_store(car_object_store(3, 2)).trees()
        brochures = brochure_trees(2, distinct_suppliers=2)
        subjects = []
        for root in objects + brochures:
            for node in root.subtrees():
                subjects.append(node)
                subjects.extend(node.references()[:1])
        assert any(isinstance(s, Ref) for s in subjects)
        among = list(range(0, len(subjects), 3))
        web = o2web_program()
        for program in (web, sgml_brochures_to_odmg()):
            index = RuleDispatchIndex(program.rules)
            for rule in program.rules:
                signature = index.signature(rule)
                expected = [
                    i for i, subject in enumerate(subjects)
                    if signature is WILDCARD or signature.admits(subject)
                ]
                view = RootView(subjects, index, DispatchStats())
                assert list(view.select(rule)) == expected, rule.name
                assert list(view.select(rule, among)) == [
                    i for i in expected if i in among
                ], rule.name
        view = RootView(subjects, RuleDispatchIndex(web.rules), DispatchStats())
        refs = [s for s in subjects if isinstance(s, Ref)]
        assert [subjects[i] for i in view.select(web.rule("Web6"))] == refs
        assert list(view.select(web.rule("Web2"))) == list(range(len(subjects)))

    def test_root_failure_memo_removed(self, brochures_program, brochure_b1):
        # Regression pin for the PR10 decision: the root-failure memo
        # never fired once the dispatch index prefiltered candidates by
        # label (the dispatch-index benchmark measured root_memo_hits
        # == 0 at a 1.0 dispatch hit ratio), so it was *removed* —
        # MatchContext must not grow the bookkeeping back, and repeated
        # matching of a rejected subject must still behave identically
        # without it.
        ctx = MatchContext()
        rule2 = brochures_program.rule("Rule2")
        stray = tree("pricelist", atom(1))
        first = match_body(rule2, [stray, brochure_b1], ctx)
        second = match_body(rule2, [stray, brochure_b1], ctx)
        assert len(first) == len(second) == len(match_body(rule2, [brochure_b1], ctx))
        assert not hasattr(ctx, "known_root_failure")
        assert not hasattr(ctx, "record_root_failure")
        assert not hasattr(ctx, "root_memo_hits")
        assert not hasattr(ctx, "coverage_memo_hits")

    def test_rule3_join_matches_each_input_once(self, monkeypatch):
        # Rule 3's root patterns are hash-joined: each is matched once
        # per input tree, not once per binding so far, so quadrupling
        # the brochures and cars must not come near 16x the matching.
        # A nested-loop join read 3,131 -> 36,575 match_child calls
        # (11.7x) here; the hash join reads 377 -> 1,349 (3.6x).
        real = matching.match_child
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(matching, "match_child", counting)

        def run(scale):
            store = RelationalImportWrapper().to_store(
                dealer_database(suppliers=4, cars=scale)
            )
            documents = brochure_elements(
                scale, distinct_suppliers=4, suppliers_per_brochure=2
            )
            wrapper = SgmlImportWrapper(coerce_numbers=False)
            for number, doc in enumerate(documents, start=1):
                store.add(f"b{number}", wrapper.element_to_tree(doc))
            calls[0] = 0
            result = brochures_rule3_program().run(store)
            assert len(result.ids_of("Pcar")) == scale
            return calls[0]

        small, large = run(12), run(48)
        assert large <= 5 * small, (small, large)


# ---------------------------------------------------------------------------
# Indexed and unindexed runs must produce identical results
# ---------------------------------------------------------------------------


def assert_index_equivalent(program, data, **kwargs):
    indexed = program.run(data, **kwargs)
    unindexed = program.run(data, use_dispatch_index=False, **kwargs)
    assert list(indexed.store.items()) == list(unindexed.store.items())
    assert indexed.unconverted == unindexed.unconverted
    return indexed


class TestIndexEquivalence:
    def test_brochures_with_stray(self, brochures_program):
        stray = tree("pricelist", atom(1))
        inputs = brochure_trees(12, distinct_suppliers=4) + [stray]
        result = assert_index_equivalent(brochures_program, inputs)
        assert result.ids_of("Pcar") and result.unconverted == [stray]

    def test_o2web_on_golf_store(self, web_program, golf_store):
        result = assert_index_equivalent(web_program, golf_store)
        assert result.ids_of("HtmlPage")

    def test_matrix_transpose(self):
        result = assert_index_equivalent(
            matrix_transpose_program(), sales_matrix(3, 4)
        )
        assert result.ids_of("New")

    def test_supplier_list(self):
        inputs = brochure_trees(8, distinct_suppliers=3)
        result = assert_index_equivalent(supplier_list_program(), inputs)
        assert result.ids_of("Sups")

    def test_composed_program(self, web_program):
        composed = sgml_brochures_to_odmg().composed_with(web_program)
        inputs = brochure_trees(5, distinct_suppliers=2)
        result = assert_index_equivalent(composed, inputs)
        assert result.ids_of("HtmlPage")

    def test_customized_combined_program(self, web_program, golf_store):
        from repro.core.models import car_schema_model

        specialized = web_program.instantiated_on(
            car_schema_model().pattern("Pcar")
        )
        combined = specialized.combined_with(web_program, name="CustomizedWeb")
        result = assert_index_equivalent(combined, golf_store)
        assert len(result.ids_of("HtmlPage")) == 2

    def test_rule3_heterogeneous_join(self):
        database = dealer_database(suppliers=4, cars=6)
        store = RelationalImportWrapper().to_store(database)
        documents = brochure_elements(
            6, distinct_suppliers=4, suppliers_per_brochure=1
        )
        wrapper = SgmlImportWrapper(coerce_numbers=False)
        for index, doc in enumerate(documents, start=1):
            store.add(f"b{index}", wrapper.element_to_tree(doc))
        result = assert_index_equivalent(brochures_rule3_program(), store)
        assert result.ids_of("Pcar")


# ---------------------------------------------------------------------------
# Fallback / unconverted accounting (the bug fixes)
# ---------------------------------------------------------------------------

LEGACY_TEXT = """
program Legacy
rule Convert:
  Out(X) : copy -> X
<=
  P : a -> X
rule Skip:
  ()
<=
  P : legacy -> X
end
"""


class TestFallbackAccounting:
    def test_fallback_matched_input_is_converted(self):
        program = parse_program(LEGACY_TEXT)
        result = program.run([tree("a", atom(1)), tree("legacy", atom(2))])
        assert result.ids_of("Out") == ["o1"]
        assert result.unconverted == []

    def test_stray_still_reported(self):
        program = parse_program(LEGACY_TEXT)
        stray = tree("unrelated", atom(3))
        result = program.run([tree("legacy", atom(2)), stray])
        assert result.unconverted == [stray]

    def test_runtime_typing_raises_past_fallbacks(self):
        # The check must fire for inputs *no* rule handled, even though
        # the program has fallback rules (they did not match the stray).
        program = parse_program(LEGACY_TEXT)
        with pytest.raises(UnconvertedDataError):
            program.run(
                [tree("a", atom(1)), tree("unrelated", atom(3))],
                runtime_typing=True,
            )

    def test_runtime_typing_satisfied_by_fallback(self):
        program = parse_program(LEGACY_TEXT)
        result = program.run(
            [tree("a", atom(1)), tree("legacy", atom(2))], runtime_typing=True
        )
        assert result.unconverted == []

    def test_equal_twin_inputs_both_accounted(self):
        # Binding dedup collapses structurally-equal inputs into one
        # binding; the twin must still count as converted.
        program = parse_program(LEGACY_TEXT)
        twin_a, twin_b = tree("a", atom(1)), tree("a", atom(1))
        assert twin_a is not twin_b and twin_a == twin_b
        result = program.run([twin_a, twin_b])
        assert result.unconverted == []


# ---------------------------------------------------------------------------
# Demand-loop shadowing across iterations and equal subjects
# ---------------------------------------------------------------------------

SHADOW_TEXT = """
program Shadow
rule Top:
  Holder(P) : holder -> F(P2)
<=
  P : box -> ^P2
rule Specific:
  F(P2) : special -> X
<=
  P2 : item < -> kind -> gold, -> v -> X >
rule General:
  F(P2) : general -> X
<=
  P2 : item < -> kind -> K, -> v -> X >
end
"""


def gold_box(value):
    return tree("box", tree("item", tree("kind", sym("gold")), tree("v", value)))


class TestDemandShadowing:
    def test_hierarchy_orders_the_rules(self):
        program = parse_program(SHADOW_TEXT)
        assert program.hierarchy().is_more_specific("Specific", "General")

    def test_specific_wins_for_equal_distinct_subjects(self):
        # Two distinct boxes holding structurally-equal items: one
        # value-keyed F output, built by the specific rule only.
        program = parse_program(SHADOW_TEXT)
        result = program.run([gold_box(1), gold_box(1)])
        assert result.unconverted == []
        [output] = result.trees_of("F")
        assert output.label == Symbol("special")

    def test_general_rule_stays_shadowed_when_specific_output_fails(self):
        # The specific rule matches but its construction fails (W is
        # never bound), leaving the identifier pending. The general rule
        # must *stay* shadowed on later demand iterations rather than
        # silently taking over — the unresolved output then surfaces as
        # a dangling reference.
        program = parse_program(
            """
            program ShadowBroken
            rule Top:
              Holder(P) : holder -> F(P2)
            <=
              P : box -> ^P2
            rule Specific:
              F(P2) : special -> W
            <=
              P2 : item < -> kind -> gold, -> v -> X >
            rule General:
              F(P2) : general -> X
            <=
              P2 : item < -> kind -> K, -> v -> X >
            end
            """
        )
        with pytest.raises(DanglingReferenceError):
            program.run([gold_box(1)])


# ---------------------------------------------------------------------------
# Demand rounds: one admission filter and one shadowing ledger
# ---------------------------------------------------------------------------

CROSS_TEXT = """
program Cross
rule Top:
  Out(P) : out < -> {first}(Y), -> {second}(Y) >
<=
  P : x -> ^Y
rule A:
  F(Y) : from_a
<=
  Y : y
rule B:
  G(Y) : from_b
<=
  Y : y
hierarchy A under B
end
"""


def o2web_objects():
    """O2Web's store for the tree/arena parity checks: 2 demand rounds."""
    return OdmgImportWrapper().to_store(car_object_store(4, 3))


class TestDemandRounds:
    def test_rounds_select_through_root_view(self):
        # Each rule is offered the roots once and, per demand round, the
        # subjects its functor is demanded on, all through RootView: no
        # single-subject admission probe is left to count.
        program = o2web_program()
        registry = MetricsRegistry()
        with collecting(registry):
            program.run(o2web_objects(), validate=False)
        assert registry.value("yatl.demand.rounds") == 2
        assert "yatl.dispatch.admit_checks" not in registry.names()
        assert "yatl.dispatch.admit_rejections" not in registry.names()
        demanded = [r for r in program.rules if r.head_functor == "HtmlElement"]
        selections = registry.value("yatl.dispatch.indexed_calls") + registry.value(
            "yatl.dispatch.unindexed_calls"
        )
        assert selections == len(program.rules) + 2 * len(demanded)

    def test_o2web_output_digest(self):
        # The exact output store, names included: demand rounds build
        # outputs in (pending identifier, rule) order, so Skolem
        # identifiers are numbered as the per-identifier loop did.
        result = o2web_program().run(o2web_objects(), validate=False)
        digest = hashlib.sha256()
        for name, node in result.store:
            digest.update(f"{name}\t{node}\n".encode())
        assert len(result.store) == 29
        assert digest.hexdigest() == (
            "4d60198b5f9396ba4361ed63df83eb11e0845f33092abf12cb8619818db81ac4"
        )

    def test_enforced_cross_functor_order_ignores_head_order(self):
        # `hierarchy A under B` across functors F and G, both demanded on
        # one subject in one round: the round applies rules in hierarchy
        # order, as the top level does per root, so A shadows B whichever
        # head child comes first (and G(Y) is left without a value).
        def outcome(first, second):
            program = parse_program(CROSS_TEXT.format(first=first, second=second))
            try:
                return list(program.run([tree("x", tree("y"))]).store.items())
            except DanglingReferenceError as exc:
                return str(exc)

        assert outcome("F", "G") == outcome("G", "F")
        assert "'g1'" in outcome("G", "F")
