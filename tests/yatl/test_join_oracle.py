"""match_body's hash join against its definition (Rule 3, Section 3.2):
every root body pattern matched, under every binding so far, against
every input tree. Random rules of 2-3 root patterns over random inputs
must give the same bindings in the same order, with the same values."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DataStore, Ref, atom, parse_pattern_tree, tree
from repro.core.trees import Tree
from repro.yatl.ast import BodyPattern, HeadPattern, Rule
from repro.yatl.bindings import Binding, dedup_bindings
from repro.yatl.matching import MatchContext, match_body, match_child


def nested_loop(rule, inputs, ctx):
    """The join's definition, for rules whose patterns are all roots."""
    envs = [Binding.EMPTY]
    for bp in rule.body:
        extended = []
        for env in envs:
            for candidate in inputs:
                named = env.bind(bp.name, candidate)
                matches = match_child(bp.tree, candidate, named, ctx)
                if not matches and isinstance(candidate, Ref):
                    # a pattern over the referenced tree
                    resolved = ctx.resolve(candidate)
                    if resolved is not None:
                        renamed = env.bind(bp.name, resolved)
                        matches = match_child(bp.tree, resolved, renamed, ctx)
                extended.extend(matches)
        envs = extended
    return dedup_bindings(envs)


def exact(bindings):
    """Names in binding order, with each value's type and either its
    identity (trees, references) or itself (labels): ``1`` and ``1.0``
    are equal bindings but different outputs."""
    return [
        [
            (name, type(value), id(value) if isinstance(value, (Tree, Ref)) else value)
            for name, value in binding.items()
        ]
        for binding in bindings
    ]


STORED = ("s0", "s1")
# 1, 1.0 and True compare equal across types.
KEYED = st.sampled_from([1, 1.0, True, 2, "x"]).map(lambda v: tree("k", atom(v)))
KEYED_RUN = st.lists(KEYED, max_size=3)  # empty collections too
GROUPS = KEYED_RUN.map(lambda keyed: tree("v", *keyed))
REFS = st.lists(st.sampled_from([Ref(name) for name in STORED]), max_size=2)
# Each pattern template with the children of data shaped to match it.
FAMILIES = [
    ("{r}", st.just([])),  # a leaf root pattern
    ("{r} -> k -> {v}", st.tuples(KEYED).map(list)),
    ("{r} *-> k -> {v}", KEYED_RUN),
    ("{r} < *-> k -> {v}, *-> k -> {w} >", KEYED_RUN),  # two stars, same children
    ("{r} (I)-> k -> {v}", KEYED_RUN),  # I shared between patterns
    ("{r} (I)-> v (I)-> k -> {v}", st.lists(GROUPS, max_size=3)),  # diagonal
    ("{r} < -> k -> {v}, -> v *-> k -> {w} >", st.tuples(KEYED, GROUPS).map(list)),
    ("{r} *-> L -> {v}", KEYED_RUN),
    ("{r} *-> ^T", REFS),
    ("^T", REFS),  # matches a reference input directly
]


@st.composite
def cases(draw):
    """(pattern texts, tree pool, inputs): 2-3 root patterns, a tree
    shaped for each, and inputs that are pool indices or the names
    references point to (``missing`` dangles)."""
    texts, pool = [], []
    for template, children in draw(
        st.lists(st.sampled_from(FAMILIES), min_size=2, max_size=3)
    ):
        root = draw(st.sampled_from(["a", "b", "L"]))  # L: a label variable
        v, w = draw(st.sampled_from(["X", "Y"])), draw(st.sampled_from(["X", "Y"]))
        texts.append(template.format(r=root, v=v, w=w))
        label = root if root != "L" else draw(st.sampled_from(["a", "b"]))
        pool.append(tree(label, *draw(children)))
    inputs = st.one_of(
        st.integers(0, len(pool) - 1), st.sampled_from(STORED + ("missing",))
    )
    return texts, pool, draw(st.lists(inputs, min_size=1, max_size=6))


A1 = tree("a", tree("k", atom(1)))


@given(cases())
@settings(max_examples=300, deadline=None)
# equal labels of different types: each binding keeps the value bound first
@example(
    (["a -> k -> X", "b -> k -> X"],
     [tree("a", tree("k", atom(1.0))), tree("b", tree("k", atom(1)))],
     [0, 1])
)
# the direct match of s0 fails under T = A1, its referent's match does not
@example((["^T", "^T"], [A1], [0, "s0", "s1"]))
def test_hash_join_equals_nested_loop(case):
    texts, pool, items = case
    inputs = [pool[item] if isinstance(item, int) else Ref(item) for item in items]
    store = DataStore()
    store.add("s0", pool[0])
    store.add("s1", pool[-1])
    rule = Rule(
        "R",
        HeadPattern("Out", parse_pattern_tree("out")),
        [BodyPattern(f"P{i}", parse_pattern_tree(t)) for i, t in enumerate(texts)],
    )
    joined = match_body(rule, inputs, MatchContext(store=store))
    expected = nested_loop(rule, inputs, MatchContext(store=store))
    assert joined == expected
    assert exact(joined) == exact(expected)
