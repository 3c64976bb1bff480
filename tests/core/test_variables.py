"""Variable domains: membership, inclusion, intersection."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.labels import Symbol
from repro.core.variables import (
    ANY,
    ATOMIC,
    BOOL,
    FLOAT,
    INT,
    STRING,
    SYMBOL,
    AtomTypeDomain,
    EnumDomain,
    PatternVar,
    UnionDomain,
    Var,
    domain_by_name,
    enum,
    union_domain,
)

ALL_NAMED = [ANY, STRING, INT, FLOAT, BOOL, SYMBOL, ATOMIC]


class TestContains:
    def test_any_contains_everything(self):
        for value in ["x", 1, 1.5, True, Symbol("s")]:
            assert ANY.contains(value)

    def test_atomic_types(self):
        assert STRING.contains("x") and not STRING.contains(1)
        assert INT.contains(3) and not INT.contains("3")
        assert FLOAT.contains(1.5)
        assert BOOL.contains(True) and not BOOL.contains(1)

    def test_int_acceptable_as_float(self):
        assert FLOAT.contains(3)

    def test_bool_is_not_int(self):
        assert not INT.contains(True)

    def test_symbol_domain(self):
        assert SYMBOL.contains(Symbol("set"))
        assert not SYMBOL.contains("set")

    def test_enum(self):
        domain = enum("set", "bag")
        assert domain.contains(Symbol("set"))
        assert not domain.contains(Symbol("list"))
        assert not domain.contains("set")  # strings are not symbols

    def test_union(self):
        assert ATOMIC.contains("x") and ATOMIC.contains(1)
        assert not ATOMIC.contains(Symbol("x"))


class TestSubset:
    def test_reflexive(self):
        for domain in ALL_NAMED:
            assert domain.subset_of(domain)

    def test_everything_subset_of_any(self):
        for domain in ALL_NAMED:
            assert domain.subset_of(ANY)

    def test_any_only_subset_of_any(self):
        assert not ANY.subset_of(STRING)
        assert not ANY.subset_of(ATOMIC)

    def test_int_subset_of_float(self):
        assert INT.subset_of(FLOAT)
        assert not FLOAT.subset_of(INT)

    def test_member_subset_of_union(self):
        assert STRING.subset_of(ATOMIC)
        assert not ATOMIC.subset_of(STRING)

    def test_enum_subset_via_membership(self):
        assert enum("set").subset_of(enum("set", "bag"))
        assert not enum("set", "list").subset_of(enum("set", "bag"))
        assert enum("set").subset_of(SYMBOL)

    def test_union_subset_of_union(self):
        assert union_domain([STRING, INT]).subset_of(ATOMIC)


class TestIntersects:
    def test_any_intersects_all(self):
        for domain in ALL_NAMED:
            assert ANY.intersects(domain)
            assert domain.intersects(ANY)

    def test_disjoint_atomics(self):
        assert not STRING.intersects(INT)

    def test_int_float_overlap(self):
        assert INT.intersects(FLOAT)

    def test_enum_overlap(self):
        assert enum("set", "bag").intersects(enum("bag", "list"))
        assert not enum("set").intersects(enum("list"))

    def test_union_overlap(self):
        assert ATOMIC.intersects(STRING)
        assert not union_domain([STRING, INT]).intersects(BOOL)


class TestConstruction:
    def test_union_domain_flattens(self):
        nested = union_domain([union_domain([STRING, INT]), FLOAT])
        assert isinstance(nested, UnionDomain)
        assert len(nested.members) == 3

    def test_union_with_any_collapses(self):
        assert union_domain([STRING, ANY]) is ANY

    def test_singleton_union_unwraps(self):
        assert union_domain([STRING]) is STRING

    def test_empty_enum_rejected(self):
        with pytest.raises(ValueError):
            EnumDomain([])

    def test_unknown_atomic_type_rejected(self):
        with pytest.raises(ValueError):
            AtomTypeDomain("blob")

    def test_domain_by_name(self):
        assert domain_by_name("string") is STRING
        assert domain_by_name("char") is STRING  # the paper's char → string
        assert domain_by_name("any") is ANY
        with pytest.raises(ValueError):
            domain_by_name("unknown")

    def test_render_round_trips_conceptually(self):
        assert STRING.render() == "string"
        assert enum("set", "bag").render() == "(bag|set)"
        assert ATOMIC.render() == "(string|int|float|bool)"


class TestVars:
    def test_var_equality_by_name(self):
        assert Var("SN") == Var("SN", STRING)
        assert Var("SN") != Var("C")

    def test_var_requires_uppercase(self):
        with pytest.raises(ValueError):
            Var("lower")

    def test_underscore_allowed(self):
        assert Var("_").name == "_"

    def test_pattern_var(self):
        pv = PatternVar("P2", "Ptype")
        assert pv.domain_pattern == "Ptype"
        assert pv == PatternVar("P2")
        with pytest.raises(ValueError):
            PatternVar("lower")

    def test_with_domain(self):
        typed = Var("SN").with_domain(STRING)
        assert typed.domain is STRING
        assert typed == Var("SN")


@given(
    st.sampled_from(ALL_NAMED),
    st.sampled_from(ALL_NAMED),
    st.one_of(st.text(min_size=1), st.integers(), st.booleans()),
)
def test_subset_implies_membership_transfer(sub, sup, value):
    """If sub ⊆ sup, every member of sub belongs to sup."""
    if sub.subset_of(sup) and sub.contains(value):
        assert sup.contains(value)


@given(st.sampled_from(ALL_NAMED), st.sampled_from(ALL_NAMED))
def test_subset_implies_intersects(a, b):
    if a.subset_of(b):
        assert a.intersects(b)
        assert b.intersects(a)
