"""Source drift fingerprints across every wrapper.

The contract under test (docs/OBSERVABILITY.md, "Conversion quality"):
identical inputs fingerprint identically (drift 0.0), and the three
canonical schema-drift shapes — a label rename, a dropped column, a
depth change — all move the drift score strictly above zero. Each
scenario wrapper (relational, SGML, ODMG, HTML) plus the JSON wrapper
stamps its forest through the same :func:`stamp_fingerprint` path.
"""

from repro.core.trees import DataStore, tree
from repro.obs import (
    DRIFT_GAUGE,
    FingerprintTracker,
    ForestFingerprint,
    MetricsRegistry,
    collecting,
    drift_components,
    drift_score,
    fingerprint_store,
)
from repro.objectdb import ObjectStore, car_dealer_schema
from repro.relational import Column, TableSchema
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema
from repro.sgml import element
from repro.workloads import brochure_elements
from repro.wrappers import (
    HtmlExportWrapper,
    JsonImportWrapper,
    OdmgImportWrapper,
    RelationalImportWrapper,
    SgmlImportWrapper,
)


def dealer_db(name_column: str = "name", with_city: bool = True):
    columns = [Column("sid", "int"), Column(name_column, "string")]
    if with_city:
        columns.append(Column("city", "string"))
    schema = DatabaseSchema("dealers", [TableSchema("suppliers", columns)])
    db = Database(schema)
    row = [1, "VW center"] + (["Paris"] if with_city else [])
    db.insert("suppliers", *row)
    row = [2, "VW2"] + (["Lyon"] if with_city else [])
    db.insert("suppliers", *row)
    return db


def brochures(tag: str = "title", deep: bool = False):
    title = element(tag, "Golf")
    if deep:
        title = element(tag, element("main", "Golf"))
    return [
        element(
            "brochure",
            element("number", 1),
            title,
            element("model", 1995),
        )
    ]


def object_store(field: str = "city"):
    store = ObjectStore(car_dealer_schema())
    store.create(
        "supplier", {"name": "VW", field: "Paris", "zip": "75005"}
    )
    return store


def page_store(tag: str = "li", deep: bool = False):
    item = tree(tag, "Golf")
    if deep:
        item = tree(tag, tree("b", "Golf"))
    return DataStore({
        "p1": tree(
            "html", tree("title", "cars"), tree("ul", item)
        ),
    })


class TestFingerprintIdentity:
    """Identical inputs -> identical fingerprints, for every wrapper."""

    def test_relational(self):
        a = fingerprint_store(RelationalImportWrapper().to_store(dealer_db()))
        b = fingerprint_store(RelationalImportWrapper().to_store(dealer_db()))
        assert a == b
        assert drift_score(a, b) == 0.0

    def test_sgml(self):
        a = fingerprint_store(SgmlImportWrapper().to_store(brochures()))
        b = fingerprint_store(SgmlImportWrapper().to_store(brochures()))
        assert a == b
        assert drift_score(a, b) == 0.0

    def test_odmg(self):
        a = fingerprint_store(OdmgImportWrapper().to_store(object_store()))
        b = fingerprint_store(OdmgImportWrapper().to_store(object_store()))
        assert a == b
        assert drift_score(a, b) == 0.0

    def test_json(self):
        text = '{"name": "Golf", "year": 1995}'
        a = fingerprint_store(JsonImportWrapper().to_store(text))
        b = fingerprint_store(JsonImportWrapper().to_store(text))
        assert a == b
        assert drift_score(a, b) == 0.0

    def test_html_export_stamps_pages(self):
        # Export-only wrapper: the fingerprint covers the page trees it
        # renders, observed through the ambient registry.
        registry = MetricsRegistry()
        with collecting(registry):
            HtmlExportWrapper().from_store(page_store())
            HtmlExportWrapper().from_store(page_store())
        gauge = registry.get(DRIFT_GAUGE)
        assert gauge is not None
        assert gauge.value(source="html") == 0.0

    def test_value_churn_is_not_drift(self):
        # Same shape, different atoms: a drift detector must ignore
        # data churn or it alerts on every request.
        a = fingerprint_store(
            SgmlImportWrapper().to_store([element("b", element("t", "x"))])
        )
        b = fingerprint_store(
            SgmlImportWrapper().to_store([element("b", element("t", "y"))])
        )
        assert a == b

    def test_payload_size_is_not_drift(self):
        # One brochure or 24 of the same shape: a daemon serving mixed
        # request sizes must not read that as a schema change.
        def fingerprint(count):
            return fingerprint_store(SgmlImportWrapper().to_store(
                brochure_elements(count, distinct_suppliers=2)
            ))

        assert drift_score(fingerprint(1), fingerprint(24)) == 0.0


class TestFingerprintDrift:
    """Label rename / column drop / depth change -> positive score."""

    def test_relational_column_drop(self):
        before = fingerprint_store(
            RelationalImportWrapper().to_store(dealer_db(with_city=True))
        )
        after = fingerprint_store(
            RelationalImportWrapper().to_store(dealer_db(with_city=False))
        )
        assert drift_score(before, after) > 0.0

    def test_relational_label_rename(self):
        before = fingerprint_store(
            RelationalImportWrapper().to_store(dealer_db("name"))
        )
        after = fingerprint_store(
            RelationalImportWrapper().to_store(dealer_db("label"))
        )
        assert drift_score(before, after) > 0.0

    def test_sgml_label_rename(self):
        before = fingerprint_store(
            SgmlImportWrapper().to_store(brochures("title"))
        )
        after = fingerprint_store(
            SgmlImportWrapper().to_store(brochures("heading"))
        )
        score = drift_score(before, after)
        assert 0.0 < score <= 1.0
        assert drift_components(before, after)["labels"] > 0.0

    def test_sgml_depth_change(self):
        before = fingerprint_store(
            SgmlImportWrapper().to_store(brochures(deep=False))
        )
        after = fingerprint_store(
            SgmlImportWrapper().to_store(brochures(deep=True))
        )
        assert before.max_depth < after.max_depth
        assert drift_score(before, after) > 0.0

    def test_odmg_field_rename(self):
        before = fingerprint_store(
            OdmgImportWrapper().to_store(object_store())
        )
        store = ObjectStore(car_dealer_schema())
        store.create("car", {"name": "Golf", "desc": "x", "suppliers": []})
        after = fingerprint_store(OdmgImportWrapper().to_store(store))
        assert drift_score(before, after) > 0.0

    def test_json_shape_change(self):
        before = fingerprint_store(
            JsonImportWrapper().to_store('{"name": "Golf"}')
        )
        after = fingerprint_store(
            JsonImportWrapper().to_store('{"name": {"first": "Golf"}}')
        )
        assert drift_score(before, after) > 0.0

    def test_html_drift_via_gauge(self):
        registry = MetricsRegistry()
        with collecting(registry):
            HtmlExportWrapper().from_store(page_store(deep=False))
            HtmlExportWrapper().from_store(page_store(deep=True))
        assert registry.get(DRIFT_GAUGE).value(source="html") > 0.0

    def test_disjoint_forests_score_high(self):
        a = fingerprint_store(DataStore({"x": tree("alpha", tree("a", 1))}))
        b = fingerprint_store(DataStore({"x": tree("beta", tree("b", "s"))}))
        assert drift_score(a, b) > 0.5


class TestStamping:
    """The ambient gauge plumbing every import tail runs through."""

    def test_import_publishes_gauges(self):
        registry = MetricsRegistry()
        with collecting(registry):
            SgmlImportWrapper().to_store(brochures())
        assert registry.get(DRIFT_GAUGE).value(source="sgml") == 0.0
        assert (
            registry.get("wrapper.fingerprint.nodes").value(source="sgml") > 0
        )
        assert (
            registry.get("wrapper.fingerprint.depth").value(source="sgml") > 0
        )

    def test_second_import_measures_drift(self):
        registry = MetricsRegistry()
        with collecting(registry):
            SgmlImportWrapper().to_store(brochures("title"))
            SgmlImportWrapper().to_store(brochures("heading"))
        assert registry.get(DRIFT_GAUGE).value(source="sgml") > 0.0

    def test_fresh_registry_has_no_memory(self):
        # One-shot CLI runs must never inherit another run's baseline:
        # the tracker rides the registry, not the process.
        for _ in range(2):
            registry = MetricsRegistry()
            with collecting(registry):
                SgmlImportWrapper().to_store(brochures("heading"))
            assert registry.get(DRIFT_GAUGE).value(source="sgml") == 0.0

    def test_no_registry_is_a_noop(self):
        assert SgmlImportWrapper().to_store(brochures()) is not None

    def test_sources_tracked_independently(self):
        registry = MetricsRegistry()
        with collecting(registry):
            SgmlImportWrapper().to_store(brochures("title"))
            RelationalImportWrapper().to_store(dealer_db())
            SgmlImportWrapper().to_store(brochures("heading"))
            RelationalImportWrapper().to_store(dealer_db())
        gauge = registry.get(DRIFT_GAUGE)
        assert gauge.value(source="sgml") > 0.0
        assert gauge.value(source="relational") == 0.0


class TestFingerprintMechanics:
    def test_json_round_trip(self):
        fp = fingerprint_store(SgmlImportWrapper().to_store(brochures()))
        clone = ForestFingerprint.from_json(fp.to_json())
        assert clone == fp
        assert drift_score(fp, clone) == 0.0

    def test_empty_forests(self):
        a = fingerprint_store(DataStore())
        b = fingerprint_store(DataStore())
        assert a == b
        assert drift_score(a, b) == 0.0

    def test_score_bounded(self):
        a = fingerprint_store(DataStore({"x": tree("alpha", 1, 2, 3)}))
        b = fingerprint_store(DataStore())
        assert 0.0 <= drift_score(a, b) <= 1.0

    def test_tracker_observe_sequence(self):
        tracker = FingerprintTracker()
        fp1 = fingerprint_store(SgmlImportWrapper().to_store(brochures()))
        fp2 = fingerprint_store(
            SgmlImportWrapper().to_store(brochures("heading"))
        )
        assert tracker.observe("s", fp1) == 0.0
        assert tracker.observe("s", fp1) == 0.0
        assert tracker.observe("s", fp2) > 0.0
        assert tracker.latest("s") == fp2
        assert tracker.sources() == ["s"]
