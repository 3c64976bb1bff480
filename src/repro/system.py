"""The YAT system facade (Section 5, Figure 6).

:class:`YatSystem` wires the three parts of the architecture together:

* the **specification environment** — loading programs from the library,
  customizing them by instantiation, combining and composing them, and
  type checking on demand;
* the **run-time environment** — import wrappers, the YATL interpreter,
  export wrappers;
* the **library** of programs and formats.

The ``translate`` helpers run complete pipelines, e.g. the Figure 1
scenario: relational + SGML sources → ODMG objects → HTML pages.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Union

from .core.models import Model
from .core.patterns import Pattern
from .core.trees import DataStore, Tree
from .errors import YatError
from .library.store import Library, standard_library
from .obs import MetricsRegistry, ProvenanceStore, collecting, span, tracing
from .objectdb.schema import ObjectSchema
from .objectdb.store import ObjectStore
from .relational.database import Database
from .sgml.document import Element
from .sgml.dtd import DTD
from .wrappers.html import HtmlExportWrapper
from .wrappers.odmg import OdmgExportWrapper, OdmgImportWrapper
from .wrappers.relational import RelationalImportWrapper
from .wrappers.sgml import SgmlImportWrapper
from .yatl.interpreter import ConversionResult
from .yatl.program import Program
from .yatl.typing import Signature


class YatSystem:
    """A complete YAT environment.

    ``metrics`` is the system-level :class:`~repro.obs.MetricsRegistry`
    every run-time operation (imports, conversions, exports, store
    merges) accounts into — one registry per system, aggregating
    across pipeline runs. Pass a registry to share it wider, e.g.
    with a metrics endpoint.

    ``provenance`` is the optional system-level
    :class:`~repro.obs.ProvenanceStore`. When given, every run-time
    operation records into it: wrappers stamp imported node ids with
    their source, conversions add per-firing records, and
    ``merge_stores`` renames become ``merge.rename`` pseudo records —
    so lineage chains stay connected *across* the programs of a
    pipeline (output ``c1`` of the object-translation program is input
    ``c1`` of the HTML-publication program; joining is by node name,
    which cross-program renames keep unique). Without it, per-firing
    recording is off (runs still get exact name-level origins).
    """

    def __init__(
        self,
        library: Optional[Library] = None,
        metrics: Optional[MetricsRegistry] = None,
        provenance: Optional[ProvenanceStore] = None,
    ) -> None:
        self.library = library if library is not None else standard_library()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.provenance = provenance
        # Parsed-program cache: a long-running server converts with the
        # same few programs thousands of times; parsing them once per
        # request would dominate small-payload latency.
        self._program_cache: Dict[str, Program] = {}
        self._program_cache_lock = threading.Lock()
        # Invalidation fan-out: save_program already evicts the parsed
        # program from this cache, but long-running servers hold more
        # derived state keyed by program name (conversion result
        # caches, shadow-verification save counts). They subscribe
        # here so one save invalidates every layer atomically from the
        # caller's point of view.
        self._invalidation_listeners: List = []

    def _tracing(self):
        """The ambient-provenance context for run-time operations: a
        real `tracing` block when the system has a store, else a no-op
        (never install a fresh store the caller can't see)."""
        if self.provenance is not None:
            return tracing(self.provenance)
        return nullcontext(None)

    # ------------------------------------------------------------------
    # Specification environment
    # ------------------------------------------------------------------

    def import_program(self, name: str) -> Program:
        """Import a conversion program from the library."""
        return self.library.load_program(name)

    def load_program_cached(self, name: str) -> Program:
        """Import a library program through the system's thread-safe
        parse cache (the serving hot path). Cache accounting lands in
        ``system.programs.cache_hits`` / ``.cache_misses``."""
        with self._program_cache_lock:
            program = self._program_cache.get(name)
        if program is not None:
            self.metrics.counter(
                "system.programs.cache_hits", "program-cache hits"
            ).inc(program=name)
            return program
        program = self.library.load_program(name)
        self.metrics.counter(
            "system.programs.cache_misses", "program-cache misses (parses)"
        ).inc(program=name)
        with self._program_cache_lock:
            # A concurrent loader may have won the race; keep the first
            # entry so every request sees one identical Program object.
            return self._program_cache.setdefault(name, program)

    def warm(self, names: Optional[Sequence[str]] = None) -> List[str]:
        """Preload library programs into the parse cache (readiness
        warmup for :mod:`repro.serve`). Defaults to every program in
        the library; returns the warmed names."""
        warmed = list(names) if names is not None else self.library.program_names()
        for name in warmed:
            self.load_program_cached(name)
        self.metrics.gauge(
            "system.programs.warmed", "programs preloaded into the cache"
        ).set(len(warmed))
        return warmed

    def add_invalidation_listener(self, listener) -> None:
        """Subscribe ``listener(program_name)`` to program-change
        events: called (after the parsed-program cache eviction) every
        time :meth:`save_program` persists a program, so serving-side
        caches keyed by program name can drop derived state. Listeners
        must be fast and must not raise."""
        with self._program_cache_lock:
            self._invalidation_listeners.append(listener)

    def save_program(self, program: Program) -> str:
        name = self.library.save_program(program)
        # The library text changed: drop the stale parsed Program so a
        # long-running server's next load re-parses the new version,
        # then notify subscribed caches (conversion results, shadow
        # save counts) before any caller can observe the save.
        with self._program_cache_lock:
            self._program_cache.pop(name, None)
            listeners = list(self._invalidation_listeners)
        for listener in listeners:
            listener(name)
        return name

    def import_model(self, name: str) -> Model:
        return self.library.load_model(name)

    def customize(
        self,
        program: Program,
        patterns: Union[Pattern, Sequence[Pattern], Model],
        name: Optional[str] = None,
    ) -> Program:
        """Instantiate a general program on specific pattern(s), ready
        for further hand-customization (Section 4.1)."""
        return program.instantiated_on(patterns, name=name)

    def combine(self, *programs: Program, name: Optional[str] = None) -> Program:
        """Combine programs; rule hierarchies arbitrate the conflicts
        (Section 4.2)."""
        if not programs:
            raise YatError("combine needs at least one program")
        combined = programs[0]
        for program in programs[1:]:
            combined = combined.combined_with(program)
        if name is not None:
            combined.name = name
        return combined

    def compose(
        self, first: Program, second: Program, name: Optional[str] = None
    ) -> Program:
        """Compose two programs into a one-step conversion (Section 4.3)."""
        return first.composed_with(second, name=name)

    def type_check(self, program: Program) -> Signature:
        """On-demand typing (Section 3.5): infer the signature and check
        it against the program's declared models."""
        program.check_models()
        return program.signature()

    # ------------------------------------------------------------------
    # Run-time environment
    # ------------------------------------------------------------------

    def import_relational(self, database: Database) -> DataStore:
        with collecting(self.metrics), self._tracing():
            return RelationalImportWrapper().to_store(database)

    def import_sgml(
        self,
        documents: Sequence[Element],
        dtd: Optional[DTD] = None,
        coerce_numbers: bool = True,
    ) -> DataStore:
        """Import SGML documents. ``coerce_numbers`` turns numeric PCDATA
        into numbers (needed by Rule 1's ``Year > 1975``); disable it
        when joining against string-typed relational columns (Rule 3's
        ``Num``/``broch_num``)."""
        with collecting(self.metrics), self._tracing():
            return SgmlImportWrapper(
                dtd=dtd, coerce_numbers=coerce_numbers
            ).to_store(documents)

    def import_odmg(self, store: ObjectStore) -> DataStore:
        with collecting(self.metrics), self._tracing():
            return OdmgImportWrapper().to_store(store)

    def merge_stores(self, *stores: DataStore) -> DataStore:
        """Union several source stores, renaming on name collisions.

        A colliding name first tries ``name@index``; if a source
        already contains that spelling (e.g. source 0 holds both ``x``
        and ``x@1``), numeric ``~2``, ``~3``... suffixes are appended
        until the name is free, so merging never silently drops a
        tree. Renames are counted in ``system.merge.renames``.
        """
        merged = DataStore()
        renames = 0
        for index, store in enumerate(stores):
            for name, node in store:
                unique = name
                if unique in merged:
                    unique = f"{name}@{index}"
                    attempt = 2
                    while unique in merged:
                        unique = f"{name}@{index}~{attempt}"
                        attempt += 1
                    renames += 1
                    if self.provenance is not None:
                        # Keep lineage chains connected through the
                        # rename (backward from consumers of `unique`
                        # reaches the producers of `name`).
                        self.provenance.alias(unique, name)
                merged.add(unique, node)
        self.metrics.counter(
            "system.merge.stores", "merge_stores invocations"
        ).inc()
        if renames:
            self.metrics.counter(
                "system.merge.renames", "trees renamed to avoid collisions"
            ).inc(renames)
        return merged

    def run(
        self,
        program: Program,
        data: Union[DataStore, Sequence[Tree], Tree],
        runtime_typing: bool = False,
    ) -> ConversionResult:
        """Convert *data* under the system's metrics/provenance context."""
        with collecting(self.metrics), self._tracing():
            return program.run(data, runtime_typing=runtime_typing)

    def export_odmg(
        self, result: ConversionResult, schema: ObjectSchema
    ) -> ObjectStore:
        with collecting(self.metrics), self._tracing():
            return OdmgExportWrapper(schema).from_store(result.store)

    def export_html(
        self, result: ConversionResult, functor: str = "HtmlPage"
    ) -> Dict[str, str]:
        with collecting(self.metrics), self._tracing():
            return HtmlExportWrapper().export_result(result, functor)

    # ------------------------------------------------------------------
    # Scenario pipelines (Figure 1)
    # ------------------------------------------------------------------

    def translate_to_objects(
        self,
        program: Program,
        schema: ObjectSchema,
        sgml_documents: Sequence[Element] = (),
        database: Optional[Database] = None,
        dtd: Optional[DTD] = None,
    ) -> ObjectStore:
        """Sources → ODMG objects: the materialized variant of Figure 1
        arrow (1)."""
        with collecting(self.metrics), self._tracing(), span(
            "pipeline", program=program.name, target="odmg"
        ):
            stores = []
            if sgml_documents:
                stores.append(self.import_sgml(sgml_documents, dtd))
            if database is not None:
                stores.append(self.import_relational(database))
            if not stores:
                raise YatError("translate_to_objects needs at least one source")
            result = self.run(program, self.merge_stores(*stores))
            return self.export_odmg(result, schema)

    def publish_to_html(
        self, program: Program, objects: ObjectStore
    ) -> Dict[str, str]:
        """ODMG objects → HTML pages: Figure 1 arrow (2)."""
        with collecting(self.metrics), self._tracing(), span(
            "pipeline", program=program.name, target="html"
        ):
            result = self.run(program, self.import_odmg(objects))
            return self.export_html(result)

    def __repr__(self) -> str:
        return f"YatSystem({self.library!r})"
