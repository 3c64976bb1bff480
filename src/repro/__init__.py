"""YAT: declarative data conversion for mediator architectures.

A from-scratch Python reproduction of *"Your Mediators Need Data
Conversion!"* (Cluet, Delobel, Siméon, Smaga — SIGMOD 1998): the YAT
middleware data model, the YATL rule language, program customization /
combination / composition, and the substrates and wrappers of the
paper's car-dealer intranet scenario.

Quickstart::

    from repro import YatSystem
    from repro.workloads import brochure_elements
    from repro.sgml import brochure_dtd
    from repro.objectdb import car_dealer_schema

    system = YatSystem()
    to_odmg = system.import_program("SgmlBrochuresToOdmg")
    objects = system.translate_to_objects(
        to_odmg, car_dealer_schema(),
        sgml_documents=brochure_elements(10), dtd=brochure_dtd())
    pages = system.publish_to_html(system.import_program("O2Web"), objects)
"""

from . import core, errors, html, library, obs, objectdb, relational, sgml, workloads, wrappers, yatl
from .core import DataStore, Model, Pattern, Ref, Tree, atom, sym, tree
from .errors import YatError
from .system import YatSystem
from .yatl import ConversionResult, Program, Rule, parse_program, parse_rule

__version__ = "1.0.0"

__all__ = [
    "core",
    "errors",
    "html",
    "library",
    "obs",
    "objectdb",
    "relational",
    "sgml",
    "workloads",
    "wrappers",
    "yatl",
    "DataStore",
    "Model",
    "Pattern",
    "Ref",
    "Tree",
    "atom",
    "sym",
    "tree",
    "YatError",
    "YatSystem",
    "ConversionResult",
    "Program",
    "Rule",
    "parse_program",
    "parse_rule",
    "__version__",
]
