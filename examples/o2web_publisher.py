"""Customizing the generic Web program (Section 4.1).

Starts from the generic ODMG → HTML program (rules Web1–Web6), derives
the specialized rule WebCar by instantiating it on the Pcar pattern,
hand-customizes it into newWebCar (suppliers no longer displayed), and
combines the customized program with the general one so every other
object keeps the default rendering (Section 4.2).

Run with ``python examples/o2web_publisher.py``.
"""

from repro import YatSystem
from repro.core.models import car_schema_model
from repro.core.patterns import PNode
from repro.workloads import car_object_store
from repro.yatl.ast import HeadPattern, Rule
from repro.yatl.program import Program


def drop_suppliers_item(node):
    """Rewrite the WebCar head: remove the 'suppliers: ' list item."""
    if isinstance(node, PNode):
        edges = []
        for edge in node.edges:
            target = edge.target
            if (
                isinstance(target, PNode)
                and str(target.label) == "li"
                and target.edges
                and isinstance(target.edges[0].target, PNode)
                and target.edges[0].target.label == "suppliers: "
            ):
                continue  # the suppliers item disappears
            edges.append(edge.with_target(drop_suppliers_item(target)))
        return PNode(node.label, edges)
    return node


def main():
    system = YatSystem()
    web = system.import_program("O2Web")
    schema = car_schema_model()

    # 1. instantiate the general program on Pcar -> rule WebCar
    specialized = system.customize(web, schema.pattern("Pcar"), name="WebCar")
    webcar = specialized.rules[0]
    print("=== derived rule WebCar (Section 4.1) ===\n")
    print(webcar)

    # 2. hand-customize into newWebCar: no supplier display
    new_webcar = Rule(
        "newWebCar",
        HeadPattern(webcar.head.term, drop_suppliers_item(webcar.head.tree)),
        [bp for bp in webcar.body if bp.name.name == "Pcar"],
        webcar.predicates,
        webcar.calls,
    )
    print("\n=== customized rule newWebCar ===\n")
    print(new_webcar)

    # 3. combine with the general program: cars use newWebCar, everything
    #    else falls back to Web1-Web6 through the rule hierarchy
    customized = Program("CustomizedWeb", [new_webcar], registry=web.registry)
    combined = system.combine(customized, web)

    objects = car_object_store(cars=3, suppliers=2)
    store = system.import_odmg(objects)
    result = system.run(combined, store)
    pages = system.export_html(result)

    print(f"\n=== {len(pages)} pages generated by the combined program ===")
    car_pages = [p for p in pages.values() if "<title>car</title>" in p]
    print("\na car page (no suppliers displayed):\n")
    print(car_pages[0])


if __name__ == "__main__":
    main()
