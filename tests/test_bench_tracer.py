"""The benchmark's traced run (`bench/run.py --trace 1`) times each layer
by wrapping module attributes of the package from outside.  A refactor
that renames one of them, or stops calling through it, would silently
drop that layer's metric; these checks catch it in the test suite."""

import os
import shutil
import sys

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
sys.path.insert(0, os.path.abspath(BENCH))

from layers import Tracer  # noqa: E402

import namebook.cli as cli  # noqa: E402

LOAN_DOC = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                        "fixtureC.nsdoc")


def test_every_traced_attribute_is_wrapped_on_the_call_path_and_restored(
        tmp_path, capsys):
    tracer = Tracer()
    tracer.install()
    try:
        patched = list(tracer.patched)
        for owner, attr, fn in patched:
            assert getattr(owner, attr) is not fn, attr
        doc = str(tmp_path / "loan.nsdoc")
        shutil.copyfile(LOAN_DOC, doc)
        assert cli.main(["eval", doc, "--out", str(tmp_path / "v.tsv")]) == 0
        assert cli.main(["fmt", doc]) == 0
        assert cli.main(["audit", "list", doc]) == 0
        assert cli.main(["audit", "graph", doc, "--focus", "debt.balance"]) == 0
        cli.main(["lint", doc])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for owner, attr, fn in patched:
        assert getattr(owner, attr) is fn, attr
    wrapped = {owner.__name__ + "." + attr for owner, attr, _ in patched}
    assert {"namebook.engine.build_dep_graph", "namebook.engine.topo_order",
            "namebook.audit.build_dep_graph", "namebook.audit.topo_order",
            "namebook.cli.evaluate", "Workbook.define_name"} <= wrapped
    spans = {rec[0] for rec in tracer.spans}
    assert spans == {"cli.main", "docio.rebuild", "docio.export",
                     "formula.parse", "workbook.define", "engine.evaluate",
                     "engine.dep_graph", "audit.listing", "audit.lint",
                     "audit.graph"}
    # evaluate itself builds the dependency graph through the wrapped name
    parents = {rec[3] for rec in tracer.spans if rec[0] == "engine.dep_graph"}
    assert any(tracer.spans[p][0] == "engine.evaluate" for p in parents
               if p is not None)
