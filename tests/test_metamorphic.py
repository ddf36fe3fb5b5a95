"""Metamorphic relations: edits to a workbook that must leave its values
unchanged, checked without an oracle.

Rename: a bijection on the identifiers that reverses their sort order,
applied to every name, every reference in a formula and every derive
base, with the names defined in reverse order.  Each name must then hold
the value its original held, bit for bit and with the same Array kind.
Every tie the planner breaks (the Kahn sorts, Tarjan's components and
the order of each group's members) breaks the other way in the renamed
book, so this pins that no tie-break changes a value.  The books are the
three fixtures, the four bench workloads at seed 403, and gen's four
families at seeds 0-149: 609 books, none with a cycle, and renaming
reorders the plan of 394.
"""

import os
import sys

from namebook.docio import rebuild
from namebook.engine import build_dep_graph, evaluate
from namebook.formula import Expr, NameRef, names_referenced
from namebook.workbook import NameDef, Workbook

import gen
from corpus import fixture_a, fixture_b, fixture_c

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

SEEDS = range(150)
FAMILIES = (gen.random_workbook, gen.lookup_workbook,
            gen.recurrence_workbook, gen.sweep_group_workbook)


def _renamed_expr(e, new):
    if isinstance(e, NameRef):
        return NameRef(new[e.name], e.sheet)
    if isinstance(e, tuple):  # a call's arguments
        return tuple(_renamed_expr(a, new) for a in e)
    if not isinstance(e, Expr):
        return e
    return type(e)(*(_renamed_expr(getattr(e, f), new) for f in e._fields))


def _renamed(wb):
    """The book with every identifier renamed, reversing their order, and
    its names defined in reverse order; and the renaming."""
    idents = set()
    for nd in wb.names.values():
        idents.add(nd.identifier)
        if nd.formula is not None:
            idents.update(ident for _, ident in names_referenced(nd.formula))
        if nd.derive is not None:
            idents.add(nd.derive[0])
    ranked = sorted(idents)
    new = {old: "v.%04d" % (len(ranked) - i) for i, old in enumerate(ranked)}
    out = Workbook()
    for sh in wb.sheets.values():  # as Workbook.copy does
        out.sheets[sh.name] = sh.copy()
    for nd in reversed(list(wb.names.values())):
        formula = (None if nd.formula is None
                   else _renamed_expr(nd.formula, new))
        derive = (None if nd.derive is None
                  else (new[nd.derive[0]], *nd.derive[1:]))
        out.define_name(NameDef(new[nd.identifier], nd.scope, nd.kind,
                                nd.target, formula, nd.array, derive))
    return out, new


def _values(wb):
    """Each name's (value repr, Array kind)."""
    return {key: (repr(v), getattr(v, "kind", None))
            for key, v in evaluate(wb).values.items()}


def _plan_order(wb):
    return [m for group in build_dep_graph(wb).plan for m in group.members]


def _check_rename(label, wb):
    """Whether renaming reordered the book's plan."""
    before = _values(wb)
    renamed, new = _renamed(wb)
    assert _values(renamed) == {(scope, new[ident]): v
                                for (scope, ident), v in before.items()}, label
    return ([(scope, new[ident]) for scope, ident in _plan_order(wb)]
            != _plan_order(renamed))


def test_renaming_every_identifier_changes_no_value(monkeypatch):
    monkeypatch.chdir(ROOT)  # workloads.fixtures reads fixtures/*.nsdoc
    books = [("fixtureA", fixture_a()), ("fixtureB", fixture_b()),
             ("fixtureC", fixture_c())]
    for name in ("fixtures", "sweep", "chain", "bands"):
        for doc in workloads.WORKLOADS[name](403):
            books.append(("%s %s" % (name, doc.name), rebuild(doc.text)))
    for make in FAMILIES:
        books += [("%s %d" % (make.__name__, seed), make(seed))
                  for seed in SEEDS]
    reordered = sum(_check_rename(label, wb) for label, wb in books)
    assert len(books) == 609 and reordered > 300
