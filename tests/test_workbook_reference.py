"""parse_a1 and define_name agree with the old ones kept in
workbook_reference.py: every A1 text gives an equal range or the same
exception class and message, and every sequence of definitions accepts
the same names, refuses the others with the same error text, and leaves
an owner index that answers every query alike."""

import random

import pytest

import workbook_reference as ref
from namebook.formula import parse_formula
from namebook.workbook import (FORMULA, RANGE, GridRange, NameDef,
                               OverlappingFormulaRangeError, Workbook,
                               parse_a1)


def _outcome(call, *args):
    try:
        return ("ok", repr(call(*args)))
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return (type(exc), str(exc))


_A1_CASES = (
    "A1", "a1", "$A$1", "A$1", "$a1", "F5:X16", "X16:F5", "F16:X5", "x5:f16",
    "F:X", "X:F", "$F:$X", "f:x", "C3", "C3:C3", "ZZZ9999999", "AAAA1",
    "A12345678", "A0", "A0:B2", "A00001:B2", "A1:B", "A:B1", "A", "F:", ":X",
    ":", "", "A1:", ":A1", "A1:B2:C3", "A1::B2", "$", "$$A1", "A$$1", "1A",
    "A1 ", " A1", "A1\n", "A1\n:B2", "A1:B2\n", "A1\n\n", "A\n", "A:B\n",
    "A\n:B", "\nA1", "ſ1", "ı1:K2", "İ1", "é1", "A٣", "A1:B²", "A-1",
)


def _random_a1(rng):
    def corner():
        col = "".join(rng.choice("AbZzſıKİé$")
                      for _ in range(rng.choice((0, 1, 1, 2, 3, 4))))
        row = "".join(rng.choice("0123456789")
                      for _ in range(rng.choice((0, 1, 2, 7, 8))))
        out = rng.choice(("", "$")) + col + rng.choice(("", "", "$")) + row
        return out + rng.choice(("",) * 8 + ("\n", " ", "\n\n"))
    return ":".join(corner() for _ in range(rng.choice((1, 2, 2, 2, 3))))


def test_parse_a1_matches_the_reference():
    rng = random.Random(20)
    texts = list(_A1_CASES) + [_random_a1(rng) for _ in range(20_000)]
    kinds = set()
    for text in texts:
        want = _outcome(ref.parse_a1, "s", text)
        assert _outcome(parse_a1, "s", text) == want, text
        kinds.add(want[0] if want[0] != "ok" else
                  ("ok", "whole" if "None" in want[1] else "rect"))
    # Whole columns, rectangles, bad texts and rows of 0 all came up.
    assert kinds == {("ok", "whole"), ("ok", "rect"), ValueError}
    assert any(_outcome(ref.parse_a1, "s", t)[1] == "rows are 1-based"
               for t in texts)


_SHEETS = (("s", 12, 9), ("t", 5, 4))


def _target(rng):
    """A 1xN row, an Nx1 column, a whole-column band or a rectangle,
    sometimes reaching past its sheet's edge."""
    sheet, rows, cols = rng.choice(_SHEETS)
    c1 = rng.randint(1, cols)
    r1 = rng.randint(1, rows)
    shape = rng.random()
    if shape < 0.35:
        return GridRange(sheet, c1, c1 + rng.randint(0, 4), r1, r1)
    if shape < 0.7:
        return GridRange(sheet, c1, c1, r1, r1 + rng.randint(0, 5))
    if shape < 0.85:
        return GridRange(sheet, c1, c1 + rng.randint(0, 1))
    return GridRange(sheet, c1, c1 + rng.randint(0, 2), r1,
                     r1 + rng.randint(0, 2))


_ONE = parse_formula("1")


def _candidate(rng, k):
    ident = "name%d" % rng.randrange(k + 1)  # now and then a duplicate
    scope = rng.choice((None, None, None, "s", "t"))
    roll = rng.random()
    if roll < 0.75:
        return NameDef(ident, scope, RANGE, _target(rng), formula=_ONE)
    if roll < 0.9:
        return NameDef(ident, scope, RANGE, _target(rng))
    return NameDef(ident, scope, FORMULA, formula=_ONE)


def _change(rng, books):
    """The same rebind, sheet deletion or sheet re-creation on each book."""
    wb = books[0]
    roll = rng.random()
    if roll < 0.5 and wb.names:
        scope, ident = rng.choice(sorted(wb.names, key=repr))
        target = _target(rng)
        got, want = (_outcome(book.rebind_name, ident, scope, target)[0]
                     for book in books)
        assert got == want
    elif roll < 0.75:
        name, rows, cols = rng.choice(_SHEETS)
        for book in books:
            if name in book.sheets:
                book.delete_sheet(name)
            book.add_sheet(name, rows, cols)


@pytest.mark.parametrize("seed", range(6))
def test_define_name_matches_the_reference(seed):
    rng = random.Random(seed)
    refused = accepted = 0
    for _ in range(60):
        books = [Workbook(), ref.ReferenceWorkbook()]
        for book in books:
            for sheet in _SHEETS:
                book.add_sheet(*sheet)
        for k in range(rng.randint(5, 40)):
            if rng.random() < 0.08:
                _change(rng, books)
                continue
            nd = _candidate(rng, k)
            got, want = (_outcome(book.define_name, nd) for book in books)
            assert got[0] == want[0] and (got[0] == "ok" or got == want), \
                (seed, k, nd)
            accepted += want[0] == "ok"
            refused += want[0] is OverlappingFormulaRangeError
        new, old = books
        assert list(new.names) == list(old.names)
        for _ in range(20):
            query = _target(rng)
            assert new.formula_owners(query) == old.formula_owners(query)
    assert accepted > 300 and refused > 100


def test_an_overlap_names_the_earliest_defined_owner():
    # The candidate covers two owners; the one defined first is named,
    # though the other's column comes first.
    for book in (Workbook(), ref.ReferenceWorkbook()):
        book.add_sheet("s", 9, 9)
        book.define_name(NameDef("right.first", None, RANGE,
                                 GridRange("s", 5, 5, 1, 3), formula=_ONE))
        book.define_name(NameDef("left.second", None, RANGE,
                                 GridRange("s", 2, 2, 2, 2), formula=_ONE))
        with pytest.raises(OverlappingFormulaRangeError) as info:
            book.define_name(NameDef("wide", None, RANGE,
                                     GridRange("s", 1, 6, 2, 2),
                                     formula=_ONE))
        assert str(info.value) == "wide overlaps formula range right.first"
