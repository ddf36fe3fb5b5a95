"""Names documents written and read by the benchmark itself.

The benchmark must not trust the engine to describe its own inputs, so
this module writes canonical documents directly (the same layout
`export_doc` produces) and reads any document back into a plain `Model`
with a few regular expressions.  The model is what the output checks
compare against: expected audit listings, lint findings and focus
graphs are all derived here, never from the package under test.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

HEADER = "#%NAMESDOC v1"


# --- A1 rectangles -----------------------------------------------------------

def col_letters(n: int) -> str:
    out = ""
    while n > 0:
        n, rem = divmod(n - 1, 26)
        out = chr(65 + rem) + out
    return out


def col_number(letters: str) -> int:
    n = 0
    for ch in letters.upper():
        n = n * 26 + ord(ch) - 64
    return n


@dataclass(frozen=True)
class Rect:
    """1-based inclusive rectangle; r1 = r2 = None is a whole-column band."""
    sheet: str
    c1: int
    c2: int
    r1: int | None = None
    r2: int | None = None

    def address(self) -> str:
        if self.r1 is None:
            body = "%s:%s" % (col_letters(self.c1), col_letters(self.c2))
        else:
            a = "%s%d" % (col_letters(self.c1), self.r1)
            b = "%s%d" % (col_letters(self.c2), self.r2)
            body = a if a == b else a + ":" + b
        return "%s!%s" % (self.sheet, body)

    def bounded(self, sheet_rows: int) -> "Rect":
        if self.r1 is not None:
            return self
        return Rect(self.sheet, self.c1, self.c2, 1, sheet_rows)

    def shape(self, sheet_rows: int):
        b = self.bounded(sheet_rows)
        return (b.r2 - b.r1 + 1, b.c2 - b.c1 + 1)

    def overlaps(self, other: "Rect", sheet_rows: int) -> bool:
        a, b = self.bounded(sheet_rows), other.bounded(sheet_rows)
        return (a.sheet == b.sheet and a.c1 <= b.c2 and b.c1 <= a.c2
                and a.r1 <= b.r2 and b.r1 <= a.r2)


_A1 = re.compile(r"^([A-Z]+)(\d+)?(?::([A-Z]+)(\d+)?)?$")


def parse_rect(address: str) -> Rect:
    sheet, body = address.split("!", 1)
    m = _A1.match(body)
    if not m:
        raise ValueError("bad rectangle %r" % address)
    c1, r1, c2, r2 = m.groups()
    c2 = c2 or c1
    if r1 is None:
        return Rect(sheet, col_number(c1), col_number(c2))
    r2 = r2 or r1
    return Rect(sheet, col_number(c1), col_number(c2), int(r1), int(r2))


# --- literal text ------------------------------------------------------------

def number_text(x: float) -> str:
    """Shortest text that reads back as exactly this double."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def field_text(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    if isinstance(v, float):
        return number_text(v)
    raise TypeError("the benchmark writes no %r literals" % (v,))


def field_value(text: str):
    if text == "":
        return None
    if text in ("TRUE", "FALSE"):
        return text == "TRUE"
    if text.startswith('"'):
        return text[1:-1]
    return float(text)


# --- writer ------------------------------------------------------------------

class DocWriter:
    """Collects sheets, names and literal blocks; `text()` lays them out
    in canonical order: sheets as declared, names by (scope, id), data
    blocks by address."""

    def __init__(self):
        self.sheets = []
        self.names = []
        self.blocks = {}

    def sheet(self, name: str, rows: int, cols: int):
        self.sheets.append((name, rows, cols))

    def range(self, ident, target: Rect, formula=None, scope=None,
              derive=None, data=None):
        """A range name.  Inputs (no formula) need `data`, one list per
        grid row, or get an all-blank block."""
        self.names.append((scope or "workbook", ident, "range",
                           formula is not None, target, derive, formula))
        if formula is None:
            rows = dict((n, r) for n, r, _ in self.sheets)[target.sheet]
            h, w = target.shape(rows)
            self.blocks[target.address()] = data or [[None] * w] * h

    def formula(self, ident, formula, scope=None):
        self.names.append((scope or "workbook", ident, "formula", False,
                           None, None, formula))

    def text(self) -> str:
        lines = [HEADER]
        lines += ["[SHEET] %s rows=%d cols=%d" % s for s in self.sheets]
        for scope, ident, kind, array, target, derive, formula in sorted(
                self.names, key=lambda n: (n[0], n[1])):
            lines.append("[NAME] scope=%s id=%s kind=%s array=%d"
                         % (scope, ident, kind, array))
            if target is not None:
                lines.append("  target=%s" % target.address())
            if derive is not None:
                lines.append("  derive=shift(%s,%d,%d)" % derive)
            if formula is not None:
                lines.append("  formula=%s" % formula)
        for addr in sorted(self.blocks):
            lines.append("[DATA] %s" % addr)
            lines += ["\t".join(field_text(v) for v in row)
                      for row in self.blocks[addr]]
        return "\n".join(lines) + "\n"


# --- reader ------------------------------------------------------------------

@dataclass
class Name:
    scope: str | None
    ident: str
    target: Rect | None
    formula: str | None
    derive: tuple | None
    refs: list = field(default_factory=list)   # resolved (scope, ident) keys

    @property
    def key(self):
        return (self.scope, self.ident)

    @property
    def display(self) -> str:
        return self.ident if self.scope is None else "%s!%s" % (self.scope,
                                                              self.ident)


@dataclass
class Model:
    sheets: dict          # name -> (rows, cols)
    names: dict           # (scope, ident) -> Name
    cells: dict           # (sheet, row, col) -> literal

    def rows(self, sheet: str) -> int:
        return self.sheets[sheet][0]

    def base(self, nd: Name):
        """Key of the name a derived (displaced) name was shifted from,
        resolved in the derived name's own scope."""
        key = (nd.scope, nd.derive[0])
        return key if key in self.names else (None, nd.derive[0])


_NAME_LINE = re.compile(r"^\[NAME\] scope=(\S+) id=(\S+) kind=\S+ array=\d$")
# An identifier, optionally sheet-qualified, that is not a function call.
_REF = re.compile(r"(?<![\w.←])(?:([A-Za-z][\w.]*)!)?([A-Za-z←][\w.]*\??)"
                  r"(?![\w.?])(?!\s*\()")


def read_doc(text: str) -> Model:
    sheets, names, cells = {}, {}, {}
    lines = text.split("\n")[1:]
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.startswith("[SHEET] "):
            name, rows, cols = line.split()[1:]
            sheets[name] = (int(rows[5:]), int(cols[5:]))
        elif line.startswith("[NAME] "):
            scope, ident = _NAME_LINE.match(line).groups()
            fields = {}
            while i < len(lines) and lines[i].startswith("  "):
                k, v = lines[i][2:].split("=", 1)
                fields[k] = v
                i += 1
            derive = None
            if "derive" in fields:
                base, dr, dc = fields["derive"][6:-1].split(",")
                derive = (base, int(dr), int(dc))
            target = fields.get("target")
            nd = Name(None if scope == "workbook" else scope, ident,
                      parse_rect(target) if target else None,
                      fields.get("formula"), derive)
            names[nd.key] = nd
        elif line.startswith("[DATA] "):
            rect = parse_rect(line[7:]).bounded(
                sheets[line[7:].split("!")[0]][0])
            for r in range(rect.r1, rect.r2 + 1):
                for j, f in enumerate(lines[i].split("\t")):
                    if f:
                        cells[(rect.sheet, r, rect.c1 + j)] = field_value(f)
                i += 1
    model = Model(sheets, names, cells)
    for nd in names.values():
        if nd.formula is not None:
            nd.refs = sorted({_resolve(model, nd, q, ident)
                              for q, ident in _REF.findall(nd.formula)
                              if ident not in ("TRUE", "FALSE")},
                             key=lambda k: (k[1], k[0] or ""))
    return model


def _resolve(model: Model, nd: Name, qualifier: str, ident: str):
    where = qualifier or nd.scope or (nd.target.sheet if nd.target else None)
    if (where, ident) in model.names:
        return (where, ident)
    if (None, ident) in model.names:
        return (None, ident)
    raise ValueError("%s reads undeclared %s" % (nd.display, ident))


# --- what the audit views must show ------------------------------------------

def expected_lint(model: Model) -> list:
    """N3 and N4 findings, as `namebook lint` prints them with no
    --output exemptions.  The benchmark's documents plant no N1, N2 or
    N5 cases."""
    ordered = sorted(model.names.values(),
                     key=lambda n: (n.ident, n.scope or ""))
    found = []
    inputs = [n for n in ordered if n.formula is None and n.target]
    for i, a in enumerate(inputs):
        for b in inputs[i + 1:]:
            if a.target.overlaps(b.target, model.rows(a.target.sheet)):
                found.append(("N3", "warning", a.display,
                              "input ranges %s and %s overlap"
                              % (a.display, b.display)))
    read = {k for n in ordered for k in n.refs}
    read |= {model.base(n) for n in ordered if n.derive}
    found += [("N4", "warning", n.display, "name is never referenced")
              for n in ordered if n.key not in read]
    found.sort(key=lambda f: (f[0], f[2], f[3]))
    return ["\t".join(f) for f in found]


def _place(model: Model, nd: Name):
    h, w = nd.target.shape(model.rows(nd.target.sheet))
    return "%s %dx%d" % (nd.target.address(), h, w)


def listing_plan(model: Model):
    """(input lines, {formula line: lines of the formulas it reads})."""
    inputs = sorted("%s := %s" % (n.display, _place(model, n))
                    for n in model.names.values() if n.formula is None)
    line = {}
    for n in model.names.values():
        if n.formula is not None:
            line[n.key] = ("%s = %s  @ %s" % (n.display, n.formula,
                                               _place(model, n))
                           if n.target else "%s = %s" % (n.display, n.formula))
    deps = {line[n.key]: sorted(line[k] for k in n.refs
                                if k in line and k != n.key)
            for n in model.names.values() if n.key in line}
    return inputs, deps


def check_listing(text: str, plan) -> bool:
    inputs, deps = plan
    lines = text.splitlines()
    head, tail = lines[:len(inputs)], lines[len(inputs):]
    if sorted(head) != inputs or sorted(tail) != sorted(deps):
        return False
    seen = set()
    for line in tail:
        if any(d not in seen for d in deps[line]):
            return False
        seen.add(line)
    return True


def _dot_quote(text: str) -> str:
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def _recurrent(model: Model, reader: Name, read: Name) -> bool:
    """A displaced self-read: the read range is the reader's own range
    moved on the same sheet, and the two overlap."""
    a, b = reader.target, read.target
    if a is None or b is None or a.sheet != b.sheet or a == b:
        return False
    if (a.r1 is None) != (b.r1 is None) or a.c2 - a.c1 != b.c2 - b.c1:
        return False
    if a.r1 is not None and a.r2 - a.r1 != b.r2 - b.r1:
        return False
    return a.overlaps(b, model.rows(a.sheet))


def expected_dot(model: Model, focus: tuple, radius: int) -> str:
    """`namebook audit graph --focus F --radius R` output, from the
    model's own reference lists."""
    readers = {}
    for n in model.names.values():
        for k in n.refs:
            readers.setdefault(k, []).append(n.key)
    edges = set()
    seen = {focus}
    for step, forward in ((lambda u: model.names[u].refs, True),
                          (lambda u: readers.get(u, ()), False)):
        frontier, reached = [focus], {focus}
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for v in step(u):
                    edges.add((u, v) if forward else (v, u))
                    if v not in reached:
                        reached.add(v)
                        nxt.append(v)
            frontier = nxt
        seen |= reached
    disp = {k: model.names[k].display for k in seen}
    lines = ["digraph names {", "  rankdir=LR;"]
    for k in sorted(seen, key=lambda k: disp[k]):
        n = model.names[k]
        note = n.formula if n.formula is not None else n.target.address()
        label = "%s\\n%s" % (disp[k], note.replace("\\", "\\\\")
                                          .replace('"', '\\"'))
        lines.append("  %s [shape=%s, label=\"%s\"];"
                     % (_dot_quote(disp[k]),
                        "box" if k == focus else "ellipse", label))
    for u, v in sorted(edges, key=lambda e: (disp[e[0]], disp[e[1]])):
        dashed = _recurrent(model, model.names[u], model.names[v])
        lines.append("  %s -> %s%s;" % (_dot_quote(disp[v]),
                                         _dot_quote(disp[u]),
                                         " [style=dashed]" if dashed else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- evaluated values --------------------------------------------------------

def same_scalar(want, got) -> bool:
    return type(want) is type(got) and want == got


def tsv_value(text: str):
    if text in ("", "TRUE", "FALSE"):
        return field_value(text)
    try:
        return float(text)
    except ValueError:
        return text


def tsv_mismatches(text: str, want: dict) -> int:
    """Cells of `namebook eval` TSV output that differ from `want`
    (display -> grid of scalars).  Numbers are read back with float()
    and compared exactly; a missing or extra block counts once."""
    blocks, current = {}, None
    for line in text.split("\n")[:-1]:
        if line.startswith("# "):
            display = line[2:].rsplit(" ", 1)[0]
            current = blocks.setdefault(display, [])
        else:
            current.append([tsv_value(f) for f in line.split("\t")])
    bad = len(set(blocks) ^ set(want))
    for display, grid in want.items():
        got = blocks.get(display)
        if got is None:
            continue
        if len(got) != len(grid) or any(len(a) != len(b)
                                        for a, b in zip(got, grid)):
            bad += 1
            continue
        bad += sum(not same_scalar(w, g) for wr, gr in zip(grid, got)
                   for w, g in zip(wr, gr))
    return bad
