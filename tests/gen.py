"""Seeded random workbooks for property tests.

The builder keeps every workbook valid (resolvable names, no formula
range overlaps, recurrences with one sweep direction) but is otherwise
free to produce sloppy shapes, type clashes and deliberate #DIV/0! or
#NULL! results.  Agreement between the engine and the naive oracle is
the property under test, not success.
"""

import random

from namebook.formula import parse_formula
from namebook.values import DIV0_ERROR, VALUE_ERROR
from namebook.workbook import (FORMULA, GridRange, NameDef, RANGE, Workbook,
                               parse_a1, shift_name)

_TEXT_POOL = ("alpha", "Beta", "x y", 'say "hi"', "tab\there", "zz.9",
              "result=42", "")
_SHEET_POOL = ("main", "aux", "deep")


def _literal(rng):
    roll = rng.random()
    if roll < 0.45:
        return float(rng.choice((0, 1, 2, 3, 5, 7, 10, 12, -4, 100)))
    if roll < 0.6:
        return rng.choice((0.5, 1.25, -2.75, 3.141592653589793, 1e-3, 2.5e6))
    if roll < 0.7:
        return rng.choice((True, False))
    if roll < 0.8:
        return rng.choice(_TEXT_POOL)
    if roll < 0.9:
        return None
    return float(rng.randrange(-50, 400))


def _fill(wb, rect, rng, numeric=False):
    sh = wb.sheet(rect.sheet)
    for (r, c) in rect.cells(sh.rows):
        if numeric:
            wb.set_cell(rect.sheet, r, c, float(rng.randrange(-9, 60)))
        else:
            wb.set_cell(rect.sheet, r, c, _literal(rng))


class _Builder:
    def __init__(self, rng):
        self.rng = rng
        self.wb = Workbook()
        self.names = []          # (identifier, scope) in definition order
        self.numeric_names = []  # subset known to hold only numbers
        self.cursors = {}        # sheet -> next free column for formula rows

    def build(self):
        rng = self.rng
        for sheet in _SHEET_POOL[:rng.randrange(1, 4)]:
            self.wb.add_sheet(sheet, rows=rng.randrange(9, 15),
                              cols=rng.randrange(9, 13))
            self.cursors[sheet] = 1
        for _ in range(rng.randrange(2, 6)):
            self._input_range()
        if rng.random() < 0.25:
            self._whole_rows_input()
        for _ in range(rng.randrange(0, 4)):
            self._formula_name()
        if rng.random() < 0.55:
            self._recurrence_band()
        for _ in range(rng.randrange(1, 4)):
            self._formula_range()
        if rng.random() < 0.4:
            self._alias_over_computed()
        return self.wb

    # -- naming helpers ------------------------------------------------

    def _ident(self, prefix):
        n = len(self.names)
        styles = ("%s%d", "%s.%d", "%s_%d")
        ident = self.rng.choice(styles) % (prefix, n)
        if self.rng.random() < 0.15:
            ident += "?"
        return ident

    def _sheet(self):
        return self.rng.choice(sorted(self.wb.sheets))

    def _scope_for(self, sheet):
        return sheet if self.rng.random() < 0.25 else None

    def _register(self, nd, numeric=False):
        self.wb.define_name(nd)
        self.names.append((nd.identifier, nd.scope))
        if numeric:
            self.numeric_names.append((nd.identifier, nd.scope))

    def _ref_text(self, ident, scope):
        if scope is not None:
            return "%s!%s" % (scope, ident)
        return ident

    def _pick_name(self, numeric=False):
        pool = self.numeric_names if numeric and self.numeric_names else self.names
        if not pool:
            return None
        ident, scope = self.rng.choice(pool)
        return self._ref_text(ident, scope)

    def _aside_name(self, band):
        """A numeric name whose cells stay clear of the recurrence band."""
        safe = []
        for ident, scope in self.numeric_names:
            nd = self.wb.names[(scope, ident)]
            if nd.target is not None and nd.target.intersect(band) is not None:
                continue
            safe.append((ident, scope))
        if not safe:
            return None
        return self._ref_text(*self.rng.choice(safe))

    # -- pieces --------------------------------------------------------

    def _input_range(self):
        rng = self.rng
        sheet = self._sheet()
        sh = self.wb.sheet(sheet)
        h = rng.choice((1, 1, 2, 3, 4))
        w = rng.choice((1, 1, 2, 3))
        r0 = rng.randrange(1, 6 - min(4, h) + 1)
        c0 = rng.randrange(1, sh.cols - w + 2)
        rect = GridRange(sheet, c0, c0 + w - 1, r0, r0 + h - 1)
        numeric = rng.random() < 0.6
        _fill(self.wb, rect, rng, numeric=numeric)
        scope = self._scope_for(sheet)
        self._register(NameDef(self._ident("item"), scope, RANGE, rect),
                       numeric=numeric)

    def _whole_rows_input(self):
        # Columns come from the same cursor as formula blocks so a later
        # formula range can never overlap the band and read itself.
        rng = self.rng
        sheet = self._sheet()
        sh = self.wb.sheet(sheet)
        c0 = self.cursors[sheet]
        c1 = c0 + rng.randrange(0, 3)
        if c1 > sh.cols:
            return
        self.cursors[sheet] = c1 + 2
        rect = GridRange(sheet, c0, c1)
        _fill(self.wb, rect, rng, numeric=True)
        self._register(NameDef(self._ident("band"), None, RANGE, rect),
                       numeric=True)

    def _expr_text(self, numeric_only=False):
        rng = self.rng
        a = self._pick_name(numeric=True)
        b = self._pick_name(numeric=numeric_only or rng.random() < 0.7)
        if a is None:
            return "41"
        if b is None:
            b = "2"
        roll = rng.random()
        if roll < 0.3:
            op = rng.choice(("+", "-", "*", "*", "/"))
            return "%s %s %s" % (a, op, b)
        if roll < 0.4:
            return "%s(%s)" % (rng.choice(("SUM", "MIN", "MAX")), a)
        if roll < 0.5:
            return "SUM(%s, %s, 1)" % (a, b)
        if roll < 0.58:
            return "IF(%s > %s, %s, 0 - %s)" % (a, b, a, b)
        if roll < 0.64:
            op = rng.choice(("<", "<=", "=", "<>", ">", ">="))
            return "%s %s %s" % (a, op, b)
        if roll < 0.7 and not numeric_only:
            return '%s & "/" & %s' % (a, b)
        if roll < 0.76:
            return "-%s + %s%%" % (a, b)
        if roll < 0.82:
            return "INDEX(%s, 1)" % a
        if roll < 0.88:
            return "MATCH(MAX(%s), %s, 1)" % (a, a)
        if roll < 0.94:
            return "%s ^ 2 + %s" % (a, b)
        # Intersection operands must be bare names; the grammar keeps a
        # qualified reference out of the whitespace-operator position.
        bare = [i for (i, s) in self.names if s is None]
        if len(bare) >= 2:
            return "%s %s" % tuple(rng.sample(bare, 2))
        return "%s + %s" % (a, b)

    def _formula_name(self):
        text = self._expr_text()
        scope = self._scope_for(self._sheet())
        nd = NameDef(self._ident("calc"), scope, FORMULA,
                     formula=parse_formula(text))
        self._register(nd)

    def _alloc_block(self, h, w):
        """A fresh rectangle in rows 6.., never overlapping other formulas."""
        rng = self.rng
        for sheet in sorted(self.wb.sheets, key=lambda s: rng.random()):
            sh = self.wb.sheet(sheet)
            col = self.cursors[sheet]
            if col + w - 1 <= sh.cols and 6 + h - 1 <= sh.rows:
                self.cursors[sheet] = col + w + 1
                return GridRange(sheet, col, col + w - 1, 6, 6 + h - 1)
        return None

    def _formula_range(self):
        rng = self.rng
        h = rng.choice((1, 1, 2, 3))
        w = rng.choice((1, 2, 3))
        rect = self._alloc_block(h, w)
        if rect is None:
            return
        text = self._expr_text()
        scope = self._scope_for(rect.sheet)
        nd = NameDef(self._ident("outv"), scope, RANGE, rect,
                     formula=parse_formula(text), array=(h * w > 1))
        self._register(nd, numeric=False)

    def _alias_over_computed(self):
        """Name a column of some formula range, then total it; the alias
        must read through to computed cells, not to blank literals."""
        owners = [nd for nd in self.wb.formula_bearing()
                  if not nd.target.is_whole_rows]
        if not owners:
            return
        nd = self.rng.choice(owners)
        t = nd.target
        col = self.rng.randrange(t.col_start, t.col_end + 1)
        rect = GridRange(t.sheet, col, col, t.row_start, t.row_end)
        alias = self._ident("view")
        self._register(NameDef(alias, None, RANGE, rect))
        total = self._ident("seen")
        self._register(NameDef(total, None, FORMULA,
                               formula=parse_formula("SUM(%s)" % alias)))

    def _input_chain(self, band):
        """Head of a chain of 1-3 formula names ending at an input clear of
        band, so a sweep reading it sees a value constant across the sweep
        (an array when the input has several cells)."""
        rng = self.rng
        link = self._aside_name(band)
        if link is None:
            return None
        text = rng.choice(("%s + 1", "MIN(%s) * 2", "%s - 0.5"))
        for _ in range(rng.randrange(1, 4)):
            nd = NameDef(self._ident("calc"), self._scope_for(self._sheet()),
                         FORMULA, formula=parse_formula(text % link))
            self._register(nd)
            link = self._ref_text(nd.identifier, nd.scope)
            text = rng.choice(("%s * 2", "%s + 1", "1 - %s"))
        return link

    def _recurrence_band(self):
        rng = self.rng
        h = rng.choice((1, 2, 3))
        w = rng.randrange(3, 7)
        rect = self._alloc_block(h, w + 2)
        if rect is None:
            return
        sheet = rect.sheet
        band = GridRange(sheet, rect.col_start + 1, rect.col_start + w,
                         rect.row_start, rect.row_start + h - 1)
        init = GridRange(sheet, band.col_start, band.col_end, 1, 1)
        for j, c in enumerate(range(init.col_start, init.col_end + 1)):
            self.wb.set_cell(sheet, 1, c, j == 0)
        seed = GridRange(sheet, rect.col_start, rect.col_start, 2, 2)
        self.wb.set_cell(sheet, 2, seed.col_start,
                         float(rng.randrange(1, 30)))
        init_name = self._ident("start")
        seed_name = self._ident("seed")
        self._register(NameDef(init_name, None, RANGE, init))
        self._register(NameDef(seed_name, None, RANGE, seed), numeric=True)
        band_name = self._ident("roll")
        factor = rng.choice(("1.5", "0.5", "2", "1.01"))
        prev = "←" + band_name
        body = "%s * %s + 1" % (prev, factor)
        roll = rng.random()
        if roll < 0.4:
            extra = self._aside_name(band)
            if extra is not None:
                body = "%s * %s + MIN(%s)" % (prev, factor, extra)
        elif roll < 0.7:
            head = self._input_chain(band)
            if head is not None:
                body = "%s * %s + %s" % (prev, factor, head)
        text = "IF(%s, %s, %s)" % (init_name, seed_name, body)
        nd = NameDef(band_name, None, RANGE, band,
                     formula=parse_formula(text), array=True)
        self.wb.define_name(nd)
        self.wb.define_name(shift_name(nd, prev, 0, -1))
        self.names.append((band_name, None))
        self.numeric_names.append((band_name, None))
        if rng.random() < 0.35:
            helper = self._alloc_block(h, w)
            if helper is not None and helper.sheet == sheet:
                helper = GridRange(sheet, helper.col_start,
                                   helper.col_start + w - 1,
                                   band.row_start, band.row_end)
                hname = self._ident("trail")
                htext = "IF(%s, 0, %s * 2)" % (init_name, prev)
                self.wb.define_name(NameDef(hname, None, RANGE, helper,
                                            formula=parse_formula(htext),
                                            array=True))
                self.names.append((hname, None))


def random_workbook(seed):
    """A small valid workbook, fully determined by the seed."""
    return _Builder(random.Random(seed)).build()


# Slots of a searched vector: duplicates, mixed-case text, bools, blanks and
# an error now and then.  Keys are drawn from the same pool.
_LOOKUP_POOL = (None, 0.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 5.0, 8.0, 8.0, -1.0,
                2.5, 6.0, "a", "A", "b", "B", "", "abc", True, False)
_INDEX_POOL = (0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 1.5, -1.0, 9.0, None,
               True, "2")


def lookup_workbook(seed):
    """MATCH, LOOKUP and INDEX over vectors of every kind of literal,
    fully determined by the seed.

    Sheet d holds the inputs: the column vec (sorted, reversed or
    unsorted), a row, a grid, a column of keys and one of results, and
    two columns of indices.  Sheet o holds formula ranges, among them
    cvec, a computed copy of vec.  Each lookup is a formula name or a
    formula range on o: MATCH in every mode and LOOKUP with Array or
    scalar keys, and INDEX with one or two Array indices."""
    rng = random.Random(seed)
    n = rng.randint(3, 8)
    wb = Workbook().add_sheet("d", n, 10).add_sheet("o", n, 16)

    def slot(pool, error=0.08):
        if rng.random() < error:
            return rng.choice((DIV0_ERROR, VALUE_ERROR))
        return rng.choice(pool)

    # Half the books search plain numbers and blanks, as lookups mostly do.
    pool = _LOOKUP_POOL if rng.random() < 0.5 else _LOOKUP_POOL[:14]
    vec = [slot(pool, rng.choice((0, 0, 0.1))) for _ in range(n)]
    order = rng.random()
    if order < 0.4:
        numbers = iter(sorted(s for s in vec if type(s) is float))
        vec = [next(numbers) if type(s) is float else s for s in vec]
        if order < 0.1:
            vec.reverse()
    columns = {"vec": vec,
               "keys": [slot(_LOOKUP_POOL) for _ in range(n)],
               "res": [slot(_LOOKUP_POOL, 0)
                       for _ in range(rng.randint(1, n))],
               "idx": [slot(_INDEX_POOL, 0.04) for _ in range(n)],
               "idy": [slot(_INDEX_POOL, 0.04) for _ in range(n)]}
    for col, (ident, cells) in enumerate(columns.items(), start=1):
        rect = GridRange("d", col, col, 1, len(cells))
        wb.fill_block(rect, [[s] for s in cells])
        wb.define_name(NameDef(ident, None, RANGE, rect))
    grid = GridRange("d", 6, 8, 1, n)
    wb.fill_block(grid, [[slot(_LOOKUP_POOL, 0.03) for _ in range(3)]
                         for _ in range(n)])
    wb.define_name(NameDef("grid", None, RANGE, grid))
    wb.define_name(NameDef("row", None, RANGE, GridRange("d", 6, 8, 1, 1)))
    wb.define_name(NameDef("cvec", None, RANGE, GridRange("o", 1, 1, 1, n),
                           parse_formula(rng.choice(
                               ("vec * 1", "IF(TRUE, vec, 0)", "-vec",
                                "vec * 1e200 * 1e200"))), array=True))

    vectors = ("vec", "vec", "cvec", "row", "vec * 1", "keys")
    keys = ("keys", "keys", "idx", "cvec", "2", '"a"', "TRUE", "keys * 1")
    modes = ("", ", 1", ", 0", ", 0", ", -1")
    lookups = (
        lambda: "MATCH(%s, %s%s)" % (rng.choice(keys), rng.choice(vectors),
                                     rng.choice(modes)),
        lambda: "LOOKUP(%s, %s, %s)" % (rng.choice(keys),
                                        rng.choice(vectors),
                                        rng.choice(("res", "grid", "cvec"))),
        lambda: "INDEX(%s, %s)" % (rng.choice(("vec", "row", "grid", "cvec",
                                               "vec * 1", "grid * 1")),
                                   rng.choice(("idx", "idy", "idx * 1e200 "
                                               "* 1e200", "idx + 1"))),
        lambda: "INDEX(%s, %s, %s)" % (rng.choice(("grid", "grid * 1",
                                                   "vec")),
                                       rng.choice(("idx", "idx", "2", "0")),
                                       rng.choice(("idy", "idy", "1", "3"))),
        lambda: "INDEX(vec, MATCH(keys, %s, 0))" % rng.choice(vectors),
    )
    col = 2
    for serial in range(rng.randint(3, 7)):
        text = rng.choice(lookups)()
        ident = "look%d" % serial
        h = rng.choice((n, n, n, 1))
        if rng.random() < 0.4:
            wb.define_name(NameDef(ident, None, FORMULA,
                                   formula=parse_formula(text)))
            continue
        wb.define_name(NameDef(ident, None, RANGE,
                               GridRange("o", col, col, 1, h),
                               parse_formula(text), array=h > 1))
        col += 2
    return wb


# The shift of a recurrence band's twin: one cell along one axis.
_STEPS = ((0, -1), (0, 1), (-1, 0), (1, 0))


def recurrence_workbook(seed):
    """One recurrence band on a sheet of literals of every kind, fully
    determined by the seed.

    The band "roll" is 1-3 cells across its sweep and 2-4 along it, and
    reads its twin "←roll", shifted one cell in one of the four
    directions.  Unless an IF guard on "first" takes the first step, that
    step reads the off-band slice: the twin's cells one step past the
    band.  Sometimes the formula range "edge" owns that slice."""
    rng = random.Random(seed)
    dr, dc = rng.choice(_STEPS)
    along, across = rng.randint(2, 4), rng.randint(1, 3)
    h, w = (across, along) if dc else (along, across)
    wb = Workbook().add_sheet("s", h + 4, w + 4).add_sheet("g", h + 1, 2 * w)
    _fill(wb, GridRange("s", 1, w + 4, 1, h + 4), rng)
    band = GridRange("s", 3, w + 2, 3, h + 2)
    first = GridRange("g", 1, w, 1, h)
    for r, c in first.cells():
        step = c - 1 if dc else r - 1
        wb.set_cell("g", r, c, step == (0 if dr + dc < 0 else along - 1))
    wb.set_cell("g", h + 1, 1, float(rng.randrange(1, 30)))
    aside = GridRange("g", w + 1, 2 * w, 1, h)
    _fill(wb, aside, rng, numeric=rng.random() < 0.6)
    for ident, rect in (("first", first), ("aside", aside),
                        ("seed", GridRange("g", 1, 1, h + 1, h + 1))):
        wb.define_name(NameDef(ident, None, RANGE, rect))
    body = rng.choice(("←roll * %s + 1" % rng.choice(("2", "0.5", "1.01")),
                       "←roll + aside", "IF(←roll > 20, ←roll - aside, "
                       "←roll * 2)", '←roll & "+"', "-←roll + 1%",
                       "←roll * 1.5 + SUM(aside)"))
    if rng.random() < 0.5:
        body = "IF(first, seed, %s)" % body
    nd = NameDef("roll", None, RANGE, band, parse_formula(body), array=True)
    wb.define_name(nd)
    twin = shift_name(nd, "←roll", dr, dc)
    wb.define_name(twin)
    if rng.random() < 0.3:
        # The slice, and now and then the line past it too.
        cells = off_band_slice(wb)
        (r1, c1), (r2, c2) = cells[0], cells[-1]
        if rng.random() < 0.5:
            r1, c1 = min(r1, r1 + dr), min(c1, c1 + dc)
            r2, c2 = max(r2, r2 + dr), max(c2, c2 + dc)
        text = rng.choice(("7", "seed * 2", '"t" & seed', "1 / 0"))
        wb.define_name(NameDef("edge", None, RANGE,
                               GridRange("s", c1, c2, r1, r2),
                               parse_formula(text), array=True))
    wb.define_name(NameDef("total", None, FORMULA,
                           formula=parse_formula("SUM(roll)")))
    return wb


def off_band_slice(wb, ident="roll"):
    """The (row, col) cells of a recurrence band's twin that lie outside
    the band, in row-major order."""
    band, twin = (wb.names[None, i].target for i in (ident, "←" + ident))
    return [rc for rc in twin.cells() if not band.contains(*rc)]


def sweep_group_workbook(seed):
    """Two co-swept recurrence bands, "a" and "b", and the formula names
    between them, fully determined by the seed.

    Both bands are 2-4 cells along the sweep, in one of the four
    directions.  "a" is 1-3 cells across it, and "b" as wide or, now and
    then, one cell wide, so that a's reads of b repeat one place.  "a"
    reads ←b, directly or through a chain (g, h) or a diamond (k) of
    formula names, which the sweep inlines; "b" reads "a", ←a or the
    name "ga" over "a", often inside a lazy IF, the only way a narrow
    "b" can read a wider "a" without an error.  Either band may be
    guarded by IF(first, seed, ...), and sometimes the formula range
    "edge" owns a's off-band slice."""
    rng = random.Random(seed)
    dr, dc = rng.choice(_STEPS)
    n, width = rng.randint(2, 4), rng.randint(1, 3)
    thin = width if rng.random() < 0.6 else 1

    def rect(sheet, s0, p0, places, steps=n):
        """The rectangle of `steps` steps from step s0 and `places`
        places from place p0, both counted from 1."""
        rows, cols = (p0, p0 + places - 1), (s0, s0 + steps - 1)
        if not dc:
            rows, cols = cols, rows
        return GridRange(sheet, *cols, *rows)

    places = 7 + width + thin
    wb = Workbook()
    for sheet, steps, across in (("s", n + 4, places),
                                 ("g", n, 2 * width + 2)):
        wb.add_sheet(sheet, *((across, steps) if dc else (steps, across)))
    _fill(wb, rect("s", 1, 1, places, n + 4), rng, rng.random() < 0.7)
    first = 1 if dr + dc < 0 else n
    for step in range(1, n + 1):
        wb.set_cell("g", *((1, step) if dc else (step, 1)), step == first)
    consts = {"first": rect("g", 1, 1, 1), "aside": rect("g", 1, 2, width),
              "line": rect("g", 1, 2 + width, width, 1),
              "seed": rect("g", 1, 2 * width + 2, 1, 1)}
    for ident, target in consts.items():
        if ident != "first":
            _fill(wb, target, rng, numeric=True)
        wb.define_name(NameDef(ident, None, RANGE, target))
    scalars = ["seed", "2", "0.5", "SUM(line)"]
    blocks = scalars + ["aside", "line"]

    def expr(*pools):
        text = " ".join(rng.choice(pool) + rng.choice((" +", " -", " *"))
                        for pool in pools)
        return text + " " + rng.choice(scalars)

    formulas = {"g": expr(["←b"], ["←a"] + scalars),
                "h": rng.choice(("g * 2 + ←a", "g - 1", "-g + seed")),
                "k": rng.choice(("g + h", "IF(g > h, g, h)", "h / g")),
                "ga": rng.choice(("a * 0.5 + ←b", "a + 1"))}
    a_body = expr(["←b", "g", "h", "k"], ["←a"] + blocks)
    reach = rng.choice(("a", "←a", "ga"))
    own = expr(["←b", "g", "←b * ←b"],
               blocks if thin == width else scalars)
    if thin < width or rng.random() < 0.5:
        b_body = "IF(←b > %d, %s, %s)" % (rng.randrange(0, 40), reach, own)
    else:
        b_body = "%s + %s" % (reach, own)
    for ident, p0, w, body in (("a", 3, width, a_body),
                               ("b", 5 + width, thin, b_body)):
        if rng.random() < 0.5:
            body = "IF(first, seed, %s)" % body
        nd = NameDef(ident, None, RANGE, rect("s", 3, p0, w),
                     parse_formula(body), array=True)
        wb.define_name(nd)
        wb.define_name(shift_name(nd, "←" + ident, dr, dc))
    for ident, text in formulas.items():
        wb.define_name(NameDef(ident, None, FORMULA,
                               formula=parse_formula(text)))
    if rng.random() < 0.25:
        step = 2 if dr + dc < 0 else n + 3
        wb.define_name(NameDef("edge", None, RANGE,
                               rect("s", step, 3, width, 1),
                               parse_formula(rng.choice(("7", "seed * 2"))),
                               array=True))
    return wb
