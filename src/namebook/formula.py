"""Formula language: lexer, parser, canonical renderer.

Grammar (loosest to tightest binding):

    compare   :=  concat (("=" | "<>" | "<" | "<=" | ">" | ">=") concat)*
    concat    :=  additive ("&" additive)*
    additive  :=  multiplicative (("+" | "-") multiplicative)*
    multiplicative := power (("*" | "/") power)*
    power     :=  unary ("^" unary)*
    unary     :=  "-" unary | postfix
    postfix   :=  intersect "%"*
    intersect :=  primary (INTERSECT primary)*
    primary   :=  number | text | bool | name | sheet "!" name
               |  cellref | call | "(" compare ")"

All binary operators associate left.  Unary minus binds tighter than "^"
(so -2 ^ 2 is 4) and looser than "%".  Range intersection is written as
whitespace between two reference terms and binds tightest of all.

The lexer is one compiled pattern, _TOKEN, with one alternative per token
class, run over the formula once by finditer; an identifier of ASCII
characters needs no check after its match.  tokenize makes plain (kind,
lexeme, start, end) tuples, which parse_formula hands straight to the
parser.  The parser climbs precedence (Pratt, "Top Down Operator
Precedence", POPL 1973): one loop reads every binary operator at a given
binding level or tighter from _BINARY_LEVEL, the table render also uses
to decide where parentheses go, and recurses once for each right
operand.  Both do a small, fixed amount of Python work per token, and
each tree node is a slot record (values.Record) built by one plain
__init__.  A character-at-a-time lexer and a recursive-descent parser
with one method per level, which they must match token for token, tree
for tree and error for error, are kept in tests/formula_reference.py.

Parentheses, call arguments and unary minus signs nest at most
MAX_NESTING levels and the expression tree is at most MAX_DEPTH levels
deep; a deeper formula is a ParseError, which keeps the parser and every
later walk of the tree well inside Python's recursion limit.

Identifiers: first character a letter or "←", then letters, digits,
"." and "_", with one optional trailing "?".  A candidate identifier that
matches the A1 cell-reference pattern (like J16 or $F$5) or the column-range
pattern (like $F:$X) lexes as a cell reference instead; those exist only so
legacy formulas can be parsed and linted, and never name anything.
"""

from __future__ import annotations

import math
import re
from enum import Enum, auto

from .values import TEXT, Record


class LexError(ValueError):
    def __init__(self, offset, reason):
        super().__init__("offset %d: %s" % (offset, reason))
        self.offset = offset
        self.reason = reason


class ParseError(ValueError):
    def __init__(self, offset, expected, found):
        super().__init__("offset %d: expected %s, found %s" % (offset, expected, found))
        self.offset = offset
        self.expected = expected
        self.found = found


class TokenKind(Enum):
    NUMBER = auto()
    TEXT = auto()
    BOOL = auto()
    IDENT = auto()
    SHEET_QUAL = auto()   # identifier with a trailing "!"
    CELLREF = auto()
    OP = auto()
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()
    INTERSECT = auto()    # whitespace between two reference-producing tokens


(_NUMBER, _TEXT, _BOOL, _IDENT, _SHEET_QUAL, _CELLREF, _OP, _LPAREN, _RPAREN,
 _COMMA, _INTERSECT) = TokenKind

ARROW = "←"
MAX_NESTING = 64
MAX_DEPTH = 256

_CELLREF_PATTERN = (
    r"\$?[A-Za-z]{1,3}\$?[0-9]{1,7}(?::\$?[A-Za-z]{1,3}\$?[0-9]{1,7})?"
    r"|\$?[A-Za-z]{1,3}:\$?[A-Za-z]{1,3}")
NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
# \w is str.isalnum() or "_", which also takes numeric characters that
# are neither letters nor digits ("½"), and [^\W\d_] takes digits that
# are not decimal ("²"); _ident_cut trims those from non-ASCII names.
_IDENT_PATTERN = r"(?:[^\W\d_]|" + ARROW + r")[\w.]*\??"
_IDENT_RE = re.compile(_IDENT_PATTERN)
# Whole-lexeme form, used to reject candidate defined names that read as refs.
_CELLREF_FULL = re.compile(r"^(?:%s)$" % _CELLREF_PATTERN)
# A reference whose every corner is absolute (CellRef.is_relative).
_ABSOLUTE = re.compile(r"\$[A-Z]{1,3}(?:\$[0-9]{1,7})?"
                       r"(?::\$[A-Z]{1,3}(?:\$[0-9]{1,7})?)*")

# One alternative per token class.  A letter starts a cell reference when
# the reference holds a "$" or ":" (an identifier stops there) or when no
# identifier character follows it, so the longer reading wins.  An
# identifier of ASCII characters that is no sheet qualifier is an IDENT
# as it stands; any other ("name") is checked by tokenize.  A text
# literal must not close on the first quote of a doubled pair.  No
# alternative starts with a blank, so the leading blanks never backtrack
# into a token.
_TOKEN = re.compile(r"""[ \t]*(?:
    (?P<OP><=|>=|<>|[-+*/^&=<>%%])
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,)
  | (?P<CELLREF>(?=\$|[A-Za-z]{1,3}[$:]|[A-Za-z]{1,3}[0-9]{1,7}:)(?:%s)
               |[A-Za-z]{1,3}[0-9]{1,7}(?![\w.?]))
  | (?P<BOOL>(?i:TRUE|FALSE)(?![\w.?]))
  | (?P<IDENT>[A-Za-z][A-Za-z0-9._]*(?:\?(?!!)|(?![\w.!?])))
  | (?P<name>%s!?)
  | (?P<NUMBER>%s)
  | (?P<TEXT>"(?:[^"]|"")*"(?!"))
  | (?P<bad>[^ \t]))""" % (_CELLREF_PATTERN, _IDENT_PATTERN, NUMBER_RE.pattern),
                    re.VERBOSE | re.DOTALL)

# TokenKind by group number; None for the "name" and "bad" groups.
_GROUP_KIND = {number: TokenKind.__members__.get(name)
               for name, number in _TOKEN.groupindex.items()}
_NAME_GROUP = _TOKEN.groupindex["name"]
# What tokenize skips before the first token: blanks, "{" and "=".
_PREFIX = re.compile(r"[ \t]*(?:(\{)[ \t]*)?=?")
_BOOLS = ("TRUE", "FALSE")
_REF_LEFT = (_IDENT, _CELLREF, _RPAREN)
_REF_RIGHT = (_IDENT, _CELLREF)


def _ident_cut(name: str) -> int:
    """Length of the identifier that starts name, reading letters and
    digits as str.isalpha and str.isdigit do."""
    if not (name[0].isalpha() or name[0] == ARROW):
        return 0
    return next((i for i, ch in enumerate(name) if i and not (
        ch.isalpha() or ch.isdigit() or ch in "._?")), len(name))


def is_identifier(text: str) -> bool:
    """True when text is a legal defined name."""
    return (_IDENT_RE.fullmatch(text) is not None
            and (text.isascii() or _ident_cut(text) == len(text))
            and not _CELLREF_FULL.match(text)
            and text.upper() not in _BOOLS)


def col_to_index(letters: str) -> int:
    """1-based column number of column letters: A is 1, AA is 27."""
    n = 0
    for ch in letters.upper():
        n = n * 26 + (ord(ch) - 64)
    return n


def tokenize(text: str) -> list[tuple]:
    """Lex a formula into (kind, lexeme, start, end) tuples.  A leading "="
    or surrounding "{=...}" is tolerated."""
    pos = 0
    end_limit = len(text)
    if text[:1] in " \t{=":
        m = _PREFIX.match(text)
        if m.group(1):
            close = text.rstrip()
            if not close.endswith("}"):
                raise LexError(m.start(1), "unmatched '{'")
            end_limit = len(close) - 1
        pos = m.end()
    tokens = []
    append = tokens.append
    prev_end, prev_kind = pos, None
    for m in _TOKEN.finditer(text, pos, end_limit):
        group = m.lastindex
        start, end = m.span(group)
        lexeme = text[start:end]
        kind = _GROUP_KIND[group]
        if kind is None:
            if group != _NAME_GROUP:
                raise LexError(start, "unterminated text literal"
                               if lexeme == '"' else
                               "unexpected character %r" % lexeme)
            name = lexeme[:-1] if lexeme[-1] == "!" else lexeme
            if not name.isascii() and (cut := _ident_cut(name)) < len(name):
                raise LexError(start + cut, "unexpected character %r"
                               % name[cut])
            kind = _IDENT if name is lexeme else _SHEET_QUAL
        if start > prev_end and prev_kind in _REF_LEFT and kind in _REF_RIGHT:
            append((_INTERSECT, text[prev_end:start], prev_end, start))
        append((kind, lexeme, start, end))
        prev_end, prev_kind = end, kind
    return tokens


# --- AST ---------------------------------------------------------------------

class Expr(Record):
    __slots__ = ()


class NumberLit(Expr):
    __slots__ = ("value",)
    def __init__(self, value: float):
        self.value = value


class TextLit(Expr):
    __slots__ = ("value",)
    def __init__(self, value: str):
        self.value = value


class BoolLit(Expr):
    __slots__ = ("value",)
    def __init__(self, value: bool):
        self.value = value


class NameRef(Expr):
    __slots__ = ("name", "sheet")
    def __init__(self, name: str, sheet: str | None = None):
        self.name, self.sheet = name, sheet


class CellRef(Expr):
    """A1-style reference kept only so legacy formulas parse and lint."""

    __slots__ = ("ref", "sheet")
    def __init__(self, ref: str, sheet: str | None = None):
        self.ref, self.sheet = ref, sheet

    @property
    def is_relative(self) -> bool:
        """True when any row or column component lacks an absolute marker."""
        return _ABSOLUTE.fullmatch(self.ref) is None


class Unary(Expr):
    __slots__ = ("op", "operand")
    def __init__(self, op: str, operand: Expr):
        self.op, self.operand = op, operand


class Binary(Expr):
    __slots__ = ("op", "lhs", "rhs")
    def __init__(self, op: str, lhs: Expr, rhs: Expr):
        self.op, self.lhs, self.rhs = op, lhs, rhs


class Intersect(Expr):
    __slots__ = ("lhs", "rhs")
    def __init__(self, lhs: Expr, rhs: Expr):
        self.lhs, self.rhs = lhs, rhs


class Percent(Expr):
    __slots__ = ("operand",)
    def __init__(self, operand: Expr):
        self.operand = operand


class Call(Expr):
    __slots__ = ("func", "args")
    def __init__(self, func: str, args: tuple = ()):
        self.func, self.args = func, args


_CORNER = re.compile(r"\$?([A-Z]{1,3})\$?([0-9]{1,7})?")


def _normalize_cellref(lexeme: str) -> str:
    """Uppercase and order a reference's corners canonically."""
    text = lexeme.upper()
    if ":" not in text:
        return text
    a, b = text.split(":")

    def key(part):
        col, row = _CORNER.fullmatch(part).groups()
        return (col_to_index(col), int(row) if row else 0)

    if key(a) > key(b):
        a, b = b, a
    return a + ":" + b


# Binding levels, loosest first; the parser and render share them.
_BINARY_LEVEL = {"=": 1, "<>": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
                 "&": 2, "+": 3, "-": 3, "*": 4, "/": 4, "^": 5}
_LEVEL_UNARY, _LEVEL_PERCENT, _LEVEL_INTERSECT, _LEVEL_PRIMARY = 6, 7, 8, 9
_NODE_LEVEL = {Unary: _LEVEL_UNARY, Percent: _LEVEL_PERCENT,
               Intersect: _LEVEL_INTERSECT}


def _fail(tok, expected):
    kind, lexeme, start, _ = tok
    raise ParseError(start, expected, "end of formula"
                     if kind is None else repr(lexeme))


_TOO_DEEP = "at most %d levels of nesting" % MAX_NESTING


def parse(tokens: list[tuple]) -> Expr:
    """The expression tree of a list of tokenize's (kind, lexeme, start,
    end) tuples, by precedence climbing.

    The list gets a sentinel of kind None and empty lexeme where the
    formula ends.  Only OP tokens have a lexeme that is a key of
    _BINARY_LEVEL or equals "-" or "%", so lexemes alone pick operators,
    and the sentinel reads as binding level 0, which ends every loop."""
    if not tokens:
        raise ParseError(0, "a formula", "end of formula")
    end = tokens[-1][3]
    toks = tokens + [(None, "", end, end)]
    e, pos = _binary(toks, 0, 1, 0)
    if toks[pos][0] is not None:
        _fail(toks[pos], "end of formula")
    # A tree has no more levels than the formula has tokens.
    if (len(tokens) > MAX_DEPTH
            and max(level for _, level in walk(e)) > MAX_DEPTH):
        raise ParseError(0, "an expression at most %d levels deep"
                         % MAX_DEPTH, "a deeper one")
    return e


def _binary(toks, pos, floor, nesting):
    """The expression that starts at toks[pos] and whose binary operators
    bind at floor or tighter, with the position after it.  nesting counts
    the parentheses, arguments and minus signs open around it.  One call
    reads the minus signs, the primaries joined by INTERSECT, the "%"
    signs and the binary operators at floor or tighter, left to right.
    It recurses for a parenthesis, an argument, and each right operand."""
    kind, lexeme, _, _ = toks[pos]
    signs = 0
    while lexeme == "-":
        pos += 1
        signs += 1
        if nesting + signs > MAX_NESTING:
            _fail(toks[pos], _TOO_DEEP)
        kind, lexeme, _, _ = toks[pos]
    inner = nesting + signs
    e = None
    while True:  # primaries joined by INTERSECT
        pos += 1
        if kind is _IDENT:
            if toks[pos][0] is not _LPAREN:
                p = NameRef(lexeme)
            else:
                pos += 1
                args = []
                if toks[pos][0] is _RPAREN:
                    pos += 1
                else:
                    arg, pos = _nested(toks, pos, inner)
                    args.append(arg)
                    while toks[pos][0] is _COMMA:
                        arg, pos = _nested(toks, pos + 1, inner)
                        args.append(arg)
                    pos = _closing(toks, pos)
                p = Call(lexeme.upper(), tuple(args))
        elif kind is _NUMBER:
            value = float(lexeme)
            if not math.isfinite(value):
                _fail(toks[pos - 1], "a finite number")
            p = NumberLit(value)
        elif kind is _LPAREN:
            p, pos = _nested(toks, pos, inner)
            pos = _closing(toks, pos)
        elif kind is _SHEET_QUAL:
            nxt = toks[pos]
            pos += 1
            if nxt[0] is _IDENT:
                p = NameRef(nxt[1], lexeme[:-1])
            elif nxt[0] is _CELLREF:
                p = CellRef(_normalize_cellref(nxt[1]), lexeme[:-1])
            else:
                _fail(nxt, "a name after %r" % lexeme)
        elif kind is _CELLREF:
            p = CellRef(_normalize_cellref(lexeme))
        elif kind is _TEXT:
            p = TextLit(lexeme[1:-1].replace('""', '"'))
        elif kind is _BOOL:
            p = BoolLit(lexeme.upper() == "TRUE")
        else:
            _fail(toks[pos - 1], "a value or reference")
        e = p if e is None else Intersect(e, p)
        kind, lexeme, _, _ = toks[pos]
        if kind is not _INTERSECT:
            break
        kind, lexeme, _, _ = toks[pos + 1]
        pos += 1
    while lexeme == "%":
        pos += 1
        e = Percent(e)
        lexeme = toks[pos][1]
    for _ in range(signs):
        e = Unary("-", e)
    while True:
        level = _BINARY_LEVEL.get(lexeme, 0)
        if level < floor:
            return e, pos
        rhs, pos = _binary(toks, pos + 1, level + 1, nesting)
        e = Binary(lexeme, e, rhs)
        lexeme = toks[pos][1]


def _nested(toks, pos, nesting):
    """_binary's whole expression at toks[pos], one nesting level deeper."""
    if nesting >= MAX_NESTING:
        _fail(toks[pos], _TOO_DEEP)
    return _binary(toks, pos, 1, nesting + 1)


def _closing(toks, pos):
    """The position after the ")" at toks[pos]."""
    if toks[pos][0] is not _RPAREN:
        _fail(toks[pos], "')'")
    return pos + 1


def parse_formula(text: str) -> Expr:
    return parse(tokenize(text))


# --- canonical rendering -----------------------------------------------------

def _level(e: Expr) -> int:
    if type(e) is Binary:
        return _BINARY_LEVEL[e.op]
    return _NODE_LEVEL.get(type(e), _LEVEL_PRIMARY)


def _operand(child: Expr, floor: int) -> str:
    """child's text, in parentheses unless it binds at floor or tighter."""
    text = render(child)
    return text if _level(child) >= floor else "(" + text + ")"


def render(e: Expr) -> str:
    """Canonical text for an expression; render . parse is the identity."""
    kind = type(e)
    if kind is Binary:
        level = _BINARY_LEVEL[e.op]
        return (_operand(e.lhs, level) + " " + e.op + " "
                + _operand(e.rhs, level + 1))
    if kind is NameRef:
        return (e.sheet + "!" + e.name) if e.sheet else e.name
    if kind is NumberLit or kind is BoolLit:
        return TEXT[type(e.value)](e.value)
    if kind is Call:
        return e.func + "(" + ", ".join(map(render, e.args)) + ")"
    if kind is Unary:
        return e.op + _operand(e.operand, _LEVEL_UNARY)
    if kind is Percent:
        return _operand(e.operand, _LEVEL_PERCENT) + "%"
    if kind is Intersect:
        return (_operand(e.lhs, _LEVEL_INTERSECT) + " "
                + _operand(e.rhs, _LEVEL_INTERSECT + 1))
    if kind is TextLit:
        return '"' + e.value.replace('"', '""') + '"'
    if kind is CellRef:
        return (e.sheet + "!" + e.ref) if e.sheet else e.ref
    raise TypeError("not an expression: %r" % (e,))


def walk(e: Expr, kind=None) -> list:
    """(node, level) for every node in reading order, the root at level 1;
    given a leaf type as kind, just the nodes of that type, in the same
    order, with no levels built.

    Iterative, so it is safe on a tree of any depth."""
    out = []
    if kind is not None:
        stack = [e]
        while stack:
            node = stack.pop()
            t = type(node)
            if t is kind:
                out.append(node)
            elif t is Binary or t is Intersect:
                stack += (node.rhs, node.lhs)
            elif t is Unary or t is Percent:
                stack.append(node.operand)
            elif t is Call:
                stack += reversed(node.args)
        return out
    stack = [(e, 1)]
    while stack:
        item = stack.pop()
        out.append(item)
        node, level = item[0], item[1] + 1
        t = type(node)
        if t is Binary or t is Intersect:
            stack += ((node.rhs, level), (node.lhs, level))
        elif t is Unary or t is Percent:
            stack.append((node.operand, level))
        elif t is Call:
            stack += [(a, level) for a in reversed(node.args)]
    return out


def names_referenced(e: Expr) -> set[tuple[str | None, str]]:
    """All (sheet qualifier, identifier) pairs referenced by the expression."""
    return {(n.sheet, n.name) for n in walk(e, NameRef)}


def cell_refs(e: Expr) -> list[CellRef]:
    """All CellRef nodes, in reading order; used by the linter."""
    return walk(e, CellRef)
