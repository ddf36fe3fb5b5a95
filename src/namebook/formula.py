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
class, run over the formula once by finditer.  The parser climbs
precedence (Pratt, "Top Down Operator Precedence", POPL 1973): one loop
reads every binary operator at a given binding level or tighter from
_BINARY_LEVEL, the table render also uses to decide where parentheses
go.  Both do a small, fixed amount of Python work per token, and each
tree node is a slot record (values.Record) built by one plain __init__.  A
character-at-a-time lexer and a recursive-descent parser with one method
per level, which they must match token for token, tree for tree and
error for error, are kept in tests/formula_reference.py.

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
from collections import namedtuple
from enum import Enum, auto

from .values import Record, format_number


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


Token = namedtuple("Token", "kind lexeme start end")


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

# One alternative per token class.  A letter starts a cell reference when
# the reference holds a "$" or ":" (an identifier stops there) or when no
# identifier character follows it, so the longer reading wins.  A text
# literal must not close on the first quote of a doubled pair.  No
# alternative starts with a blank, so the leading blanks never backtrack
# into a token.
_TOKEN = re.compile(r"""[ \t]*(?:
    (?P<OP><=|>=|<>|[-+*/^&=<>%%])
  | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,)
  | (?P<CELLREF>(?=\$|[A-Za-z]{1,3}[$:]|[A-Za-z]{1,3}[0-9]{1,7}:)(?:%s)
               |[A-Za-z]{1,3}[0-9]{1,7}(?![\w.?]))
  | (?P<BOOL>(?i:TRUE|FALSE)(?![\w.?]))
  | (?P<IDENT>%s!?)
  | (?P<NUMBER>%s)
  | (?P<TEXT>"(?:[^"]|"")*"(?!"))
  | (?P<bad>[^ \t]))""" % (_CELLREF_PATTERN, _IDENT_PATTERN, NUMBER_RE.pattern),
                    re.VERBOSE | re.DOTALL)

# TokenKind by group number; None for the "bad" group.
_GROUP_KIND = {number: TokenKind.__members__.get(name)
               for name, number in _TOKEN.groupindex.items()}
# Token(kind, lexeme, start, end) without namedtuple's Python-level __new__.
_token = tuple.__new__
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


def matches_cellref(text: str) -> bool:
    return bool(_CELLREF_FULL.match(text))


def col_to_index(letters: str) -> int:
    """1-based column number of column letters: A is 1, AA is 27."""
    n = 0
    for ch in letters.upper():
        n = n * 26 + (ord(ch) - 64)
    return n


def tokenize(text: str) -> list[Token]:
    """Lex a formula.  A leading "=" or surrounding "{=...}" is tolerated."""
    n = len(text)
    pos = 0
    # Tolerate array-entry braces and the leading equals sign.
    end_limit = n
    while pos < n and text[pos] in " \t":
        pos += 1
    if pos < n and text[pos] == "{":
        close = text.rstrip()
        if not close.endswith("}"):
            raise LexError(pos, "unmatched '{'")
        end_limit = len(close) - 1
        pos += 1
    while pos < end_limit and text[pos] in " \t":
        pos += 1
    if pos < end_limit and text[pos] == "=":
        pos += 1
    tokens = []
    prev_end, prev_kind = pos, None
    for m in _TOKEN.finditer(text, pos, end_limit):
        group = m.lastindex
        start, end = m.span(group)
        lexeme = text[start:end]
        kind = _GROUP_KIND[group]
        if kind is _IDENT:
            name = lexeme[:-1] if lexeme[-1] == "!" else lexeme
            if not name.isascii() and (cut := _ident_cut(name)) < len(name):
                raise LexError(start + cut, "unexpected character %r"
                               % name[cut])
            if name is not lexeme:
                kind = _SHEET_QUAL
        elif kind is None:
            raise LexError(start, "unterminated text literal" if lexeme == '"'
                           else "unexpected character %r" % lexeme)
        if start > prev_end and prev_kind in _REF_LEFT and kind in _REF_RIGHT:
            tokens.append(_token(Token, (_INTERSECT,
                                         text[prev_end:start], prev_end, start)))
        tokens.append(_token(Token, (kind, lexeme, start, end)))
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
        parts = self.ref.split(":")
        for p in parts:
            m = re.match(r"^(\$?)[A-Z]{1,3}(?:(\$?)[0-9]{1,7})?$", p)
            if m is None:
                return True
            if m.group(1) != "$" or (m.group(2) is not None and m.group(2) != "$"):
                return True
        return False


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
    raise ParseError(tok.start, expected, "end of formula"
                     if tok.kind is None else repr(tok.lexeme))


_TOO_DEEP = "at most %d levels of nesting" % MAX_NESTING


def parse(tokens: list[Token]) -> Expr:
    """The expression tree of a token list, by precedence climbing.

    The list gets a sentinel of kind None and empty lexeme where the
    formula ends.  Only OP tokens have a lexeme that is a key of
    _BINARY_LEVEL or equals "-" or "%", so lexemes alone pick operators,
    and the sentinel reads as binding level 0, which ends every loop."""
    if not tokens:
        raise ParseError(0, "a formula", "end of formula")
    end = tokens[-1].end
    toks = tokens + [_token(Token, (None, "", end, end))]
    pos = 0
    nesting = 0  # parentheses, arguments and minus signs open

    def nested():
        """A whole expression one nesting level deeper."""
        nonlocal nesting
        nesting += 1
        if nesting > MAX_NESTING:
            _fail(toks[pos], _TOO_DEEP)
        e = binary(1)
        nesting -= 1
        return e

    def closing():
        nonlocal pos
        if toks[pos].kind is not _RPAREN:
            _fail(toks[pos], "')'")
        pos += 1

    def binary(floor):
        """An expression whose binary operators bind at floor or tighter."""
        nonlocal pos, nesting
        signs = 0
        while toks[pos].lexeme == "-":
            pos += 1
            signs += 1
            nesting += 1
            if nesting > MAX_NESTING:
                _fail(toks[pos], _TOO_DEEP)
        e = None
        while True:  # primaries joined by INTERSECT
            tok = toks[pos]
            kind = tok.kind
            pos += 1
            if kind is _IDENT:
                if toks[pos].kind is not _LPAREN:
                    p = NameRef(tok.lexeme)
                else:
                    pos += 1
                    args = []
                    if toks[pos].kind is _RPAREN:
                        pos += 1
                    else:
                        args.append(nested())
                        while toks[pos].kind is _COMMA:
                            pos += 1
                            args.append(nested())
                        closing()
                    p = Call(tok.lexeme.upper(), tuple(args))
            elif kind is _NUMBER:
                value = float(tok.lexeme)
                if not math.isfinite(value):
                    _fail(tok, "a finite number")
                p = NumberLit(value)
            elif kind is _LPAREN:
                p = nested()
                closing()
            elif kind is _SHEET_QUAL:
                nxt = toks[pos]
                pos += 1
                if nxt.kind is _IDENT:
                    p = NameRef(nxt.lexeme, tok.lexeme[:-1])
                elif nxt.kind is _CELLREF:
                    p = CellRef(_normalize_cellref(nxt.lexeme), tok.lexeme[:-1])
                else:
                    _fail(nxt, "a name after %r" % tok.lexeme)
            elif kind is _CELLREF:
                p = CellRef(_normalize_cellref(tok.lexeme))
            elif kind is _TEXT:
                p = TextLit(tok.lexeme[1:-1].replace('""', '"'))
            elif kind is _BOOL:
                p = BoolLit(tok.lexeme.upper() == "TRUE")
            else:
                _fail(tok, "a value or reference")
            e = p if e is None else Intersect(e, p)
            if toks[pos].kind is not _INTERSECT:
                break
            pos += 1
        while toks[pos].lexeme == "%":
            pos += 1
            e = Percent(e)
        nesting -= signs
        for _ in range(signs):
            e = Unary("-", e)
        while True:
            op = toks[pos].lexeme
            level = _BINARY_LEVEL.get(op, 0)
            if level < floor:
                return e
            pos += 1
            e = Binary(op, e, binary(level + 1))

    e = binary(1)
    if toks[pos].kind is not None:
        _fail(toks[pos], "end of formula")
    # A tree has no more levels than the formula has tokens.
    if (len(tokens) > MAX_DEPTH
            and max(level for _, level in walk(e)) > MAX_DEPTH):
        raise ParseError(0, "an expression at most %d levels deep"
                         % MAX_DEPTH, "a deeper one")
    return e


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
    if kind is NumberLit:
        return format_number(e.value)
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
    if kind is BoolLit:
        return "TRUE" if e.value else "FALSE"
    if kind is CellRef:
        return (e.sheet + "!" + e.ref) if e.sheet else e.ref
    raise TypeError("not an expression: %r" % (e,))


def walk(e: Expr) -> list:
    """(node, level) for every node in reading order, the root at level 1.

    Iterative, so it is safe on a tree of any depth."""
    out = []
    stack = [(e, 1)]
    while stack:
        item = stack.pop()
        out.append(item)
        node, level = item[0], item[1] + 1
        kind = type(node)
        if kind is Binary or kind is Intersect:
            stack += ((node.rhs, level), (node.lhs, level))
        elif kind is Unary or kind is Percent:
            stack.append((node.operand, level))
        elif kind is Call:
            stack += [(a, level) for a in reversed(node.args)]
    return out


def names_referenced(e: Expr) -> set[tuple[str | None, str]]:
    """All (sheet qualifier, identifier) pairs referenced by the expression."""
    return {(n.sheet, n.name) for n, _ in walk(e) if isinstance(n, NameRef)}


def cell_refs(e: Expr) -> list[CellRef]:
    """All CellRef nodes, in reading order; used by the linter."""
    return [n for n, _ in walk(e) if isinstance(n, CellRef)]
