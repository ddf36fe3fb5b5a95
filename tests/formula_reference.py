"""The character-at-a-time lexer, recursive-descent parser and renderer
that namebook.formula used before its one-pattern lexer and
precedence-climbing parser, unchanged apart from imports, and the
corner loop of CellRef.is_relative before its one pattern.  Tests compare
`namebook.formula` against it.

It builds the package's own AST nodes and raises the package's LexError
and ParseError, so trees and errors compare directly; tokens are its own
`Token` dataclass and compare as (kind, lexeme, start, end)."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from namebook.formula import (MAX_DEPTH, MAX_NESTING, Binary, BoolLit, Call,
                              CellRef, Expr, Intersect, LexError, NameRef,
                              NumberLit, ParseError, Percent, TextLit,
                              TokenKind, Unary, walk)
from namebook.values import format_number


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    start: int
    end: int


ARROW = "←"

CELLREF_RE = re.compile(
    r"\$?[A-Za-z]{1,3}\$?[0-9]{1,7}(?::\$?[A-Za-z]{1,3}\$?[0-9]{1,7})?"
    r"|\$?[A-Za-z]{1,3}:\$?[A-Za-z]{1,3}"
)
NUMBER_RE = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")

# Whole-lexeme form, used to reject candidate defined names that read as refs.
_CELLREF_FULL = re.compile(r"^(?:%s)$" % CELLREF_RE.pattern)


def _ident_end(text: str, pos: int) -> int:
    """End offset of the identifier starting at pos, or pos if none starts."""
    n = len(text)
    ch = text[pos]
    if not (ch.isalpha() or ch == ARROW):
        return pos
    i = pos + 1
    while i < n and (text[i].isalpha() or text[i].isdigit() or text[i] in "._"):
        i += 1
    if i < n and text[i] == "?":
        i += 1
    return i


def is_identifier(text: str) -> bool:
    """True when text is a legal defined name."""
    if not text:
        return False
    if _ident_end(text, 0) != len(text):
        return False
    if _CELLREF_FULL.match(text):
        return False
    if text.upper() in ("TRUE", "FALSE"):
        return False
    return True


_REF_LEFT = (TokenKind.IDENT, TokenKind.CELLREF, TokenKind.RPAREN)
_REF_RIGHT = (TokenKind.IDENT, TokenKind.CELLREF)


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

    tokens: list[Token] = []

    def prev_kind():
        return tokens[-1].kind if tokens else None

    while pos < end_limit:
        ws_start = pos
        while pos < end_limit and text[pos] in " \t":
            pos += 1
        if pos >= end_limit:
            break
        ws_end = pos
        start = pos
        ch = text[pos]

        tok = None
        if ch == '"':
            i = pos + 1
            buf = []
            while True:
                if i >= end_limit:
                    raise LexError(pos, "unterminated text literal")
                if text[i] == '"':
                    if i + 1 < end_limit and text[i + 1] == '"':
                        buf.append('"')
                        i += 2
                        continue
                    i += 1
                    break
                buf.append(text[i])
                i += 1
            tok = Token(TokenKind.TEXT, text[start:i], start, i)
            pos = i
        elif ch == "(":
            tok = Token(TokenKind.LPAREN, "(", start, start + 1)
            pos += 1
        elif ch == ")":
            tok = Token(TokenKind.RPAREN, ")", start, start + 1)
            pos += 1
        elif ch == ",":
            tok = Token(TokenKind.COMMA, ",", start, start + 1)
            pos += 1
        elif text.startswith(("<=", ">=", "<>"), pos):
            tok = Token(TokenKind.OP, text[pos:pos + 2], start, start + 2)
            pos += 2
        elif ch in "+-*/^&=<>%":
            tok = Token(TokenKind.OP, ch, start, start + 1)
            pos += 1
        elif ch.isdigit() or (ch == "." and pos + 1 < end_limit and text[pos + 1].isdigit()):
            m = NUMBER_RE.match(text, pos)
            tok = Token(TokenKind.NUMBER, m.group(0), start, m.end())
            pos = m.end()
        else:
            ident_end = _ident_end(text, pos) if (ch.isalpha() or ch == ARROW) else pos
            cm = CELLREF_RE.match(text, pos) if (ch.isalpha() or ch == "$") else None
            cell_end = cm.end() if cm else pos
            if cell_end <= pos and ident_end <= pos:
                raise LexError(pos, "unexpected character %r" % ch)
            if cell_end >= ident_end and cell_end > pos:
                tok = Token(TokenKind.CELLREF, text[start:cell_end], start, cell_end)
                pos = cell_end
            else:
                lexeme = text[start:ident_end]
                pos = ident_end
                if lexeme.upper() in ("TRUE", "FALSE"):
                    tok = Token(TokenKind.BOOL, lexeme, start, pos)
                elif pos < end_limit and text[pos] == "!":
                    pos += 1
                    tok = Token(TokenKind.SHEET_QUAL, text[start:pos], start, pos)
                else:
                    tok = Token(TokenKind.IDENT, lexeme, start, pos)

        if (ws_end > ws_start and prev_kind() in _REF_LEFT
                and tok.kind in _REF_RIGHT):
            tokens.append(Token(TokenKind.INTERSECT, text[ws_start:ws_end],
                                ws_start, ws_end))
        tokens.append(tok)
    return tokens


def _normalize_cellref(lexeme: str) -> str:
    """Uppercase and order a reference's corners canonically."""
    text = lexeme.upper()
    if ":" not in text:
        return text
    a, b = text.split(":")

    def key(part):
        m = re.match(r"^\$?([A-Z]{1,3})\$?([0-9]{1,7})?$", part)
        col = 0
        for ch in m.group(1):
            col = col * 26 + (ord(ch) - 64)
        row = int(m.group(2)) if m.group(2) else 0
        return (col, row)

    if key(a) > key(b):
        a, b = b, a
    return a + ":" + b


def is_relative(ref: str) -> bool:
    """CellRef.is_relative as a loop over the corners: True when any row
    or column component lacks an absolute marker."""
    parts = ref.split(":")
    for p in parts:
        m = re.match(r"^(\$?)[A-Z]{1,3}(?:(\$?)[0-9]{1,7})?$", p)
        if m is None:
            return True
        if m.group(1) != "$" or (m.group(2) is not None and m.group(2) != "$"):
            return True
    return False


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # nested() calls in progress

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok is None or tok.kind is not kind:
            self.fail(what)
        return self.advance()

    def fail(self, expected):
        tok = self.peek()
        if tok is None:
            offset = self.tokens[-1].end if self.tokens else 0
            raise ParseError(offset, expected, "end of formula")
        raise ParseError(tok.start, expected, repr(tok.lexeme))

    def at_op(self, *ops):
        tok = self.peek()
        return tok is not None and tok.kind is TokenKind.OP and tok.lexeme in ops

    def parse(self):
        if not self.tokens:
            raise ParseError(0, "a formula", "end of formula")
        e = self.compare()
        if self.peek() is not None:
            self.fail("end of formula")
        # A tree has no more levels than the formula has tokens.
        if (len(self.tokens) > MAX_DEPTH
                and max(level for _, level in walk(e)) > MAX_DEPTH):
            raise ParseError(0, "an expression at most %d levels deep"
                             % MAX_DEPTH, "a deeper one")
        return e

    def compare(self):
        e = self.concat()
        while self.at_op("=", "<>", "<", "<=", ">", ">="):
            op = self.advance().lexeme
            e = Binary(op, e, self.concat())
        return e

    def concat(self):
        e = self.additive()
        while self.at_op("&"):
            self.advance()
            e = Binary("&", e, self.additive())
        return e

    def additive(self):
        e = self.multiplicative()
        while self.at_op("+", "-"):
            op = self.advance().lexeme
            e = Binary(op, e, self.multiplicative())
        return e

    def multiplicative(self):
        e = self.power()
        while self.at_op("*", "/"):
            op = self.advance().lexeme
            e = Binary(op, e, self.power())
        return e

    def power(self):
        e = self.unary()
        while self.at_op("^"):
            self.advance()
            e = Binary("^", e, self.unary())
        return e

    def nested(self, parse):
        """parse() one level deeper, refusing to pass MAX_NESTING."""
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            self.fail("at most %d levels of nesting" % MAX_NESTING)
        e = parse()
        self.nesting -= 1
        return e

    def unary(self):
        if self.at_op("-"):
            self.advance()
            return Unary("-", self.nested(self.unary))
        return self.postfix()

    def postfix(self):
        e = self.intersect()
        while self.at_op("%"):
            self.advance()
            e = Percent(e)
        return e

    def intersect(self):
        e = self.primary()
        while self.peek() is not None and self.peek().kind is TokenKind.INTERSECT:
            self.advance()
            e = Intersect(e, self.primary())
        return e

    def primary(self):
        tok = self.peek()
        if tok is None:
            self.fail("a value or reference")
        if tok.kind is TokenKind.NUMBER:
            value = float(tok.lexeme)
            if not math.isfinite(value):
                self.fail("a finite number")
            self.advance()
            return NumberLit(value)
        if tok.kind is TokenKind.TEXT:
            self.advance()
            return TextLit(tok.lexeme[1:-1].replace('""', '"'))
        if tok.kind is TokenKind.BOOL:
            self.advance()
            return BoolLit(tok.lexeme.upper() == "TRUE")
        if tok.kind is TokenKind.SHEET_QUAL:
            self.advance()
            sheet = tok.lexeme[:-1]
            nxt = self.peek()
            if nxt is not None and nxt.kind is TokenKind.IDENT:
                self.advance()
                return NameRef(nxt.lexeme, sheet)
            if nxt is not None and nxt.kind is TokenKind.CELLREF:
                self.advance()
                return CellRef(_normalize_cellref(nxt.lexeme), sheet)
            self.fail("a name after %r" % tok.lexeme)
        if tok.kind is TokenKind.IDENT:
            self.advance()
            nxt = self.peek()
            if nxt is not None and nxt.kind is TokenKind.LPAREN:
                self.advance()
                args = []
                if self.peek() is not None and self.peek().kind is TokenKind.RPAREN:
                    self.advance()
                else:
                    args.append(self.nested(self.compare))
                    while self.peek() is not None and self.peek().kind is TokenKind.COMMA:
                        self.advance()
                        args.append(self.nested(self.compare))
                    self.expect(TokenKind.RPAREN, "')'")
                return Call(tok.lexeme.upper(), tuple(args))
            return NameRef(tok.lexeme)
        if tok.kind is TokenKind.CELLREF:
            self.advance()
            return CellRef(_normalize_cellref(tok.lexeme))
        if tok.kind is TokenKind.LPAREN:
            self.advance()
            e = self.nested(self.compare)
            self.expect(TokenKind.RPAREN, "')'")
            return e
        self.fail("a value or reference")


def parse(tokens: list[Token]) -> Expr:
    return _Parser(tokens).parse()


def parse_formula(text: str) -> Expr:
    return parse(tokenize(text))


_LEVEL_COMPARE = 1
_LEVEL_CONCAT = 2
_LEVEL_ADD = 3
_LEVEL_MUL = 4
_LEVEL_POW = 5
_LEVEL_UNARY = 6
_LEVEL_PERCENT = 7
_LEVEL_INTERSECT = 8
_LEVEL_PRIMARY = 9

_BINARY_LEVEL = {
    "=": _LEVEL_COMPARE, "<>": _LEVEL_COMPARE, "<": _LEVEL_COMPARE,
    "<=": _LEVEL_COMPARE, ">": _LEVEL_COMPARE, ">=": _LEVEL_COMPARE,
    "&": _LEVEL_CONCAT,
    "+": _LEVEL_ADD, "-": _LEVEL_ADD,
    "*": _LEVEL_MUL, "/": _LEVEL_MUL,
    "^": _LEVEL_POW,
}


def _level(e: Expr) -> int:
    if isinstance(e, Binary):
        return _BINARY_LEVEL[e.op]
    if isinstance(e, Unary):
        return _LEVEL_UNARY
    if isinstance(e, Percent):
        return _LEVEL_PERCENT
    if isinstance(e, Intersect):
        return _LEVEL_INTERSECT
    return _LEVEL_PRIMARY


def _wrap(text: str, child: Expr, parent_level: int, right_side: bool) -> str:
    lvl = _level(child)
    if lvl < parent_level or (lvl == parent_level and right_side):
        return "(" + text + ")"
    return text


def render(e: Expr) -> str:
    """Canonical text for an expression; render . parse is the identity."""
    if isinstance(e, NumberLit):
        return format_number(e.value)
    if isinstance(e, TextLit):
        return '"' + e.value.replace('"', '""') + '"'
    if isinstance(e, BoolLit):
        return "TRUE" if e.value else "FALSE"
    if isinstance(e, NameRef):
        return (e.sheet + "!" + e.name) if e.sheet else e.name
    if isinstance(e, CellRef):
        return (e.sheet + "!" + e.ref) if e.sheet else e.ref
    if isinstance(e, Call):
        return e.func + "(" + ", ".join(render(a) for a in e.args) + ")"
    if isinstance(e, Unary):
        inner = _wrap(render(e.operand), e.operand, _LEVEL_UNARY, False)
        return e.op + inner
    if isinstance(e, Percent):
        inner = _wrap(render(e.operand), e.operand, _LEVEL_PERCENT, False)
        return inner + "%"
    if isinstance(e, Intersect):
        lhs = _wrap(render(e.lhs), e.lhs, _LEVEL_INTERSECT, False)
        rhs = _wrap(render(e.rhs), e.rhs, _LEVEL_INTERSECT, True)
        return lhs + " " + rhs
    if isinstance(e, Binary):
        lvl = _BINARY_LEVEL[e.op]
        lhs = _wrap(render(e.lhs), e.lhs, lvl, False)
        rhs = _wrap(render(e.rhs), e.rhs, lvl, True)
        return lhs + " " + e.op + " " + rhs
    raise TypeError("not an expression: %r" % (e,))
