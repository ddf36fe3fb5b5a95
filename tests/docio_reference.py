"""The literal field decoder that namebook.docio used before it read a
quoted field's body with one pattern: the body walked one character at a
time, each escape looked up in the table of escapes.  Unchanged apart
from imports.  Tests compare `namebook.docio.decode_field` against it."""

from __future__ import annotations

import math

from namebook.docio import DocSyntaxError

_NUMBER_CHARS = frozenset("0123456789.eE+-")
_UNESCAPES = {"\\": "\\", '"': '"', "t": "\t", "n": "\n", "r": "\r"}


def decode_field(text: str, line: int):
    if text == "":
        return None
    if _NUMBER_CHARS.issuperset(text):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if math.isfinite(value):
            return value
        raise DocSyntaxError(line, "unreadable literal %r" % text)
    if text == "TRUE":
        return True
    if text == "FALSE":
        return False
    if text.startswith('"'):
        if len(text) < 2 or not text.endswith('"'):
            raise DocSyntaxError(line, "unterminated text literal %r" % text)
        out = []
        i = 1
        while i < len(text) - 1:
            ch = text[i]
            if ch == "\\":
                i += 1
                if i >= len(text) - 1:
                    raise DocSyntaxError(line, "dangling escape in %r" % text)
                esc = _UNESCAPES.get(text[i])
                if esc is None:
                    raise DocSyntaxError(line, "unknown escape \\%s" % text[i])
                out.append(esc)
            elif ch == '"':
                raise DocSyntaxError(line, "unescaped quote inside %r" % text)
            else:
                out.append(ch)
            i += 1
        return "".join(out)
    raise DocSyntaxError(line, "unreadable literal %r" % text)
