"""The lexer, parser and renderer of namebook.formula agree exactly with
the recursive-descent reference in formula_reference.py: the same tokens
(kind, lexeme, start, end), the same trees, the same canonical text, the
same error (type, offset, message) and the same is_identifier answer on
every input.  The one allowed
difference: where the reference crashed with AttributeError (a non-ASCII
digit where a number starts), the package raises LexError."""

import ast
import glob
import os
import random

import pytest

import formula_reference as ref
from namebook import formula
from namebook.formula import LexError

from corpus import fixture_a, fixture_b, fixture_c
from gen import random_workbook

HERE = os.path.dirname(os.path.abspath(__file__))


def _outcome(mod, text):
    """Tokens, tree and canonical text, or the error where they stop."""
    try:
        tokens = mod.tokenize(text)
        if mod is ref:  # its tokens are dataclasses; the lexer's are tuples
            tokens = [(t.kind, t.lexeme, t.start, t.end) for t in tokens]
        tree = mod.parse_formula(text)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return (type(exc), str(exc), getattr(exc, "offset", None))
    return tokens, tree, mod.render(tree)


def _assert_same(text):
    want = _outcome(ref, text)
    got = _outcome(formula, text)
    if want[0] is AttributeError:
        assert got[0] is LexError, text
    else:
        assert got == want, text
    assert formula.is_identifier(text) == ref.is_identifier(text), text


def _book_formulas(wb):
    return [ref.render(nd.formula) for nd in wb.names.values()
            if nd.formula is not None]


def _test_file_strings():
    out = set()
    for path in glob.glob(os.path.join(HERE, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        out.update(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str) and len(node.value) < 400)
    return sorted(out)


@pytest.fixture(scope="module")
def book_formulas():
    texts = []
    for build in (fixture_a, fixture_b, fixture_c):
        texts += _book_formulas(build())
    for seed in range(300):
        texts += _book_formulas(random_workbook(seed))
    return texts


def test_fixture_and_generated_formulas_agree(book_formulas):
    assert len(book_formulas) > 1000
    for text in book_formulas:
        _assert_same(text)
        # The spaced canonical text and a squeezed, braced variant.
        _assert_same("{=" + text.replace(" ", "") + "}")


def test_test_file_strings_agree():
    texts = _test_file_strings()
    assert len(texts) > 500
    for text in texts:
        _assert_same(text)


# Pieces chosen to hit every token class and its edges: cell references
# against identifiers, non-ASCII letters, digits that are not decimal
# ("²"), decimal digits of other scripts ("٣"), numeric characters that
# are neither ("½"), quotes, braces, blanks and every operator.
_PIECES = (
    "a", "x1", "A1", "$B$2", "c3:d9", "F:X", "$F:$x", "A1:B", "ab12345678",
    "IN2", "in2?", "A1.b", "A$", "AB$1", "A1:$C$4", "ABCD1", "rate",
    "price.initial", "isEscalated?", "←price", "←", "é", "ſ", "straße",
    "ΣΔ", "x²", "²", "٣", "x٣", "½", "x½", "一", "TRUE", "false", "FaLſe",
    "true?", "plan!", "plan!x", "!", "SUM(", "IF(", "(", ")", ",", '"',
    '""', '"a""b"', '"x', " ", "  ", "\t", "{", "}", "{=", "=", "+", "-",
    "*", "/", "^", "&", "<", ">", "<=", ">=", "<>", "%", "1", "2.5", ".5",
    ".", "1e3", "1E+2", "1e", "1e999", "0.", "$", ":", "_", "?", "\n",
)


def _random_text(rng, formulas):
    roll = rng.random()
    if roll < 0.2:
        return "".join(rng.choice("aZ1$:!.?_←é²٣½\"{}=()+-%<> ,")
                       for _ in range(rng.randrange(1, 8)))
    if roll < 0.5:
        return "".join(rng.choice(_PIECES)
                       for _ in range(rng.randrange(1, 9)))
    # A real formula with one to three pieces put in, cut out or swapped.
    text = rng.choice(formulas)
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randrange(3))
        text = text[:i] + rng.choice(("",) + _PIECES) + text[j:]
    return text


@pytest.mark.parametrize("seed", range(4))
def test_random_strings_agree(seed, book_formulas):
    rng = random.Random(7000 + seed)
    for _ in range(25_000):
        _assert_same(_random_text(rng, book_formulas))


def test_formulas_near_the_depth_limits_agree():
    for k in range(60, 68):
        for text in ("(" * k + "x" + ")" * k, "-" * k + "x",
                     "SUM(" * k + "x" + ")" * k, "(-" * k + "x" + ")" * k,
                     "IF(a, " * k + "b" + ", c)" * k,
                     "-(" * (k // 2) + "x%" + ")" * (k // 2),
                     "(" * k + "x" + ")" * (k - 1)):
            _assert_same(text)
    for n in range(254, 259):
        for op in ("+", "^", " & ", "<", " "):
            _assert_same(op.join(["x"] * n))
            _assert_same("-" + op.join(["(x)"] * n) + "%")


def test_non_ascii_digits_are_lex_errors():
    for text, offset, char in (("1 + ²", 4, "²"), ("٣", 0, "٣"),
                               ("a + .²", 4, "."), ("x½", 1, "½"),
                               ("A1½", 2, "½"), ("TRUE½", 4, "½")):
        with pytest.raises(LexError) as err:
            formula.parse_formula(text)
        assert (err.value.offset, err.value.reason) == (
            offset, "unexpected character %r" % char)


def _corner(rng):
    """A corner that is sometimes no corner: each "$" optional, columns
    and rows of zero to four letters and zero to eight digits, now and
    then a stray character."""
    text = "$" * (rng.random() < 0.6)
    text += "".join(rng.choice("ABZaz1") for _ in range(rng.choice(
        (0, 1, 1, 2, 3, 4))))
    if rng.random() < 0.7:
        text += "$" * (rng.random() < 0.6)
        text += "".join(rng.choice("0123456789a") for _ in range(rng.choice(
            (0, 1, 2, 7, 8))))
    if rng.random() < 0.05:
        text += rng.choice(("$", ":", " ", "٣"))
    return text


def test_is_relative_agrees_with_the_corner_loop():
    rng = random.Random(7101)
    seen = set()
    for _ in range(60_000):
        ref_text = ":".join(_corner(rng) for _ in range(rng.randint(1, 3)))
        got = formula.CellRef(ref_text).is_relative
        assert got == ref.is_relative(ref_text), ref_text
        seen.add(got)
    assert seen == {True, False}
