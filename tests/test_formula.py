"""Lexer and parser properties: canonical text is a fixed point and the
token classes that look alike (identifiers, cell references) never claim
the same string."""

import itertools
import random

import pytest

from namebook.formula import (_CELLREF_FULL, MAX_DEPTH, MAX_NESTING, Binary,
                              BoolLit, Call, CellRef, Intersect, LexError,
                              NameRef, NumberLit, ParseError, Percent,
                              TextLit, TokenKind, Unary, cell_refs,
                              is_identifier, names_referenced, parse_formula,
                              render, tokenize, walk)

ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


# --- random expression trees ------------------------------------------------

_NAMES = ("rate", "price.initial", "isEscalated?", "item4", "n.x_2",
          "←price", "start?", "total")
_SHEETS = ("plan", "loan", "mergeRoutine")
_FUNCS = ("SUM", "IF", "MATCH", "INDEX", "LOOKUP", "MIN", "MAX", "NOT",
          "CUSTOMFN")
_BINOPS = ("+", "-", "*", "/", "^", "&", "=", "<>", "<", "<=", ">", ">=")


def _ref_node(rng):
    if rng.random() < 0.3:
        return CellRef(rng.choice(("A1", "$B$2", "C3:D9", "F:X", "$AA$10")))
    sheet = rng.choice(_SHEETS) if rng.random() < 0.3 else None
    return NameRef(rng.choice(_NAMES), sheet)


def _bare_ref(rng):
    # The whitespace operator only forms between unqualified
    # reference-shaped tokens, so intersect operands skip sheet prefixes.
    if rng.random() < 0.3:
        return CellRef(rng.choice(("A1", "$B$2", "C3:D9", "F:X")))
    return NameRef(rng.choice(_NAMES))


def _expr(rng, depth):
    if depth <= 0:
        roll = rng.random()
        if roll < 0.35:
            return NumberLit(rng.choice((0.0, 1.0, 2.5, 0.001, 12.0,
                                         3.141592653589793, 1e22)))
        if roll < 0.5:
            return TextLit(rng.choice(("", "a", 'say "hi"', "x y z", "=")))
        if roll < 0.6:
            return BoolLit(rng.random() < 0.5)
        return _ref_node(rng)
    roll = rng.random()
    if roll < 0.45:
        return Binary(rng.choice(_BINOPS), _expr(rng, depth - 1),
                      _expr(rng, depth - 1))
    if roll < 0.55:
        return Unary("-", _expr(rng, depth - 1))
    if roll < 0.62:
        return Percent(_expr(rng, depth - 1))
    if roll < 0.72:
        left = rng.choice((_bare_ref(rng),
                           Intersect(_bare_ref(rng), _bare_ref(rng)),
                           Call("SUM", (_expr(rng, depth - 1),))))
        return Intersect(left, _bare_ref(rng))
    name = rng.choice(_FUNCS)
    args = tuple(_expr(rng, depth - 1)
                 for _ in range(rng.randrange(0, 4)))
    return Call(name, args)


def test_render_parse_round_trip_random_trees():
    rng = random.Random(20260822)
    for _ in range(1200):
        tree = _expr(rng, rng.randrange(0, 5))
        text = render(tree)
        back = parse_formula(text)
        assert back == tree, text
        assert render(back) == text


def test_canonical_text_is_a_fixed_point():
    corpus = [
        "{=IF(isEscalated?, IF(initialise?, price.initial, ←price) * (1 + esc), price.initial)}",
        "=volume*product.price",
        "sum(a,b,  c)",
        "a+b*c-d/e^f",
        "(a+b)*(c-d)",
        "--a%%",
        "a b c",
        "lookup(state, state.codes, state.taxRate)",
        '"he said ""go"""&x',
        "1e3+.5+50%",
        "A1:B2 model",
        "TRUE<>false",
    ]
    for text in corpus:
        canon = render(parse_formula(text))
        assert render(parse_formula(canon)) == canon


def matches_cellref(text: str) -> bool:
    return bool(_CELLREF_FULL.match(text))


def test_identifier_and_cellref_never_overlap_exhaustive():
    for length in range(1, 5):
        for tup in itertools.product(ALPHABET, repeat=length):
            s = "".join(tup)
            assert not (is_identifier(s) and matches_cellref(s)), s


def test_lexer_classification_is_max_munch():
    assert tokenize("A1")[0][0] is TokenKind.CELLREF
    assert tokenize("AA11")[0][0] is TokenKind.CELLREF
    assert tokenize("ZZZ123")[0][0] is TokenKind.CELLREF
    assert tokenize("in2")[0][0] is TokenKind.CELLREF
    assert tokenize("A1B")[0][0] is TokenKind.IDENT
    assert tokenize("item4")[0][0] is TokenKind.IDENT
    assert tokenize("F:X")[0][0] is TokenKind.CELLREF
    assert tokenize("TRUE")[0][0] is TokenKind.BOOL
    assert tokenize("truE")[0][0] is TokenKind.BOOL


def test_intersection_token_needs_reference_shaped_sides():
    kinds = [t[0] for t in tokenize("a b")]
    assert TokenKind.INTERSECT in kinds
    kinds = [t[0] for t in tokenize("A1 B2")]
    assert TokenKind.INTERSECT in kinds
    kinds = [t[0] for t in tokenize("(a) b")]
    assert TokenKind.INTERSECT in kinds
    assert TokenKind.INTERSECT not in [t[0] for t in tokenize("1 x")]
    assert TokenKind.INTERSECT not in [t[0] for t in tokenize('"s" x')]
    assert TokenKind.INTERSECT not in [t[0] for t in tokenize("SUM (a)")]


def test_intersection_parses_tightest():
    tree = parse_formula("a b + c")
    assert isinstance(tree, Binary) and tree.op == "+"
    assert isinstance(tree.lhs, Intersect)
    tree = parse_formula("SUM(revenue inPeriod)")
    assert isinstance(tree.args[0], Intersect)


def test_operator_precedence_and_associativity():
    assert render(parse_formula("a+b*c")) == "a + b * c"
    assert render(parse_formula("(a+b)*c")) == "(a + b) * c"
    assert render(parse_formula("a-b-c")) == "a - b - c"
    assert parse_formula("a-b-c") == Binary("-", Binary("-", NameRef("a"),
                                                        NameRef("b")),
                                            NameRef("c"))
    assert parse_formula("2^3^2") == Binary("^", Binary("^", NumberLit(2.0),
                                                        NumberLit(3.0)),
                                            NumberLit(2.0))
    # Unary minus binds tighter than the power operator.
    tree = parse_formula("-a^2")
    assert isinstance(tree, Binary) and isinstance(tree.lhs, Unary)
    # Percent binds tighter than unary minus.
    tree = parse_formula("-a%")
    assert isinstance(tree, Unary) and isinstance(tree.operand, Percent)
    # Concatenation sits between comparison and addition.
    tree = parse_formula("a & b = c")
    assert isinstance(tree, Binary) and tree.op == "="
    assert isinstance(tree.lhs, Binary) and tree.lhs.op == "&"


def test_array_braces_and_leading_equals_are_stripped():
    assert parse_formula("{=a+b}") == parse_formula("a+b")
    assert parse_formula("=a+b") == parse_formula("a+b")


def test_text_literal_quote_doubling():
    tree = parse_formula('"he said ""go"""')
    assert tree == TextLit('he said "go"')
    assert render(tree) == '"he said ""go"""'


def test_function_names_fold_to_upper():
    assert parse_formula("sum(a)") == Call("SUM", (NameRef("a"),))
    assert render(parse_formula("if(a, 1, 2)")).startswith("IF(")


def test_qualified_names():
    tree = parse_formula("master!list.A")
    assert tree == NameRef("list.A", "master")
    assert render(tree) == "master!list.A"


def test_cellref_normalization():
    assert parse_formula("b2") == CellRef("B2")
    assert parse_formula("d9:c3") == CellRef("C3:D9")
    assert render(parse_formula("$b$2")) == "$B$2"


def test_number_literal_forms():
    assert parse_formula("1e3") == NumberLit(1000.0)
    assert parse_formula(".5") == NumberLit(0.5)
    assert render(parse_formula("2500000.0")) == "2500000"
    assert isinstance(parse_formula("50%"), Percent)


def test_identifier_rules():
    assert is_identifier("price.initial")
    assert is_identifier("isEscalated?")
    assert is_identifier("←price")
    assert is_identifier("a_b.c2")
    assert not is_identifier("2start")
    assert not is_identifier("mid?dle")
    assert not is_identifier("")
    assert not is_identifier("IN2")  # would lex as a cell reference


@pytest.mark.parametrize("text", [
    "a +", "(a", "a)", "SUM(a,", '"unterminated', "a ? b", "1..2",
    "!x", "a!!b", "", "1 + \u00b2", "\u0663", "x + .\u00b2", "x\u00bd",
])
def test_malformed_formulas_raise(text):
    with pytest.raises((LexError, ParseError)):
        parse_formula(text)


# --- depth limits and literal range -----------------------------------------

def test_nesting_past_the_limit_is_a_parse_error():
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_formula(deepest) == NameRef("x")
    assert parse_formula("-" * MAX_NESTING + "x") is not None
    over = MAX_NESTING + 1
    for text in ("(" * over + "x" + ")" * over,
                 "(" * 300 + "x" + ")" * 300,
                 "-" * over + "x",
                 "SUM(" * over + "x" + ")" * over):
        with pytest.raises(ParseError):
            parse_formula(text)


def test_tree_depth_past_the_limit_is_a_parse_error():
    longest = parse_formula("+".join(["x"] * MAX_DEPTH))
    assert max(level for _, level in walk(longest)) == MAX_DEPTH
    assert render(longest) == " + ".join(["x"] * MAX_DEPTH)
    for terms in (MAX_DEPTH + 1, 3000):
        with pytest.raises(ParseError):
            parse_formula("+".join(["x"] * terms))


def test_number_literals_must_be_finite():
    assert parse_formula("1e308") == NumberLit(1e308)
    with pytest.raises(ParseError):
        parse_formula("1e999 + x")


def test_walks_see_every_reference_in_reading_order():
    e = parse_formula("SUM(a, B2) + -plan!c * IF(D4:E5 x, $F$6, d%)")
    assert names_referenced(e) == {(None, "a"), ("plan", "c"), (None, "x"),
                                   (None, "d")}
    assert [r.ref for r in cell_refs(e)] == ["B2", "D4:E5", "$F$6"]
    assert max(level for _, level in walk(e)) == 5
