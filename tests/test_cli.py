"""The command line surface: each command's output shape and the full
exit code contract (0 ok, 1 unreadable document or unknown name, 2 error
values or cycles, 3 lint errors)."""

import os
import random
import re
import signal
import subprocess
import sys

import pytest

from namebook import cli
from namebook.cli import main
from namebook.docio import export_doc, rebuild
from namebook.engine import evaluate

from gen import random_workbook

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")
LOAN_DOC = os.path.join(FIXDIR, "fixtureC.nsdoc")

CHAIN_DOC = """#%NAMESDOC v1
[SHEET] s rows=3 cols=3
[NAME] scope=workbook id=dbl kind=range array=1
  target=s!B1:B2
  formula=xs * 2
[NAME] scope=workbook id=label kind=range array=0
  target=s!C1
[NAME] scope=workbook id=total kind=formula array=0
  formula=SUM(dbl)
[NAME] scope=workbook id=xs kind=range array=0
  target=s!A1:A2
[DATA] s!A1:A2
1.5
2
[DATA] s!C1
"a\\tb"
"""


def _write(tmp_path, text, name="book.nsdoc"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- eval -------------------------------------------------------------------

def test_eval_prints_one_block_per_name(tmp_path, capsys):
    doc = _write(tmp_path, CHAIN_DOC)
    assert main(["eval", doc]) == 0
    out = capsys.readouterr().out
    blocks = [b for b in out.splitlines() if b.startswith("# ")]
    assert blocks == ["# dbl 2x1", "# label 1x1", "# total 1x1", "# xs 2x1"]
    assert "\n3\n" in out                      # 1.5 * 2, shown as a number
    assert "a\\tb" in out                      # tabs stay escaped in TSV


def test_eval_filters_by_name(tmp_path, capsys):
    doc = _write(tmp_path, CHAIN_DOC)
    assert main(["eval", doc, "--name", "total"]) == 0
    out = capsys.readouterr().out
    assert out == "# total 1x1\n7\n"


def test_eval_name_miss_is_exit_one(tmp_path, capsys):
    doc = _write(tmp_path, CHAIN_DOC)
    assert main(["eval", doc, "--name", "nothing"]) == 1
    assert "nothing" in capsys.readouterr().err


def test_eval_writes_to_a_file(tmp_path, capsys):
    out_path = tmp_path / "values.tsv"
    assert main(["eval", LOAN_DOC, "--name", "loan.amount",
                 "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text(encoding="utf-8") == ("# loan.amount 1x1\n"
                                                    "100000\n")


def test_eval_error_values_exit_two(tmp_path, capsys):
    doc = _write(tmp_path, """#%NAMESDOC v1
[SHEET] s rows=2 cols=2
[NAME] scope=workbook id=boom kind=formula array=0
  formula=1/0
""")
    assert main(["eval", doc]) == 2
    out = capsys.readouterr().out
    assert "# boom 1x1" in out and "#DIV/0!" in out


@pytest.mark.parametrize("index", ["xs * 1e200 * 1e200",
                                   "xs * 1e200 * 1e200 * 0", "1e200 * 1e200"])
def test_eval_non_finite_index_is_a_value_error(tmp_path, capsys, index):
    # inf and nan indices, as an Array and as a scalar.
    doc = _write(tmp_path, """#%%NAMESDOC v1
[SHEET] s rows=2 cols=1
[NAME] scope=workbook id=pick kind=formula array=0
  formula=INDEX(xs * 1, %s)
[NAME] scope=workbook id=xs kind=range array=0
  target=s!A1:A2
[DATA] s!A1:A2
1
2
""" % index)
    assert main(["eval", doc]) == 2
    out, err = capsys.readouterr()
    assert "#VALUE!" in out and "Traceback" not in out + err


def test_eval_cycle_exits_two_with_a_note(tmp_path, capsys):
    doc = _write(tmp_path, """#%NAMESDOC v1
[SHEET] s rows=2 cols=2
[NAME] scope=workbook id=pf kind=formula array=0
  formula=qf + 1
[NAME] scope=workbook id=qf kind=formula array=0
  formula=pf + 1
""")
    assert main(["eval", doc]) == 2
    err = capsys.readouterr().err
    assert err.startswith("#CYCLE!") and "pf" in err and "qf" in err


def test_audit_list_cycle_exits_two_with_a_note(tmp_path, capsys):
    doc = _write(tmp_path, CHAIN_DOC.replace("formula=xs * 2",
                                             "formula=total * 2"))
    assert main(["audit", "list", doc]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "#CYCLE! cycle through {dbl, total}\n"


def _formula_names_doc(formulas):
    """A document of formula names over base = 0.1, plus a range head that
    reads f.0001."""
    lines = ["#%NAMESDOC v1", "[SHEET] s rows=2 cols=1",
             "[NAME] scope=workbook id=base kind=range array=0",
             "  target=s!A1"]
    for ident, formula in sorted(formulas.items()):
        lines += ["[NAME] scope=workbook id=%s kind=formula array=0" % ident,
                  "  formula=" + formula]
    lines += ["[NAME] scope=workbook id=head kind=range array=0",
              "  target=s!A2", "  formula=f.0001",
              "[DATA] s!A1", "0.1"]
    return "\n".join(lines) + "\n"


def _eval_scalars(capsys, doc):
    assert main(["eval", doc]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    return {lines[i].split()[1]: float(lines[i + 1])
            for i in range(0, len(lines), 2)}


def test_eval_follows_a_400_name_chain_of_formula_names(tmp_path, capsys):
    n = 400
    formulas = {"f.%04d" % i: "f.%04d + 0.1" % (i + 1) for i in range(1, n)}
    formulas["f.%04d" % n] = "base + 0.1"
    doc = _write(tmp_path, _formula_names_doc(formulas))
    got = _eval_scalars(capsys, doc)
    v = 0.1
    for i in range(n, 0, -1):
        v = v + 0.1
        assert got["f.%04d" % i] == v
    assert got["head"] == v


def test_eval_follows_a_400_name_diamond_of_formula_names(tmp_path, capsys):
    n = 400
    formulas = {"f.%04d" % i: "f.%04d + f.%04d" % (i + 1, i + 2)
                for i in range(1, n - 1)}
    formulas["f.%04d" % (n - 1)] = "f.%04d + base" % n
    formulas["f.%04d" % n] = "base + 0.5"
    doc = _write(tmp_path, _formula_names_doc(formulas))
    got = _eval_scalars(capsys, doc)
    v = {n: 0.1 + 0.5}
    v[n - 1] = v[n] + 0.1
    for i in range(n - 2, 0, -1):
        v[i] = v[i + 1] + v[i + 2]
    for i in range(1, n + 1):
        assert got["f.%04d" % i] == v[i]
    assert got["head"] == v[1]


def test_eval_follows_a_600_name_chain_into_a_sweep(tmp_path, capsys):
    # A recurrence reads the head of a chain of formula names that ends at
    # an input: the chain is constant across the sweep, so it is evaluated
    # whole once instead of being followed per swept cell.
    n = 600
    lines = ["#%NAMESDOC v1", "[SHEET] s rows=2 cols=6",
             "[NAME] scope=workbook id=bal kind=range array=1",
             "  target=s!B1:F1", "  formula=prev + f.0001",
             "[NAME] scope=workbook id=base kind=range array=0",
             "  target=s!A2"]
    for i in range(1, n + 1):
        link = "f.%04d" % (i + 1) if i < n else "base"
        lines += ["[NAME] scope=workbook id=f.%04d kind=formula array=0" % i,
                  "  formula=%s + 0.1" % link]
    lines += ["[NAME] scope=workbook id=opening kind=range array=0",
              "  target=s!A1",
              "[NAME] scope=workbook id=prev kind=range array=0",
              "  target=s!A1:E1", "  derive=shift(bal,0,-1)",
              "[DATA] s!A1", "1.5", "[DATA] s!A2", "0.1"]
    doc = _write(tmp_path, "\n".join(lines) + "\n")
    assert main(["eval", doc, "--name", "bal"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    head, row = out.out.splitlines()
    assert head == "# bal 1x5"
    f = 0.1
    for _ in range(n):
        f = f + 0.1
    want, b = [], 1.5
    for _ in range(5):
        b = b + f
        want.append(b)
    assert [float(x) for x in row.split("\t")] == want


def _eval_chain_into_the_sweep(tmp_path, capsys, n):
    """bal = prev + f.0001 over a 1x5 band, where f.0001 .. f.n is a chain
    of formula names ending at the swept twin; bal's values must equal a
    loop doing the same float operations."""
    lines = ["#%NAMESDOC v1", "[SHEET] s rows=1 cols=6",
             "[NAME] scope=workbook id=bal kind=range array=1",
             "  target=s!B1:F1", "  formula=prev + f.0001"]
    for i in range(1, n + 1):
        link = "f.%04d * 1" % (i + 1) if i < n else "prev * 0.01 + 0.1"
        lines += ["[NAME] scope=workbook id=f.%04d kind=formula array=0" % i,
                  "  formula=" + link]
    lines += ["[NAME] scope=workbook id=opening kind=range array=0",
              "  target=s!A1",
              "[NAME] scope=workbook id=prev kind=range array=0",
              "  target=s!A1:E1", "  derive=shift(bal,0,-1)",
              "[DATA] s!A1", "1.5"]
    doc = _write(tmp_path, "\n".join(lines) + "\n")
    assert main(["eval", doc, "--name", "bal"]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    head, row = out.out.splitlines()
    assert head == "# bal 1x5"
    want, b = [], 1.5
    for _ in range(5):
        f = b * 0.01 + 0.1
        for _ in range(n - 1):
            f = f * 1
        b = b + f
        want.append(b)
    assert [float(x) for x in row.split("\t")] == want


def test_eval_inlines_a_600_name_chain_that_reads_the_sweep(tmp_path,
                                                            capsys):
    # The chain ends at the swept twin, so it is inlined into the sweep:
    # each link is compiled once, after the link it reads, not by
    # recursing down the chain.
    _eval_chain_into_the_sweep(tmp_path, capsys, 600)


def test_eval_inlines_a_1000_name_chain_that_reads_the_sweep(tmp_path,
                                                             capsys):
    # Each inlined link fills rows of its own just before the link that
    # reads it, so running the sweep nests no call per link either.
    _eval_chain_into_the_sweep(tmp_path, capsys, 1000)


def test_unreadable_documents_exit_one(tmp_path, capsys):
    assert main(["eval", str(tmp_path / "missing.nsdoc")]) == 1
    doc = _write(tmp_path, "not a document\n")
    assert main(["eval", doc]) == 1
    doc = _write(tmp_path, "#%NAMESDOC v99\n")
    assert main(["fmt", doc]) == 1
    doc = _write(tmp_path, CHAIN_DOC.replace("SUM(dbl)", "SUM(ghost)"))
    assert main(["lint", doc]) == 1
    assert capsys.readouterr().err.count("\n") == 4


def _one_line_failure(capsys, argv):
    """The stderr line of a command that must exit 1 with one line."""
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.err.count("\n") == 1 and "Traceback" not in out.err
    assert out.out == ""
    return out.err


@pytest.mark.parametrize("header", ["#%NAMESDOC v2", "#%NAMESDOC",
                                    "#%NAMESDOC v1 ", "#%NAMESDOCv1"])
def test_a_refused_header_says_why(tmp_path, capsys, header):
    # The header's tail is quoted as written, so a stray blank shows, and
    # the line ends with the header this reader reads.
    doc = _write(tmp_path, header + "\n[SHEET] s rows=1 cols=1\n")
    err = _one_line_failure(capsys, ["eval", doc])
    assert "version" in err and repr(header[len("#%NAMESDOC"):]) in err
    assert err.endswith(" #%NAMESDOC v1\n")


@pytest.mark.parametrize("argv", [
    ["eval", LOAN_DOC, "--out"],
    ["audit", "graph", LOAN_DOC, "--focus", "debt.balance", "--dot"],
], ids=["eval --out", "audit graph --dot"])
def test_unwritable_output_files_exit_one(tmp_path, capsys, argv):
    # Under a missing directory: a write that fails whoever runs it.
    path = str(tmp_path / "missing" / "out.txt")
    err = _one_line_failure(capsys, argv + [path])
    assert err == "[Errno 2] No such file or directory: %r\n" % path


def test_unreadable_document_files_exit_one(tmp_path, capsys):
    err = _one_line_failure(capsys, ["eval", str(tmp_path)])
    assert err.startswith("[Errno 21] Is a directory")
    path = tmp_path / "utf16.nsdoc"
    path.write_bytes(b"\xff\xfe" + CHAIN_DOC.encode("utf-8"))
    for command in ("eval", "lint", "fmt"):
        err = _one_line_failure(capsys, [command, str(path)])
        assert err == ("%s: 'utf-8' codec can't decode byte 0xff in position "
                       "0: invalid start byte\n" % path)
    assert path.read_bytes()[:2] == b"\xff\xfe"


@pytest.mark.parametrize("extent", ["rows=0 cols=3", "rows=3 cols=0"])
def test_sheets_without_cells_exit_one(tmp_path, capsys, extent):
    text = CHAIN_DOC.replace("rows=3 cols=3", extent)
    doc = _write(tmp_path, text)
    for command in ("eval", "fmt"):
        err = _one_line_failure(capsys, [command, doc])
        assert err == "%s: line 2: sheet extent must be positive\n" % doc
    with open(doc, encoding="utf-8") as fh:
        assert fh.read() == text


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "1_000", "1e999"])
def test_unreadable_data_literals_exit_one(tmp_path, capsys, literal):
    text = CHAIN_DOC.replace("\n1.5\n", "\n%s\n" % literal)
    doc = _write(tmp_path, text)
    assert main(["eval", doc]) == 1
    assert main(["fmt", doc]) == 1
    assert open(doc, encoding="utf-8").read() == text
    err = capsys.readouterr().err
    assert "unreadable literal %r" % literal in err
    assert "Traceback" not in err


def _deep_doc(formula):
    return CHAIN_DOC.replace("formula=xs * 2", "formula=" + formula)


@pytest.mark.parametrize("formula", [
    "(" * 300 + "xs" + ")" * 300,
    " + ".join(["xs"] * 3000),
], ids=["300 nested parentheses", "3000-term sum"])
def test_too_deep_formulas_exit_one(tmp_path, capsys, formula):
    doc = _write(tmp_path, _deep_doc(formula))
    assert main(["eval", doc]) == 1
    err = capsys.readouterr().err
    assert "line 5" in err and "levels" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("formula", ["xs * 2 + \u00b2", "xs * \u0663"],
                         ids=["superscript two", "arabic-indic three"])
def test_non_ascii_digits_exit_one(tmp_path, capsys, formula):
    doc = _write(tmp_path, _deep_doc(formula))
    assert main(["eval", doc]) == 1
    err = capsys.readouterr().err
    assert "line 5" in err and "unexpected character" in err
    assert "Traceback" not in err


def test_formulas_at_the_depth_limits_evaluate_and_format(tmp_path, capsys):
    # 64 nested calls around a 190-term sum: 64 levels of nesting and a
    # tree 254 levels deep, both within the limits.
    formula = "SUM(" * 64 + " + ".join(["xs"] * 190) + ")" * 64
    doc = _write(tmp_path, _deep_doc(formula))
    assert main(["eval", doc, "--name", "total"]) == 0
    assert capsys.readouterr().out == "# total 1x1\n1330\n"
    assert main(["fmt", doc]) == 0
    assert main(["lint", doc, "--output", "total"]) == 0


def _fixture_docs():
    for name in sorted(os.listdir(FIXDIR)):
        if name.endswith(".nsdoc"):
            with open(os.path.join(FIXDIR, name), encoding="utf-8") as fh:
                yield name, fh.read()


def _fixture_and_generated_docs():
    yield from _fixture_docs()
    for seed in (5, 42):
        yield "gen %d" % seed, export_doc(random_workbook(seed))


def test_fmt_output_always_rebuilds(tmp_path, capsys):
    for label, text in _fixture_and_generated_docs():
        doc = _write(tmp_path, text)
        assert main(["fmt", doc]) == 0, label
        written = open(doc, encoding="utf-8").read()
        again = rebuild(written)
        assert export_doc(again) == written, label
        assert evaluate(again) == evaluate(rebuild(text)), label
    assert capsys.readouterr().err == ""


# --- audit ------------------------------------------------------------------

def test_audit_list_formats_each_kind(tmp_path, capsys):
    doc = _write(tmp_path, CHAIN_DOC)
    assert main(["audit", "list", doc]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "xs := s!A1:A2 2x1" in lines
    assert "dbl = xs * 2  @ s!B1:B2 2x1" in lines
    assert "total = SUM(dbl)" in lines
    assert lines.index("xs := s!A1:A2 2x1") < lines.index(
        "dbl = xs * 2  @ s!B1:B2 2x1")


def test_audit_graph_prints_dot(tmp_path, capsys):
    doc = _write(tmp_path, CHAIN_DOC)
    assert main(["audit", "graph", doc, "--focus", "dbl"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph names {")
    assert '"xs" -> "dbl";' in out
    assert '"dbl" -> "total";' in out


def test_audit_graph_radius_and_file_output(tmp_path, capsys):
    dot_path = tmp_path / "slice.dot"
    assert main(["audit", "graph", LOAN_DOC, "--focus", "debt.balance",
                 "--radius", "1", "--dot", str(dot_path)]) == 0
    assert capsys.readouterr().out == ""
    text = dot_path.read_text(encoding="utf-8")
    assert '"←debt.balance" -> "debt.balance" [style=dashed];' in text


def test_audit_graph_unknown_focus_exits_one(tmp_path, capsys):
    doc = _write(tmp_path, CHAIN_DOC)
    assert main(["audit", "graph", doc, "--focus", "ghost"]) == 1
    assert "ghost" in capsys.readouterr().err


# --- lint -------------------------------------------------------------------

def test_lint_clean_document_is_quiet(tmp_path, capsys):
    assert main(["lint", LOAN_DOC, "--output", "principal.repaid"]) == 0
    assert capsys.readouterr().out == ""


def test_lint_warnings_print_but_exit_zero(tmp_path, capsys):
    assert main(["lint", LOAN_DOC]) == 0
    out = capsys.readouterr().out
    assert out == "N4\twarning\tprincipal.repaid\tname is never referenced\n"


def test_lint_errors_exit_three(tmp_path, capsys):
    doc = _write(tmp_path, CHAIN_DOC.replace("formula=SUM(dbl)",
                                             "formula=SUM(dbl) + $J$16"))
    assert main(["lint", doc, "--output", "total"]) == 3
    rows = [line.split("\t") for line in
            capsys.readouterr().out.splitlines()]
    assert ["N2", "error", "total", "grid address $J$16 in formula"] in rows


def test_repeated_main_calls_behave_like_fresh_ones(capsys):
    # main builds its parser once per process; no call sees what an
    # earlier one parsed.
    assert main(["lint", LOAN_DOC, "--output", "principal.repaid"]) == 0
    assert capsys.readouterr().out == ""
    assert main(["lint", LOAN_DOC]) == 0
    assert capsys.readouterr().out == \
        "N4\twarning\tprincipal.repaid\tname is never referenced\n"
    with pytest.raises(SystemExit) as kept:
        main(["lint"])
    kept_err = capsys.readouterr().err
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(["lint"])
    assert (kept.value.code, kept_err) == (fresh.value.code,
                                           capsys.readouterr().err)
    assert kept.value.code == 2 and "usage: namebook lint" in kept_err
    assert cli._parser() is cli._parser()
    assert cli._parser().parse_args(["lint", LOAN_DOC]).output == []


# --- fmt --------------------------------------------------------------------

MESSY_DOC = """#%NAMESDOC v1
[SHEET] s rows=3 cols=3
[NAME] scope=workbook id=total kind=formula array=0
  formula=sum( xs ) * 50%
[NAME] scope=workbook id=xs kind=range array=0
  target=s!A1:A2
[DATA] s!A1:A2
1.50
2
"""


def test_fmt_rewrites_canonically_and_idempotently(tmp_path, capsys):
    doc = _write(tmp_path, MESSY_DOC)
    assert main(["fmt", doc]) == 0
    first = open(doc, encoding="utf-8").read()
    assert "SUM(xs) * 50%" in first
    assert "\n1.5\n" in first
    assert first != MESSY_DOC
    assert main(["fmt", doc]) == 0
    assert open(doc, encoding="utf-8").read() == first
    assert capsys.readouterr().err == ""


def test_fmt_refuses_stray_formula_cells(tmp_path, capsys):
    tainted = MESSY_DOC.replace("1.50", '"=A2+1"')
    doc = _write(tmp_path, tainted)
    assert main(["fmt", doc]) == 1
    assert "s!A1" in capsys.readouterr().err
    # A refused rewrite leaves the document exactly as it was.
    assert open(doc, encoding="utf-8").read() == tainted


# --- the installed entry point ----------------------------------------------

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "namebook.cli", "eval", LOAN_DOC,
         "--name", "interest.rate"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "# interest.rate 1x1\n0.005\n"


def test_eval_loads_no_audit_module(tmp_path):
    # The audit views are imported by audit and lint alone.
    script = ("import sys; from namebook.cli import main; "
              "main(['eval', sys.argv[1], '--out', sys.argv[2]]); "
              "print('namebook.audit' in sys.modules); "
              "main(['lint', sys.argv[1]]); "
              "print('namebook.audit' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", script, LOAN_DOC, str(tmp_path / "v.tsv")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False"
    assert proc.stdout.splitlines()[-1] == "True"


# --- fuzz -------------------------------------------------------------------

_FIXTURE_TEXTS = [text for _, text in _fixture_docs()]
_EXTENT = re.compile(r"(?<=rows=)\d+|(?<=cols=)\d+")
_OFFSET = re.compile(r"(?<=\n  derive=shift\()[^,()]*,(-?\d+),(-?\d+)\)")
_LONG = "9" * 5000  # more digits than int() converts
_CHARS = "0123456789=!:\t\n\"\\(),-+*[] $#%←AZaz."


def _mutate(text, rng):
    """text with one random edit: a character deleted, inserted or
    replaced by a digit, a slice copied, a line dropped or repeated, a
    [SHEET] extent, or one digit of it, dropped or replaced by 0, 1 or
    9, or an extent or a derive offset replaced by 5000 digits."""
    op = rng.randrange(11)
    i = rng.randrange(len(text))
    if op < 2:
        return text[:i] + text[i + 1:]
    if op < 4:
        return text[:i] + rng.choice(_CHARS) + text[i:]
    if op == 4:
        j = rng.randrange(len(text))
        return text[:i] + text[j:j + rng.randint(1, 20)] + text[i:]
    if op < 8:
        return text[:i] + rng.choice("0123456789") + text[i + 1:]
    if op == 8:
        lines = text.split("\n")
        k = rng.randrange(len(lines))
        lines[k:k + 1] = rng.choice(([], [lines[k]] * 2))
        return "\n".join(lines)
    spots = [m.span() for m in _EXTENT.finditer(text)]
    if op == 10:
        spots += [m.span(g) for m in _OFFSET.finditer(text) for g in (1, 2)]
    if not spots:
        return text
    a, b = rng.choice(spots)
    if op == 10:
        return text[:a] + _LONG + text[b:]
    k = rng.randrange(a, b)
    a, b = rng.choice(((a, b), (k, k + 1)))
    return text[:a] + rng.choice(("", "0", "1", "9")) + text[b:]


class _Overtime(BaseException):
    """A fuzz case ran past its time limit (main catches no BaseException,
    so this ends the test)."""


def _overtime(signum, frame):
    raise _Overtime()


def _fuzz_cases(count, seed):
    """Mutated fixture texts, one or two edits each, that declare no
    sheet over 2000 rows or columns, so no case builds a huge sheet; an
    extent of more than 4300 digits is refused before any sheet is
    built."""
    rng = random.Random(seed)
    while count:
        text = rng.choice(_FIXTURE_TEXTS)
        for _ in range(rng.randint(1, 2)):
            text = _mutate(text, rng)
        extents = _EXTENT.findall(text)
        if all(len(e) > 4300 or len(e) < 5 and int(e) <= 2000
               for e in extents):
            count -= 1
            yield text


@pytest.mark.parametrize("seed", range(4))
def test_mutated_fixtures_never_escape_the_exit_codes(tmp_path, capsys, seed):
    # Every command, on every mutant, returns 0, 1, 2 or 3 and raises
    # nothing; a mutant fmt accepts is rewritten into a document that
    # rebuilds, and one holding a number int() cannot convert is refused
    # with exit 1.  Each command run gets 10 seconds.
    doc = str(tmp_path / "mutant.nsdoc")
    seen = set()
    empty_sheets = long_numbers = 0
    before = signal.signal(signal.SIGALRM, _overtime)
    try:
        for n, text in enumerate(_fuzz_cases(100, seed)):
            for argv in (["eval", doc], ["lint", doc], ["audit", "list", doc],
                         ["fmt", doc]):
                with open(doc, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
                signal.setitimer(signal.ITIMER_REAL, 10)
                try:
                    code = main(argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3), (seed, n, argv[0], text)
                if _LONG in text:
                    assert code == 1, (seed, n, argv[0], err)
                    long_numbers += 1
                seen.add(code)
                empty_sheets += "sheet extent must be positive" in err
                if argv[0] == "fmt" and code == 0:
                    with open(doc, encoding="utf-8") as fh:
                        rebuild(fh.read())
    finally:
        signal.signal(signal.SIGALRM, before)
    # The mutants reach both evaluated books and refused ones.
    assert {0, 1} <= seen
    assert empty_sheets and long_numbers
