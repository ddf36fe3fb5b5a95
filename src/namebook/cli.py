"""Command line front end over Names documents.

Four commands, one pipeline: rebuild the workbook from its document,
then evaluate (eval), inspect (audit graph / audit list), check (lint)
or rewrite canonically (fmt).

Exit codes: 0 success, 1 unreadable or malformed document (also an
unknown name given to --focus or --name, or an output file that cannot
be written), 2 evaluation produced error values or hit a cycle, 3 lint
found an error-severity problem.  The commands raise their failures,
and main alone turns each into its exit code and one line on stderr.

eval prints each name as a "# name RxC" line and then its rows as TSV,
rendering every cell through a table keyed by the cell's exact type.
The argument parser is built, and argparse imported, on the first main
call and reused by the later ones in the same process.  The audit views
are imported on first use, by audit and lint, so eval never loads
namebook.audit.
"""

from __future__ import annotations

import functools
import sys

from .docio import (DocSyntaxError, ExportError, UndeclaredName,
                    UnknownVersion, export_doc, rebuild)
from .engine import CycleError, evaluate
from .values import TEXT, Array, CellError, tab_rows
from .workbook import UnknownNameError, WorkbookError


# The audit views this module binds on first use, by _import_audit or by
# an attribute lookup from outside (PEP 562), such as the traced run of
# bench/layers.py wrapping each view.
_AUDIT_VIEWS = ("export_dot", "focus_graph", "has_errors", "linear_listing",
                "lint")


def _import_audit():
    """Bind the audit views in this module; a name already bound stays."""
    from . import audit
    for view in _AUDIT_VIEWS:
        globals().setdefault(view, getattr(audit, view))


def __getattr__(name):
    if name not in _AUDIT_VIEWS:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    _import_audit()
    return globals()[name]


class _DocFailure(Exception):
    """The document was refused; main names the document before it."""


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return rebuild(fh.read())
        except (UnicodeDecodeError, DocSyntaxError, UnknownVersion,
                UndeclaredName, WorkbookError) as exc:
            raise _DocFailure(exc) from None


# The TSV text of each scalar type, looked up by the scalar's exact type:
# every value evaluate makes from a document is one of these.
_SHOW = {
    **TEXT,
    CellError: str,
    str: lambda s: (s.replace("\\", "\\\\").replace("\t", "\\t")
                     .replace("\n", "\\n").replace("\r", "\\r")),
}


def _value_block(display, value):
    """A name's TSV lines: a "# name RxC" header, then one line per row."""
    if isinstance(value, Array):
        rows, width = value.shape
        fields = [_SHOW[type(s)](s) for s in value.flat]
        return ["# %s %dx%d" % (display, rows, width),
                *tab_rows(fields, width)]
    return ["# %s 1x1" % display, _SHOW[type(value)](value)]


def cmd_eval(args) -> int:
    store = evaluate(_load(args.doc))
    items = store.items()
    if args.name is not None:
        items = [(k, v) for k, v in items
                 if store.display[k] == args.name or k[1] == args.name]
        if not items:
            raise UnknownNameError("no name %r in %s" % (args.name, args.doc))
    lines = []
    for key, value in items:
        lines.extend(_value_block(store.display[key], value))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 2 if store.has_errors() else 0


def cmd_audit(args) -> int:
    _import_audit()
    wb = _load(args.doc)
    if args.sub == "list":
        for e in linear_listing(wb):
            if e.kind == "input":
                print("%s := %s %dx%d" % (e.name, e.address,
                                          e.shape[0], e.shape[1]))
            elif e.address is not None:
                print("%s = %s  @ %s %dx%d" % (e.name, e.formula, e.address,
                                               e.shape[0], e.shape[1]))
            else:
                print("%s = %s" % (e.name, e.formula))
        return 0
    dot = export_dot(focus_graph(wb, args.focus, args.radius))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        sys.stdout.write(dot)
    return 0


def cmd_lint(args) -> int:
    _import_audit()
    wb = _load(args.doc)
    findings = lint(wb, outputs=tuple(args.output))
    for f in findings:
        print(f.line())
    return 3 if has_errors(findings) else 0


def cmd_fmt(args) -> int:
    text = export_doc(_load(args.doc))
    with open(args.doc, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="namebook",
        description="evaluate and audit name-driven workbook documents")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a document, print values as TSV")
    p.add_argument("doc")
    p.add_argument("--name", help="print only this name's block")
    p.add_argument("--out", help="write TSV here instead of stdout")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("audit", help="graph and listing views")
    audit_sub = p.add_subparsers(dest="sub", required=True)
    pg = audit_sub.add_parser("graph", help="DOT slice around one name")
    pg.add_argument("doc")
    pg.add_argument("--focus", required=True)
    pg.add_argument("--radius", type=int, default=1)
    pg.add_argument("--dot", help="write DOT here instead of stdout")
    pg.set_defaults(func=cmd_audit)
    pl = audit_sub.add_parser("list", help="workbook as ordered statements")
    pl.add_argument("doc")
    pl.set_defaults(func=cmd_audit)

    p = sub.add_parser("lint", help="name-discipline findings")
    p.add_argument("doc")
    p.add_argument("--output", action="append", default=[],
                   help="name meant to be read externally; exempt from N4")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("fmt", help="rewrite a document in canonical form")
    p.add_argument("doc")
    p.set_defaults(func=cmd_fmt)
    return parser


# One parser serves every main call in a process; parse_args leaves it as
# it was (an "append" option copies its default before appending).
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command.  Every failure becomes its exit code here, and
    prints one line on stderr."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CycleError as exc:
        print("#CYCLE! %s" % exc, file=sys.stderr)
        return 2
    except (_DocFailure, ExportError) as exc:
        print("%s: %s" % (args.doc, exc), file=sys.stderr)
    except (OSError, UnknownNameError) as exc:
        print(exc, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
