"""Name-driven workbook engine.

A workbook here is a set of sheets plus defined names; every named range
or named formula is declared up front, formulas refer to one another by
name only, and the whole model round-trips through a plain text Names
document.

The names below are imported from their modules on first use (PEP 562),
so a command loads only the modules it needs: `namebook eval` never
imports namebook.audit.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "values": ("Array", "CellError", "CYCLE_ERROR", "DIV0_ERROR",
               "NAME_ERROR", "NULL_ERROR", "REF_ERROR", "VALUE_ERROR",
               "format_number"),
    "formula": ("Expr", "LexError", "ParseError", "is_identifier",
                "names_referenced", "parse_formula", "render", "tokenize"),
    "workbook": ("GridRange", "NameDef", "RefError", "Sheet",
                 "UnknownNameError", "Workbook", "WorkbookError", "parse_a1",
                 "shift_name"),
    "engine": ("BUILTIN_FUNCTIONS", "CycleError", "DepGraph", "ValueStore",
               "build_dep_graph", "evaluate", "topo_order"),
    "docio": ("DocSyntaxError", "ExportError", "UndeclaredName",
              "UnknownVersion", "export_doc", "rebuild",
              "stray_formula_cells"),
    "audit": ("Finding", "GraphSlice", "ListingEntry", "export_dot",
              "focus_graph", "has_errors", "linear_listing", "lint"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value
