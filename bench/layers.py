"""The traced run: per-layer times from spans around each module's calls.

Spans are recorded from outside the package, by wrapping the module
attributes through which one layer calls the next (`cli` -> `docio`,
`engine`, `audit`; `docio` -> `formula`, `workbook`; `engine`/`audit`
-> the dependency graph).  A span is (name, start, end, parent, op);
they stay in memory and are written out once, when the run ends.  A
layer's self time is its span minus the part its child spans cover.

One traced pass runs the in-process actions eval, fmt and audit with
spans on, over every document at full and at half size (for the
`.growth` exponents), then the same eval with spans off (for the
tracing overhead) and the *cli_eval* child.  The child-process numbers
(`cli.startup_s`, `cli.process_s`) need no spans.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import time

from docs import read_doc
from worker import Runner, child_env

LAYERS = ("formula", "workbook", "docio", "engine", "audit", "cli")
# Layers whose time is reported at half size too, as an exponent.
GROWTH = ("workbook.define_s", "docio.rebuild_s", "docio.export_s",
          "engine.dep_graph_s", "engine.evaluate_s")


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op]
        self.stack = []
        self.op = None
        self.errors = {layer: 0 for layer in LAYERS}
        self.patched = []

    def call(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[name.split(".")[0]] += 1
            raise
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, owner, attr, name):
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        self.patched.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self):
        import namebook.audit as audit
        import namebook.cli as cli
        import namebook.docio as docio
        import namebook.engine as engine
        from namebook.workbook import Workbook
        for attr, name in (("rebuild", "docio.rebuild"),
                           ("export_doc", "docio.export"),
                           ("evaluate", "engine.evaluate"),
                           ("linear_listing", "audit.listing"),
                           ("lint", "audit.lint"),
                           ("focus_graph", "audit.graph"),
                           ("export_dot", "audit.graph")):
            self.wrap(cli, attr, name)
        self.wrap(cli, "main", "cli.main")
        self.wrap(docio, "parse_formula", "formula.parse")
        self.wrap(Workbook, "define_name", "workbook.define")
        for owner in (engine, audit):
            self.wrap(owner, "build_dep_graph", "engine.dep_graph")
            self.wrap(owner, "topo_order", "engine.dep_graph")

    def uninstall(self):
        for owner, attr, fn in reversed(self.patched):
            setattr(owner, attr, fn)
        self.patched = []

    def by_op(self):
        """{op: {span name: (summed time, summed self time)}}."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            sums = out.setdefault(op, {})
            total, own = sums.get(name, (0.0, 0.0))
            sums[name] = (total + end - start, own + end - start - covered[i])
        return out

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _swept_cells(model) -> int:
    """Cells of formula ranges that take part in a recurrence: ranges on
    a reference cycle that passes through a displaced twin."""
    edges = {k: set(n.refs) for k, n in model.names.items()}
    for k, n in model.names.items():
        if n.derive:
            edges[k].add(model.base(n))

    def reach(start):
        seen, todo = set(), [start]
        while todo:
            for v in edges[todo.pop()]:
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return seen

    twins = [k for k, n in model.names.items() if n.derive]
    total = 0
    for k, n in model.names.items():
        if n.formula and n.target and any(
                t in reach(k) and k in reach(t) for t in twins):
            h, w = n.target.shape(model.rows(n.target.sheet))
            total += h * w
    return total


def counts(docs):
    """Work sizes of one pass over the documents, from the documents."""
    from namebook.formula import tokenize
    out = dict.fromkeys(("formula.tokens", "workbook.names", "docio.bytes",
                         "docio.data_cells", "engine.formula_cells",
                         "engine.swept_cells"), 0)
    for d in docs:
        model = read_doc(d.text)
        out["docio.bytes"] += len(d.text.encode("utf-8"))
        out["workbook.names"] += len(model.names)
        out["engine.swept_cells"] += _swept_cells(model)
        for n in model.names.values():
            if n.formula is not None:
                out["formula.tokens"] += len(tokenize(n.formula))
            if n.target is not None:
                h, w = n.target.shape(model.rows(n.target.sheet))
                key = ("engine.formula_cells" if n.formula
                       else "docio.data_cells")
                out[key] += h * w
    return out


def run(full, half, workdir, seconds, spans_path):
    """Per-layer metrics of one workload, given its documents (lists of
    workloads.Doc) at full and at half size."""
    from namebook.docio import rebuild
    from worker import Book

    def books(docs, sub):
        os.makedirs(os.path.join(workdir, sub))
        out = []
        for d in docs:
            with open(os.path.join(workdir, sub, d.name), "w",
                      encoding="utf-8") as fh:
                fh.write(d.text)
            out.append(Book(os.path.join(workdir, sub), vars(d),
                            rebuild(d.text)))
        return out

    sizes = {"full": books(full, "full"), "half": books(half, "half")}
    runner = Runner(workdir)
    tracer = Tracer()
    traced, untraced, process = [], [], []
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes < 3 or time.perf_counter() < deadline:
        traced_eval = 0.0
        tracer.install()
        try:
            for tag, bks in sizes.items():
                for book in bks:
                    for action in ("eval", "fmt", "audit"):
                        tracer.op = (tag, passes, action)
                        dt = runner.op(action, book) or 0.0
                        if tag == "full" and action == "eval":
                            traced_eval += dt
            tracer.op = None
        finally:
            tracer.uninstall()
        traced.append(traced_eval)
        untraced.append(sum(runner.op("eval", b) or 0.0
                            for b in sizes["full"]))
        process.append(sum(runner.op("cli_eval", b) or 0.0
                           for b in sizes["full"]))
        passes += 1
    tracer.dump(spans_path)

    startup = []
    for _ in range(5):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import namebook.cli"],
                       env=child_env(), check=True, timeout=60)
        startup.append(time.perf_counter() - t)

    ops = tracer.by_op()

    def at(tag, p, action, span, self_time=False):
        return ops.get((tag, p, action), {}).get(span, (0.0, 0.0))[self_time]

    def med(tag, action, span, self_time=False):
        return statistics.median(at(tag, p, action, span, self_time)
                                 for p in range(passes))

    where = {
        "formula.parse_s": ("eval", "formula.parse"),
        "workbook.define_s": ("eval", "workbook.define"),
        "docio.rebuild_s": ("eval", "docio.rebuild"),
        "docio.export_s": ("fmt", "docio.export"),
        "engine.dep_graph_s": ("eval", "engine.dep_graph"),
        "engine.evaluate_s": ("eval", "engine.evaluate"),
        "audit.listing_s": ("audit", "audit.listing"),
        "audit.lint_s": ("audit", "audit.lint"),
        "audit.graph_s": ("audit", "audit.graph"),
        "cli.main_s": ("eval", "cli.main"),
    }
    size = counts(full)
    metrics = {}
    for name, (action, span) in where.items():
        metrics[name] = (med("full", action, span), "s")
    # Full and half size run seconds apart in the same pass, so the ratio
    # is taken per pass, before the host's speed can drift between them.
    # A pass whose op failed before reaching the span has nothing to give.
    for name in GROWTH:
        action, span = where[name]
        ratios = [math.log2(at("full", p, action, span)
                            / at("half", p, action, span))
                  for p in range(passes) if at("full", p, action, span)
                  and at("half", p, action, span)]
        metrics[name + ".growth"] = (statistics.median(ratios or [0.0]),
                                     "exponent")
    metrics["docio.rebuild_self_s"] = (med("full", "eval", "docio.rebuild",
                                           True), "s")
    metrics["cli.self_s"] = (med("full", "eval", "cli.main", True), "s")
    evaluate_s = metrics["engine.evaluate_s"][0]
    metrics["engine.cells_per_s"] = (
        size["engine.formula_cells"] / evaluate_s if evaluate_s else 0.0,
        "1/s")
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    metrics["cli.process_s"] = (statistics.median(process), "s")
    metrics["trace.overhead"] = (statistics.median(traced)
                                 / statistics.median(untraced) - 1, "ratio")
    for name, n in size.items():
        metrics[name] = (n, "B" if name == "docio.bytes" else "count")
    for layer, n in tracer.errors.items():
        metrics[layer + ".errors"] = (n, "count")
    return metrics, runner
