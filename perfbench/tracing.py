"""Per-layer spans around the package's public functions, from outside.

``Tracer.install`` replaces each traced function on every module attribute
its callers look it up through (``cdfsat.cli.formula_image``,
``cdfsat.analysis.unit_propagate``, ``DerivationTrace.to_json_dict`` and so
on) and ``Tracer.restore`` puts every original back.  Nothing under ``src/``
changes.

Each call becomes a span: command id, span id, parent span id, layer name,
start, end.  A span's self time is its duration minus the time covered by its
child spans and by the tracer's own bookkeeping.  Work counters are read from
arguments and return values at the same boundaries.  Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter

from cdfsat.semantics import clauses_variable_disjoint, formula_image

# metric name -> (owning module, attribute) pairs that callers look up
TRACED = {
    "cli.main": [("cdfsat.cli", "main")],
    "cli.emit_json": [("cdfsat.cli", "_emit_json")],
    "formula.parse_dimacs": [("cdfsat.cli", "parse_dimacs")],
    "formula.write_dimacs": [("cdfsat.cli", "write_dimacs")],
    "semantics.formula_image": [
        ("cdfsat.cli", "formula_image"),
        ("cdfsat.analysis", "formula_image"),
    ],
    "analysis.classify": [("cdfsat.cli", "classify")],
    "analysis.check_compositionality": [("cdfsat.analysis", "check_compositionality")],
    "analysis.measure_growth": [("cdfsat.cli", "measure_growth")],
    "logic.unit_propagate": [("cdfsat.analysis", "unit_propagate")],
    "logic.propagate_closure": [("cdfsat.analysis", "propagate_closure")],
    "logic.build_implication_graph": [
        ("cdfsat.cli", "build_implication_graph"),
        ("cdfsat.analysis", "build_implication_graph"),
        ("cdfsat.logic", "build_implication_graph"),
    ],
    "logic.solve_2sat": [("cdfsat.cli", "solve_2sat")],
    "logic.implication_graph_to_dot": [("cdfsat.cli", "implication_graph_to_dot")],
    "logic.dpll_solve": [("cdfsat.cli", "dpll_solve")],
    "logic.trace_json": [("cdfsat.logic:DerivationTrace", "to_json_dict")],
    "logic.trace_to_dot": [("cdfsat.cli", "trace_to_dot")],
    "encoders.parse_graph": [("cdfsat.cli", "parse_graph")],
    "encoders.encode_perfect_matching": [("cdfsat.cli", "encode_perfect_matching")],
    "encoders.encode_hamiltonian_cycle": [("cdfsat.cli", "encode_hamiltonian_cycle")],
    "encoders.eulerian_path_exists": [("cdfsat.cli", "eulerian_path_exists")],
}

COUNTERS = (
    "semantics.assignments_swept",
    "semantics.clause_checks",
    "semantics.intractable",
    "analysis.checked_seeds",
    "logic.dpll.trace_nodes",
    "logic.dpll.branches",
    "logic.dpll.backtracks",
    "logic.dpll.depth",
    "encoders.clauses_emitted",
    "cli.stdout_bytes",
)


_IMAGE_SIGNATURE = inspect.signature(formula_image)


def _resolve(owner: str):
    """A module, or a class written as ``module:Class``."""
    module_name, _, cls = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (cmd, id, parent, name, start, end, self)
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.calls: dict[str, int] = dict.fromkeys(TRACED, 0)
        self.errors: dict[str, int] = dict.fromkeys(TRACED, 0)
        self.self_s: dict[str, float] = dict.fromkeys(TRACED, 0.0)
        self.nodes_emitted = 0
        self.command = -1
        self._stack: list[list] = []  # [span id, child-and-bookkeeping seconds]
        self._saved: list[tuple] = []
        self._observers = {
            "semantics.formula_image": self._count_sweep,
            "analysis.check_compositionality": self._count_seeds,
            "logic.dpll_solve": self._count_search,
            "logic.trace_to_dot": self._count_emitted,
            "encoders.encode_perfect_matching": self._count_clauses,
            "encoders.encode_hamiltonian_cycle": self._count_clauses,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name, places in TRACED.items():
            for owner, attr in places:
                target = _resolve(owner)
                original = target.__dict__[attr]
                self._saved.append((target, attr, original))
                setattr(target, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)

    # -- spans ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        observe = self._observers.get(name)

        def traced(*args, **kwargs):
            parent = tracer._stack[-1][0] if tracer._stack else None
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                tracer._close(name, frame, parent, start, end)
                tracer._raised(name, exc)
                raise
            end = perf_counter()
            tracer._close(name, frame, parent, start, end)
            if observe is not None:
                observe(args, kwargs, result)
            if tracer._stack:
                tracer._stack[-1][1] += perf_counter() - end
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def _close(self, name, frame, parent, start, end) -> None:
        self._stack.pop()
        duration = end - start
        own = duration - frame[1]
        self.spans[frame[0]] = (self.command, frame[0], parent, name, start, end, own)
        self.self_s[name] += own
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def _raised(self, name: str, exc: BaseException) -> None:
        if type(exc).__name__ == "IntractableError":
            self.counters["semantics.intractable"] += 1
        else:
            self.errors[name] += 1

    # -- counters read at the boundaries ----------------------------------

    def _count_sweep(self, args, kwargs, result) -> None:
        bound = _IMAGE_SIGNATURE.bind(*args, **kwargs)
        bound.apply_defaults()
        f = bound.arguments["f"]
        cap = bound.arguments["enumeration_cap"]
        materialize_cap = bound.arguments["materialization_cap"]
        n = f.variable_count
        # the routes of formula_image: sweep when n fits both caps, closed
        # form when clauses are disjoint, count-only sweep up to the cap
        swept = n <= cap and (n <= materialize_cap or not clauses_variable_disjoint(f))
        if swept:
            self.counters["semantics.assignments_swept"] += 1 << n
            self.counters["semantics.clause_checks"] += (1 << n) * f.clause_count

    def _count_seeds(self, args, kwargs, result) -> None:
        self.counters["analysis.checked_seeds"] += result.checked_seeds

    def _count_search(self, args, kwargs, result) -> None:
        _, trace = result
        self.counters["logic.dpll.trace_nodes"] += trace.node_count()
        self.counters["logic.dpll.branches"] += trace.branch_count
        self.counters["logic.dpll.backtracks"] += trace.backtrack_count
        self.counters["logic.dpll.depth"] += trace.depth()

    def _count_emitted(self, args, kwargs, result) -> None:
        self.nodes_emitted += result.count(" [label=")

    def _count_clauses(self, args, kwargs, result) -> None:
        self.counters["encoders.clauses_emitted"] += result.formula.clause_count

    # -- results ----------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass means of every per-layer metric, with units."""
        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.errors"] = (self.errors[name] / passes, "count")
        for name, value in self.counters.items():
            out[name] = (value / passes, "bytes" if name == "cli.stdout_bytes" else "count")
        built = self.counters["logic.dpll.trace_nodes"]
        discarded = (built - self.nodes_emitted) / built if built else 0.0
        out["logic.trace_nodes_discarded_share"] = (discarded, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("command", "span", "parent", "name", "start", "end", "self_s")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
