"""Spans and counters at the program's public layer boundaries.

Every boundary is wrapped from outside: the function (or method) named in
:data:`BOUNDARIES` is replaced by a wrapper in every loaded ``repro``
module that bound it (``table1.py`` imports ``asic_map`` by name, for
example), and the original is put back by :meth:`Tracer.close`.  Spans
(name, start, end, parent, op id) stay in memory until the run writes its
result file; a layer's self time is its span minus its child spans.

The same rebinding also serves untraced runs: :class:`Capture` only keeps
a reference to each netlist and LUT network the mappers return, so the
checker can verify them after the op, outside the timed region.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional

#: (module, attribute, span name); ``Class.method`` wraps a method
BOUNDARIES = (
    ("repro.experiments.common", "preoptimize", "opt.preopt"),
    ("repro.mapping.engine", "MappingSession.cut_database", "cuts.build"),
    ("repro.synthesis.strategies", "synthesize_candidates", "synthesis.candidates"),
    ("repro.core.mch", "build_mch", "core.build_mch"),
    ("repro.core.dch", "build_dch", "core.build_dch"),
    ("repro.mapping.asic_mapper", "asic_map", "mapping.asic_map"),
    ("repro.mapping.engine", "run_cover", "mapping.cover"),
    ("repro.mapping.lut_mapper", "lut_map", "mapping.lut_map"),
    ("repro.mapping.graph_mapper", "graph_map", "mapping.graph_map"),
    ("repro.sat.session", "EquivalenceSession.prove_equal", "sat.prove"),
    ("repro.batch.store", "ResultStore.append_result", "batch.store"),
)


#: modules that bind the boundaries by name; imported before any rebinding,
#: so none of them can import a wrapper that an undo would then miss
BINDERS = ("repro", "repro.experiments.table1", "repro.experiments.table2",
           "repro.flow", "repro.batch", "repro.serve")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def rebind(module: str, attr: str, make: Callable) -> Callable:
    """Replace ``module.attr`` by ``make(original)`` everywhere it is bound;
    returns an undo callable."""
    for binder in BINDERS:
        importlib.import_module(binder)
    owner, name = _resolve(module, attr)
    original = owner.__dict__[name]
    wrapper = make(original)
    undo = [(owner, name, original)]
    setattr(owner, name, wrapper)
    if isinstance(owner, type):
        return lambda: setattr(owner, name, original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or not (mod_name == "repro"
                                or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))

    def restore():
        for target, key, value in undo:
            setattr(target, key, value)
    return restore


class Capture:
    """Keeps every netlist ``asic_map`` and every LUT network ``lut_map``
    returns, for checking after the op."""

    def __init__(self):
        self.outputs: List[tuple] = []          # (kind, network)
        self._undo: List[Callable] = []

    def install(self) -> "Capture":
        for module, attr, kind in (
                ("repro.mapping.asic_mapper", "asic_map", "netlist"),
                ("repro.mapping.lut_mapper", "lut_map", "lut")):
            def make(fn, kind=kind):
                @functools.wraps(fn)
                def keep(*args, **kwargs):
                    out = fn(*args, **kwargs)
                    self.outputs.append((kind, out))
                    return out
                return keep
            self._undo.append(rebind(module, attr, make))
        return self

    def take(self) -> List[tuple]:
        out, self.outputs = self.outputs, []
        return out

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()


class Tracer:
    """In-memory spans over :data:`BOUNDARIES`, plus per-call counters.

    ``spans`` rows are ``[name, start, end, parent, op]``; ``parent`` is
    the index of the enclosing span (-1 for an op's root span).
    """

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[str] = None
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        self.flow_passes: List[tuple] = []        # (op, pass name, seconds)
        self._undo: List[Callable] = []
        self._flow_depth = 0

    # -- spans ----------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close_span(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    # -- wrapping -------------------------------------------------------------

    def install(self) -> "Tracer":
        for module, attr, span in BOUNDARIES:
            self._undo.append(rebind(module, attr,
                                     functools.partial(self._wrap, span)))
        self._undo.append(rebind("repro.flow.runner", "FlowRunner.run",
                                 self._wrap_flow_run))
        return self

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, span: str, fn: Callable) -> Callable:
        key = span.replace(".", "_")
        before = getattr(self, "_before_" + key, None)
        after = getattr(self, "_after_" + key, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            index = self.open(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close_span(index)
            if after:
                after(state, out)
            return out
        return traced

    def _wrap_flow_run(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def run(*args, **kwargs):
            self._flow_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._flow_depth -= 1
            if self._flow_depth == 0:
                self.flow_passes += [(self.op, m.name, m.seconds)
                                     for m in result.metrics]
            return result
        return run

    # -- per-boundary counters ------------------------------------------------

    def _before_cuts_build(self, args):
        session, k, cut_limit = args[:3]
        return (k, cut_limit) not in session._databases

    def _after_cuts_build(self, built, db):
        if built:
            self.count("cuts.dbs")
            self.count("cuts.cuts", db.num_cuts())

    def _after_synthesis_candidates(self, _state, _out):
        self.count("synthesis.calls")

    def _after_core_build_mch(self, _state, choice_network):
        self.count("core.choices", choice_network.num_choices())

    _after_core_build_dch = _after_core_build_mch

    def _after_mapping_asic_map(self, _state, _out):
        self.count("mapping.asic_calls")

    def _after_sat_prove(self, _state, verdict):
        self.count("sat.queries")
        if verdict is True:
            self.count("sat.proved")


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _name, start, end, _parent, _op in spans]
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
