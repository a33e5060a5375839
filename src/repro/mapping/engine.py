"""Shared mapping engine: sessions, cut databases, cost models, pass pipeline.

This module is the common substrate of all three cut-based mappers:

* :class:`MappingSession` owns the expensive per-network state — the
  processing order, the PO-reachable node set, initial fanout reference
  estimates and one flat :class:`~repro.cuts.database.CutDatabase` per
  ``(k, cut_limit)`` — computed once and shared by every mapper pass and
  consumer.  Sessions are cached on the subject network and invalidated
  automatically when the network (or its choice structure) mutates.
* The :class:`CostModel` protocol is the cost layer of the single-phase
  mappers: the K-LUT mapper uses :class:`UnitCostModel` (one LUT per cut)
  and graph mapping uses :class:`NpnCostModel` (estimated
  target-representation gate count).  The phase-aware ASIC mapper runs its
  own cover over :class:`LibraryCostModel`'s match templates, compiled
  once per cut function.
* :func:`run_cover` is the covering pipeline of the LUT and graph mappers —
  depth-oriented pass, global required times, area-flow recovery and
  exact-area recovery with reference counting — run over per-cut records
  read off the flat cut arrays, with costs compiled once per cut function.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple, Union

from ..core.choice import ChoiceNetwork
from ..cuts.cut import Cut
from ..cuts.database import CutDatabase
from ..cuts.enumeration import expand_cache_stats
from ..networks.base import GateType, LogicNetwork, require_combinational
from ..synthesis.npn_db import NpnCostCache
from ..truth.truth_table import TruthTable

__all__ = [
    "MappingSession",
    "MappingCover",
    "CostModel",
    "UnitCostModel",
    "NpnCostModel",
    "LibraryCostModel",
    "library_cost_model",
    "run_cover",
]

INF = float("inf")
_PI = int(GateType.PI)   # node kinds above PI are gates

Subject = Union[LogicNetwork, ChoiceNetwork, "MappingSession"]


# ---------------------------------------------------------------------- #
# session                                                                 #
# ---------------------------------------------------------------------- #

class MappingSession:
    """Shared mapping state for one subject network (plain or choice).

    All derived structures are computed lazily, memoized, and shared by
    reference — treat everything a session hands out as read-only.
    """

    def __init__(self, subject: Union[LogicNetwork, ChoiceNetwork]):
        if isinstance(subject, MappingSession):
            raise TypeError("subject is already a MappingSession; use MappingSession.of")
        if isinstance(subject, ChoiceNetwork):
            self.subject = subject
            self.ntk: LogicNetwork = subject.ntk
            require_combinational(self.ntk, "MappingSession")
            self.choices: Optional[Dict[int, List[Tuple[int, bool]]]] = subject.choices_of
        else:
            require_combinational(subject, "MappingSession")
            self.subject = subject
            self.ntk = subject
            self.choices = None
        self._network_version = self.ntk.version
        self._num_choices = self._count_choices()
        self._order: Optional[List[int]] = None
        self._gate_nodes: Optional[List[int]] = None
        self._reachable: Optional[set] = None
        self._initial_refs: Optional[List[int]] = None
        self._databases: Dict[Tuple[int, int], CutDatabase] = {}

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def of(cls, subject: Subject) -> "MappingSession":
        """The session of ``subject``, reusing a cached one when still valid.

        Sessions attach themselves to the subject object, so mapping the
        same network (or choice network) repeatedly — e.g. a delay- and an
        area-oriented run in one experiment — shares one cut database.
        """
        if isinstance(subject, MappingSession):
            return subject
        cached = getattr(subject, "_mapping_session", None)
        if cached is not None and cached.is_current():
            return cached
        session = cls(subject)
        try:
            subject._mapping_session = session
        except AttributeError:
            pass  # subjects with __slots__ simply don't cache
        return session

    def _count_choices(self) -> int:
        if self.choices is None:
            return 0
        return sum(len(v) for v in self.choices.values())

    def is_current(self) -> bool:
        """True while the subject has not structurally changed."""
        return (self.ntk.version == self._network_version
                and self._count_choices() == self._num_choices)

    # -- shared derived state ---------------------------------------------

    def order(self) -> List[int]:
        """Node processing order (choice roots before representatives)."""
        if self._order is None:
            if isinstance(self.subject, ChoiceNetwork):
                self._order = self.subject.processing_order()
            else:
                self._order = self.ntk.topological_order()
        return self._order

    def gate_nodes(self) -> List[int]:
        """Gate nodes in processing order."""
        if self._gate_nodes is None:
            ntk = self.ntk
            self._gate_nodes = [m for m in self.order() if ntk.is_gate(m)]
        return self._gate_nodes

    def reachable(self) -> set:
        """Nodes inside the PO-reachable structure (choice cones excluded)."""
        if self._reachable is None:
            ntk = self.ntk
            reach = set()
            stack = [p >> 1 for p in ntk.pos]
            while stack:
                x = stack.pop()
                if x in reach:
                    continue
                reach.add(x)
                stack.extend(f >> 1 for f in ntk.fanins(x))
            self._reachable = reach
        return self._reachable

    def initial_refs(self) -> List[int]:
        """Structural fanout counts over the PO-reachable structure only.

        This is the initial sharing estimate of the area-flow passes; choice
        candidate cones are excluded so they do not inflate fanout counts.
        Callers must copy before mutating.
        """
        if self._initial_refs is None:
            ntk = self.ntk
            refs = [0] * ntk.num_nodes()
            for x in self.reachable():
                for f in ntk.fanins(x):
                    refs[f >> 1] += 1
            self._initial_refs = refs
        return self._initial_refs

    def cut_database(self, k: int, cut_limit: int) -> CutDatabase:
        """The flat cut database for ``(k, cut_limit)``, built once."""
        key = (k, cut_limit)
        db = self._databases.get(key)
        if db is None:
            db = CutDatabase(self.ntk, k=k, cut_limit=cut_limit,
                             order=self.order(), choices=self.choices)
            self._databases[key] = db
        return db

    def stats(self) -> dict:
        """Aggregate engine statistics (cut databases + expansion cache)."""
        out = {
            "network_nodes": self.ntk.num_nodes(),
            "choices": self._num_choices,
            "databases": {
                f"k={k},limit={l}": db.stats for (k, l), db in self._databases.items()
            },
            "expand_cache": expand_cache_stats(),
        }
        return out

    def __repr__(self) -> str:
        dbs = ",".join(f"({k},{l})" for k, l in self._databases)
        return (f"<MappingSession nodes={self.ntk.num_nodes()} "
                f"choices={self._num_choices} dbs=[{dbs}]>")


# ---------------------------------------------------------------------- #
# cost models                                                             #
# ---------------------------------------------------------------------- #

class CostModel:
    """Protocol of the unified cut cost layer.

    :meth:`function_costs` gives ``(cost, delay)`` of a cut from its
    function alone — the area charged for selecting the cut and the delay
    through it — so the cover compiles both once per distinct cut function.
    """

    def function_costs(self, num_vars: int, bits: int) -> Tuple[float, float]:
        raise NotImplementedError

    def cut_cost(self, cut: Cut) -> float:
        return self.function_costs(cut.tt.num_vars, cut.tt.bits)[0]

    def cut_delay(self, cut: Cut) -> float:
        return self.function_costs(cut.tt.num_vars, cut.tt.bits)[1]


class UnitCostModel(CostModel):
    """K-LUT costs: every cut is one LUT, one level."""

    def function_costs(self, num_vars: int, bits: int) -> Tuple[float, float]:
        return 1.0, 1


class NpnCostModel(CostModel):
    """Graph-mapping costs: estimated gate count / depth of resynthesizing
    the cut function in the target representation.

    Results are memoized per raw cut function, so the NPN canonicalization
    inside :class:`NpnCostCache` runs once per distinct function instead of
    once per (cut, pass) pair.
    """

    def __init__(self, target_cls: type, objective: str,
                 cache: Optional[NpnCostCache] = None):
        self.cache = cache if cache is not None and cache.rep_cls is target_cls \
            else NpnCostCache(target_cls)
        self.synth_objective = "area" if objective == "area" else "level"
        self._memo: Dict[Tuple[int, int], Tuple[str, int, int, bool]] = {}

    def best(self, tt: TruthTable) -> Tuple[str, int, int, bool]:
        """(method, gates, depth, has_support) for a cut function."""
        key = (tt.num_vars, tt.bits)
        got = self._memo.get(key)
        if got is None:
            method, gates, depth = self.cache.best_method(tt, self.synth_objective)
            got = (method, gates, depth, bool(tt.support()))
            self._memo[key] = got
        return got

    def function_costs(self, num_vars: int, bits: int) -> Tuple[float, float]:
        if num_vars <= 1:   # a wire: nothing to resynthesize
            return 0.0, 0
        _, gates, depth, has_support = self.best(TruthTable(num_vars, bits))
        return float(gates), (max(depth, 1) if has_support else 0)


class LibraryCostModel:
    """Boolean-matching cost layer for standard-cell mapping.

    Owns the pre-expanded :class:`~repro.mapping.matcher.MatchTable` of a
    library and compiles every cut function it sees into match templates
    for both output phases, once per process, so no (cut, phase, pass) of
    the phase-aware mapper repeats a min-base reduction or match lookup.
    The memo needs no bound: its keys are functions of at most
    ``max_pins`` <= 4 inputs, about 65.8k of them.
    """

    def __init__(self, library, max_pins: int = 4):
        from .matcher import MatchTable  # local import: avoid cycle at module load

        self.library = library
        self.max_pins = min(max_pins, library.max_pins)
        self.table = MatchTable(library, max_pins=self.max_pins)
        self.inverter = library.inverter
        self._templates: Dict[Tuple[int, int], Tuple[tuple, tuple]] = {}

    def phase_matches(self, tt_vars: int, tt_bits: int) -> Tuple[tuple, tuple]:
        """Match templates of a raw cut function, for output phases 0 and 1.

        Each phase is a tuple of ``(area, pins, match)`` in match-table
        order, one pin ``(cut_var, leaf_phase, pin_delay)`` per cell pin.  A
        function that is constant under a phase gets the one constant entry
        ``(0.0, (), value)`` instead.  Memoized: repeat calls return the
        same objects.
        """
        key = (tt_vars, tt_bits)
        got = self._templates.get(key)
        if got is None:
            tt = TruthTable(tt_vars, tt_bits)
            got = (self._templates_of(tt), self._templates_of(~tt))
            self._templates[key] = got
        return got

    def _templates_of(self, tt: TruthTable) -> tuple:
        small, sup = tt.min_base()
        if small.num_vars == 0:
            return ((0.0, (), small.is_const1()),)
        return tuple(
            (m.cell.area,
             tuple((sup[v], int(ph), d)
                   for v, ph, d in zip(m.leaf_of_pin, m.pin_phases, m.cell.pin_delays)),
             m)
            for m in self.table.lookup(small)
        )

    def stats(self) -> dict:
        return {
            "library": self.library.name,
            "table_entries": self.table.num_entries(),
            "template_memo": len(self._templates),
        }


# One cost model per (library object, pin bound): the match table expansion
# is expensive and libraries are immutable in practice.  Keyed by object id
# with a strong reference kept inside the model (so ids cannot be recycled
# while cached) and bounded LRU-style so sweeps over many parsed libraries
# cannot leak match tables.
_LIBRARY_MODELS: "OrderedDict[Tuple[int, int], LibraryCostModel]" = OrderedDict()
_LIBRARY_MODELS_LIMIT = 8


def library_cost_model(library, max_pins: int = 4) -> LibraryCostModel:
    """Shared :class:`LibraryCostModel` of a library (built once, LRU-bounded)."""
    key = (id(library), max_pins)
    model = _LIBRARY_MODELS.get(key)
    if model is None:
        model = LibraryCostModel(library, max_pins=max_pins)
        _LIBRARY_MODELS[key] = model
        while len(_LIBRARY_MODELS) > _LIBRARY_MODELS_LIMIT:
            _LIBRARY_MODELS.popitem(last=False)
    else:
        _LIBRARY_MODELS.move_to_end(key)
    return model


def library_model_stats() -> List[dict]:
    """``stats()`` of every cached :class:`LibraryCostModel`."""
    return [model.stats() for model in _LIBRARY_MODELS.values()]


# ---------------------------------------------------------------------- #
# the covering pipeline                                                   #
# ---------------------------------------------------------------------- #

@dataclass
class MappingCover:
    """Result of the covering phase: which cut realizes which node."""

    ntk: LogicNetwork
    selection: Dict[int, Cut]          # covered node -> selected cut
    order: List[int]                   # covered nodes in topological order
    depth: int
    area: float
    po_literals: List[int]
    po_names: List[str]
    pi_names: List[str]
    pi_nodes: List[int]


def run_cover(session: MappingSession, cost_model: CostModel, *,
              k: int = 6, cut_limit: int = 8, objective: str = "delay",
              flow_iterations: int = 1, exact_iterations: int = 2) -> MappingCover:
    """Cover the session's network with cuts under a cost model.

    The classic priority-cuts pipeline (Mishchenko et al., ICCAD'07 /
    FPGA'06): a depth-oriented pass, global required-time computation,
    area-flow recovery passes and exact-area recovery passes with reference
    counting.  The LUT and graph mappers consume this one implementation.
    """
    if objective not in ("delay", "area"):
        raise ValueError("objective must be 'delay' or 'area'")
    return _CoverPipeline(session, cost_model, k, cut_limit, objective,
                          flow_iterations, exact_iterations).run()


class _CoverPipeline:
    """The cover over per-cut records ``(leaves, cost, delay, index)``,
    read straight off the cut database's flat arrays; ``index`` is the
    record's position there, so only the selected cuts become :class:`Cut`
    objects."""

    def __init__(self, session, cost_model, k, cut_limit, objective,
                 flow_iterations, exact_iterations):
        self.session = session
        self.ntk = ntk = session.ntk
        self.order = session.order()
        self.objective = objective
        self.flow_iterations = flow_iterations
        self.exact_iterations = exact_iterations
        self.cost_model = cost_model
        self.db = session.cut_database(k, cut_limit)
        self.is_gate = [kind > _PI for kind in ntk.flat.kind]
        self.po_gate_nodes = [p >> 1 for p in ntk.pos if self.is_gate[p >> 1]]

    def _records(self, gate_nodes: List[int]) -> Dict[int, List[tuple]]:
        """Per gate node, the records of the cuts it may be implemented by:
        every cut except its own trivial cut (single-leaf cuts of *other*
        nodes — absorbed choice buffers — stay usable)."""
        db = self.db
        # (cost, delay) compiled once per distinct cut function
        compiled = lru_cache(maxsize=None)(self.cost_model.function_costs)
        costs = list(map(compiled, db.tt_vars, db.tt_bits))
        db_leaves, spans = db.leaves, db.spans
        usable: Dict[int, List[tuple]] = {}
        for m in gate_nodes:
            own = (m,)
            start, end = spans[m]
            usable[m] = [(leaves, cd[0], cd[1], i)
                         for i, leaves, cd in zip(range(start, end), db_leaves[start:end],
                                                  costs[start:end])
                         if leaves and leaves != own]
        return usable

    def run(self) -> MappingCover:
        n = self.ntk.num_nodes()
        gate_nodes = self.session.gate_nodes()
        usable = self._records(gate_nodes)
        arrival = [0.0] * n
        flow = [0.0] * n
        best: List[Optional[tuple]] = [None] * n
        arrival_of = arrival.__getitem__

        def select(refs: List[int], required: List[float], delay_first: bool) -> None:
            """Each node's best cut by (arrival, area flow), or by (area
            flow, arrival), among the cuts that meet its required time."""
            # share[x] == flow[x] / refs[x], kept in step with flow
            share = [f / r for f, r in zip(flow, refs)]
            share_of = share.__getitem__
            for m in gate_nodes:
                req = required[m]
                best_key = (INF, INF)
                for rec in usable[m]:
                    leaves, cost, delay, _ = rec
                    arr = delay + max(map(arrival_of, leaves))
                    if arr > req:
                        continue
                    fl = cost + sum(map(share_of, leaves))
                    key = (arr, fl) if delay_first else (fl, arr)
                    if key < best_key:
                        best_key = key
                        best[m] = rec
                        arrival[m] = arr
                        flow[m] = fl
                        share[m] = fl / refs[m]
                if best[m] is None:
                    raise RuntimeError(f"node {m} has no usable cut")

        # ---- pass 1: depth-oriented ----
        select([max(1, r) for r in self.session.initial_refs()], [INF] * n,
               self.objective == "delay")
        required = self._compute_required(arrival, best)

        # ---- pass 2+: area flow under required-time constraint ----
        for _ in range(self.flow_iterations):
            select([max(1, r) for r in self._cover_refs(best)], required, False)
            required = self._compute_required(arrival, best)

        # ---- pass 3+: exact local area ----
        is_gate = self.is_gate

        def cut_ref(rec: tuple) -> float:
            area = rec[1]
            for l in rec[0]:
                map_refs[l] += 1
                if map_refs[l] == 1 and is_gate[l]:
                    area += cut_ref(best[l])
            return area

        def cut_deref(rec: tuple) -> float:
            area = rec[1]
            for l in rec[0]:
                map_refs[l] -= 1
                if map_refs[l] == 0 and is_gate[l]:
                    area += cut_deref(best[l])
            return area

        for _ in range(self.exact_iterations):
            map_refs = self._cover_refs(best)
            for m in gate_nodes:
                if map_refs[m] == 0:
                    continue
                old_rec = best[m]
                cut_deref(old_rec)
                req = required[m]
                best_key = (INF, INF)
                best_rec = old_rec
                for rec in usable[m]:
                    arr = rec[2] + max(map(arrival_of, rec[0]))
                    if arr > req:
                        continue
                    area = cut_ref(rec)
                    cut_deref(rec)
                    key = (area, arr)
                    if key < best_key:
                        best_key = key
                        best_rec = rec
                        arrival[m] = arr
                best[m] = best_rec
                cut_ref(best_rec)
            required = self._compute_required(arrival, best)

        return self._derive_cover(best)

    # -- helpers -------------------------------------------------------------

    def _compute_required(self, arrival: List[float],
                          best: List[Optional[tuple]]) -> List[float]:
        is_gate = self.is_gate
        required = [INF] * len(arrival)
        if self.objective == "delay":
            po_gate_nodes = self.po_gate_nodes
            target = max((arrival[m] for m in po_gate_nodes), default=0)
            for m in po_gate_nodes:
                required[m] = target
            # reverse topological propagation through selected cuts
            for m in reversed(self.order):
                rec = best[m]
                if not is_gate[m] or required[m] == INF or rec is None:
                    continue
                slack = required[m] - rec[2]
                for l in rec[0]:
                    if slack < required[l]:
                        required[l] = slack
        return required

    def _cover_refs(self, best: List[Optional[tuple]]) -> List[int]:
        """Reference counts of the cover induced by the current best cuts."""
        is_gate = self.is_gate
        refs = [0] * len(is_gate)
        stack = self.po_gate_nodes
        for m in stack:
            refs[m] += 1
        seen = set(stack)
        work = list(seen)
        while work:
            m = work.pop()
            for l in best[m][0]:
                refs[l] += 1
                if is_gate[l] and l not in seen:
                    seen.add(l)
                    work.append(l)
        return refs

    def _derive_cover(self, best: List[Optional[tuple]]) -> MappingCover:
        ntk = self.ntk
        is_gate = self.is_gate
        chosen: Dict[int, tuple] = {}
        stack = list(self.po_gate_nodes)
        while stack:
            m = stack.pop()
            if m in chosen:
                continue
            chosen[m] = rec = best[m]
            for l in rec[0]:
                if is_gate[l]:
                    stack.append(l)
        order = [m for m in self.order if m in chosen]
        area = sum(rec[1] for rec in chosen.values())
        lev: Dict[int, int] = {}
        for m in order:
            rec = chosen[m]
            lev[m] = rec[2] + max((lev.get(l, 0) for l in rec[0]), default=0)
        depth_val = max((lev[m] for m in self.po_gate_nodes), default=0)
        cut = self.db.cut
        return MappingCover(
            ntk=ntk,
            selection={m: cut(rec[3]) for m, rec in chosen.items()},
            order=order,
            depth=depth_val,
            area=area,
            po_literals=ntk.pos,
            po_names=ntk.po_names,
            pi_names=ntk.pi_names,
            pi_nodes=ntk.pis,
        )
