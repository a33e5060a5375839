"""Phase-aware standard-cell technology mapping.

The classical cut-based ASIC mapper (Chatterjee et al., TCAD'06; ABC's
``map`` / ``&nf``): every node is mapped in both polarities, cut functions
are Boolean-matched against the library in both phases, inverters connect the
two polarities where profitable, and delay / area-flow passes select the
cover under required times.  Like the rest of the mapping stack it is
choice-aware — handing it a :class:`~repro.core.choice.ChoiceNetwork` built
by MCH turns it into the paper's MCH-based ASIC mapper (Algorithm 3).

Delay model: fixed per-pin cell delays in ps, load-independent (see
``asap7.py``).  Objectives: ``'delay'`` minimizes arrival then recovers area
under required times; ``'area'`` minimizes area flow directly.

Cuts come from the shared :class:`~repro.mapping.engine.MappingSession` cut
database, read straight from its flat arrays, and Boolean matching runs
through the process-wide :class:`~repro.mapping.engine.LibraryCostModel`,
which compiles every cut function's matches in both phases once.  An
implementation of a (node, phase) is a resolved ``(area, pins, match)``
tuple whose pins are ``(leaf, leaf_phase, pin_delay)``; a constant has no
pins and its value in the match slot, and the inverter is one sentinel per
mapper.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple, Union

from ..core.choice import ChoiceNetwork
from ..networks.base import LogicNetwork
from ..networks.netlist import CellNetlist
from .library import Library
from .asap7 import asap7_library
from .engine import MappingSession, library_cost_model

__all__ = ["AsicMapper", "asic_map"]

INF = float("inf")


class AsicMapper:
    """Cut-based Boolean-matching mapper onto a standard-cell library."""

    def __init__(self, subject: Union[LogicNetwork, ChoiceNetwork, MappingSession],
                 library: Optional[Library] = None, objective: str = "delay",
                 cut_limit: int = 8, flow_iterations: int = 2,
                 exact_iterations: int = 2):
        self.session = MappingSession.of(subject)
        self.ntk = self.session.ntk
        self.choices = self.session.choices
        self.order = self.session.order()
        if objective not in ("delay", "area"):
            raise ValueError("objective must be 'delay' or 'area'")
        self.lib = library or asap7_library()
        self.objective = objective
        self.costs = library_cost_model(self.lib, max_pins=4)
        self.k = self.costs.max_pins
        self.cut_limit = cut_limit
        self.flow_iterations = flow_iterations
        self.exact_iterations = exact_iterations
        self.inv = self.lib.inverter
        #: the implementation "invert the other phase of this node"
        self.inv_impl = (self.inv.area, None, None)

    # ------------------------------------------------------------------ #

    def run(self) -> CellNetlist:
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 4 * self.ntk.num_nodes() + 1000))
        try:
            return self._run()
        finally:
            sys.setrecursionlimit(old_limit)

    def _run(self) -> CellNetlist:
        ntk = self.ntk
        n = ntk.num_nodes()
        gate_nodes = self.session.gate_nodes()

        # per gate node: (leaves, both phases' match templates) of every cut
        # but the node's own trivial cut
        db = self.session.cut_database(self.k, self.cut_limit)
        phase_matches = self.costs.phase_matches
        db_leaves, db_vars, db_bits = db.leaves, db.tt_vars, db.tt_bits
        self.cands = cands = {}
        for m in gate_nodes:
            own = (m,)
            cands[m] = [(db_leaves[i], phase_matches(db_vars[i], db_bits[i]))
                        for i in range(*db.spans[m]) if db_leaves[i] != own]

        arrival = [[INF, INF] for _ in range(n)]
        flow = [[INF, INF] for _ in range(n)]
        impl: List[List[Optional[tuple]]] = [[None, None] for _ in range(n)]
        inv_d, inv_a = self.inv.max_delay(), self.inv.area
        inv_impl = self.inv_impl
        resolve = self._resolve

        for pi in ntk.pis:
            arrival[pi][0], flow[pi][0] = 0.0, 0.0
            arrival[pi][1], flow[pi][1] = inv_d, inv_a

        # Initial fanout estimate from PO-reachable structure only, so choice
        # candidate cones do not inflate sharing estimates.
        refs = [max(1, r) for r in self.session.initial_refs()]

        def select(m: int, required: Optional[List[List[float]]]) -> None:
            """(Re)select the best implementation of both phases of node m."""
            delay_first = self.objective == "delay"
            arr_m, flow_m, impl_m = arrival[m], flow[m], impl[m]
            for phase in (0, 1):
                req = INF if required is None else required[m][phase] + 1e-9
                best = None
                bkey0 = bkey1 = b_arr = b_fl = INF
                for leaves, templates in cands[m]:
                    for tpl in templates[phase]:
                        fl, pins, _ = tpl
                        arr = 0.0
                        for var, lphase, pin_delay in pins:
                            leaf = leaves[var]
                            la = arrival[leaf][lphase]
                            if la == INF:
                                break
                            la += pin_delay
                            if la > arr:
                                arr = la
                            fl += flow[leaf][lphase] / refs[leaf]
                        else:
                            # constants are a zero-cost tie under any required time
                            if pins and arr > req:
                                continue
                            k0, k1 = (arr, fl) if delay_first else (fl, arr)
                            if best is None or k0 < bkey0 or (k0 == bkey0 and k1 < bkey1):
                                best, bkey0, bkey1 = (leaves, tpl), k0, k1
                                b_arr, b_fl = arr, fl
                if best is not None:
                    impl_m[phase] = resolve(*best)
                    arr_m[phase] = b_arr
                    flow_m[phase] = b_fl
                elif impl_m[phase] is None:
                    arr_m[phase] = INF
                    flow_m[phase] = INF
                # else: keep the previous implementation — leaf arrivals may
                # have drifted past the required time during recovery passes,
                # but an already-selected match must never be discarded
            # inverter relaxation: implement the weaker phase off the stronger
            for phase in (0, 1):
                o = 1 - phase
                if arr_m[o] == INF:
                    continue
                via_arr = arr_m[o] + inv_d
                via_fl = flow_m[o] + inv_a
                if required is not None and via_arr > required[m][phase] + 1e-9:
                    continue
                cur = (arr_m[phase], flow_m[phase]) if delay_first \
                    else (flow_m[phase], arr_m[phase])
                new = (via_arr, via_fl) if delay_first else (via_fl, via_arr)
                if impl_m[phase] is None or new < cur:
                    # never let both phases be inverters of each other
                    if impl_m[o] is inv_impl:
                        continue
                    impl_m[phase] = inv_impl
                    arr_m[phase] = via_arr
                    flow_m[phase] = via_fl

        # ---- pass 1: delay (or plain flow for area objective) ----
        for m in gate_nodes:
            select(m, None)
            if impl[m][0] is None and impl[m][1] is None:
                raise RuntimeError(f"no library match for node {m}; library too weak")

        required = self._compute_required(arrival, impl)

        # ---- area-flow recovery passes ----
        for _ in range(self.flow_iterations):
            refs = self._cover_refs(impl)
            saved_objective = self.objective
            self.objective = "area"  # flow-first selection under required
            for m in gate_nodes:
                select(m, required)
            self.objective = saved_objective
            required = self._compute_required(arrival, impl)

        # ---- exact local area recovery ----
        for _ in range(self.exact_iterations):
            self._exact_area_pass(gate_nodes, arrival, impl, required)
            required = self._compute_required(arrival, impl)

        return self._derive(impl)

    @staticmethod
    def _resolve(leaves: Tuple[int, ...], template: tuple) -> tuple:
        """A match template bound to a cut's leaves: the implementation."""
        area, pins, match = template
        return area, tuple((leaves[v], lp, d) for v, lp, d in pins), match

    # -- exact-area machinery -------------------------------------------------

    def _phase_refs(self, impl) -> List[List[int]]:
        """Per-(node, phase) reference counts of the current cover."""
        ntk = self.ntk
        refs = [[0, 0] for _ in range(ntk.num_nodes())]
        stack = []
        for node, phase in self._po_requirements():
            refs[node][phase] += 1
            if refs[node][phase] == 1:
                stack.append((node, phase))
        while stack:
            node, phase = stack.pop()
            if not ntk.is_gate(node):
                continue
            im = impl[node][phase]
            if im is None:
                continue
            if im is self.inv_impl:
                refs[node][1 - phase] += 1
                if refs[node][1 - phase] == 1:
                    stack.append((node, 1 - phase))
                continue
            for leaf, lp, _ in im[1]:
                refs[leaf][lp] += 1
                if refs[leaf][lp] == 1:
                    stack.append((leaf, lp))
        return refs

    def _area_of(self, node: int, phase: int, impl) -> float:
        """Cell area charged when (node, phase) first becomes referenced."""
        ntk = self.ntk
        if ntk.is_const(node):
            return 0.0
        if ntk.is_pi(node):
            return self.inv.area if phase else 0.0
        im = impl[node][phase]
        return INF if im is None else im[0]

    def _node_ref(self, node: int, phase: int, refs, impl) -> float:
        """Add one reference to (node, phase); returns newly materialized area."""
        refs[node][phase] += 1
        if refs[node][phase] > 1:
            return 0.0
        area = self._area_of(node, phase, impl)
        if self.ntk.is_gate(node):
            area += self._inputs_ref(node, phase, refs, impl)
        return area

    def _node_deref(self, node: int, phase: int, refs, impl) -> float:
        refs[node][phase] -= 1
        if refs[node][phase] > 0:
            return 0.0
        area = self._area_of(node, phase, impl)
        if self.ntk.is_gate(node):
            area += self._inputs_deref(node, phase, refs, impl)
        return area

    def _inputs_ref(self, node: int, phase: int, refs, impl) -> float:
        im = impl[node][phase]
        if im is self.inv_impl:
            return self._node_ref(node, 1 - phase, refs, impl)
        area = 0.0
        for leaf, lp, _ in im[1]:
            area += self._node_ref(leaf, lp, refs, impl)
        return area

    def _inputs_deref(self, node: int, phase: int, refs, impl) -> float:
        im = impl[node][phase]
        if im is self.inv_impl:
            return self._node_deref(node, 1 - phase, refs, impl)
        area = 0.0
        for leaf, lp, _ in im[1]:
            area += self._node_deref(leaf, lp, refs, impl)
        return area

    def _exact_area_pass(self, gate_nodes, arrival, impl, required) -> None:
        """Re-select implementations by exact local area under required times."""
        refs = self._phase_refs(impl)
        for m in gate_nodes:
            for phase in (0, 1):
                old = impl[m][phase]
                # inverters re-decide through their base phase; constants stay
                if refs[m][phase] == 0 or old is None or old is self.inv_impl or not old[1]:
                    continue
                best_impl = old
                best_arr = arrival[m][phase]
                # release the current implementation's input charges
                self._inputs_deref(m, phase, refs, impl)
                best_gain = old[0] + self._trial_area(m, phase, old, refs, impl)
                req = required[m][phase] + 1e-9
                for leaves, templates in self.cands[m]:
                    for tpl in templates[phase]:
                        area, pins, _ = tpl
                        # gained area = cell area + a never-negative trial
                        # area, so a cell larger than the best cannot win
                        if not pins or area > best_gain:
                            continue
                        arr = 0.0
                        for var, lphase, pin_delay in pins:
                            la = arrival[leaves[var]][lphase]
                            if la == INF:
                                break
                            la += pin_delay
                            if la > arr:
                                arr = la
                        else:
                            if arr > req:
                                continue
                            cand = self._resolve(leaves, tpl)
                            gained = area + self._trial_area(m, phase, cand, refs, impl)
                            if gained < best_gain or (gained == best_gain and arr < best_arr):
                                best_gain, best_arr, best_impl = gained, arr, cand
                impl[m][phase] = best_impl
                arrival[m][phase] = best_arr
                self._inputs_ref(m, phase, refs, impl)

    def _trial_area(self, node: int, phase: int, cand: tuple, refs, impl) -> float:
        """Input area a candidate implementation would materialize."""
        saved = impl[node][phase]
        impl[node][phase] = cand
        area = self._inputs_ref(node, phase, refs, impl)
        self._inputs_deref(node, phase, refs, impl)
        impl[node][phase] = saved
        return area

    # ------------------------------------------------------------------ #

    def _po_requirements(self) -> List[Tuple[int, int]]:
        out = []
        for p in self.ntk.pos:
            node, phase = p >> 1, p & 1
            if self.ntk.is_gate(node) or self.ntk.is_pi(node):
                out.append((node, phase))
        return out

    def _compute_required(self, arrival, impl) -> List[List[float]]:
        ntk = self.ntk
        n = ntk.num_nodes()
        required = [[INF, INF] for _ in range(n)]
        po_req = self._po_requirements()
        if self.objective != "delay":
            return required
        target = 0.0
        for node, phase in po_req:
            if arrival[node][phase] < INF:
                target = max(target, arrival[node][phase])
        for node, phase in po_req:
            required[node][phase] = min(required[node][phase], target)
        for m in reversed(self.order):
            if not ntk.is_gate(m):
                continue
            for phase in (0, 1):
                req = required[m][phase]
                if req == INF or impl[m][phase] is None:
                    continue
                im = impl[m][phase]
                if im is self.inv_impl:
                    o = 1 - phase
                    required[m][o] = min(required[m][o], req - self.inv.max_delay())
                else:
                    for leaf, lp, pin_delay in im[1]:
                        required[leaf][lp] = min(required[leaf][lp], req - pin_delay)
        return required

    def _cover_refs(self, impl) -> List[int]:
        """Combined (both-phase) reference counts of the current cover."""
        ntk = self.ntk
        refs = [0] * ntk.num_nodes()
        seen = set()
        stack = []
        for node, phase in self._po_requirements():
            refs[node] += 1
            if ntk.is_gate(node):
                stack.append((node, phase))
        while stack:
            node, phase = stack.pop()
            if (node, phase) in seen:
                continue
            seen.add((node, phase))
            im = impl[node][phase]
            if im is None:
                continue
            if im is self.inv_impl:
                refs[node] += 1
                stack.append((node, 1 - phase))
                continue
            for leaf, lp, _ in im[1]:
                refs[leaf] += 1
                if ntk.is_gate(leaf):
                    stack.append((leaf, lp))
        return [max(1, r) for r in refs]

    def _derive(self, impl) -> CellNetlist:
        ntk = self.ntk
        netlist = CellNetlist(self.lib.name)
        net_of: Dict[Tuple[int, int], int] = {(0, 0): netlist.const0, (0, 1): netlist.const1}
        for name, pi in zip(ntk.pi_names, ntk.pis):
            net_of[(pi, 0)] = netlist.create_pi(name)

        def materialize(node: int, phase: int) -> int:
            key = (node, phase)
            if key in net_of:
                return net_of[key]
            if ntk.is_pi(node):  # phase must be 1 here
                net = netlist.add_cell(self.inv, (net_of[(node, 0)],))
                net_of[key] = net
                return net
            im = impl[node][phase]
            if im is None:
                raise RuntimeError(f"phase {phase} of node {node} not implemented")
            if im is self.inv_impl:
                net = netlist.add_cell(self.inv, (materialize(node, 1 - phase),))
            elif not im[1]:  # the constant entry: its match slot is the value
                net = netlist.const1 if im[2] else netlist.const0
            else:
                pins = tuple(materialize(leaf, lp) for leaf, lp, _ in im[1])
                net = netlist.add_cell(im[2].cell, pins)
            net_of[key] = net
            return net

        for p, name in zip(ntk.pos, ntk.po_names):
            node, phase = p >> 1, p & 1
            netlist.create_po(materialize(node, phase), name)
        return netlist


def asic_map(subject: Union[LogicNetwork, ChoiceNetwork, MappingSession],
             library: Optional[Library] = None, objective: str = "delay",
             cut_limit: int = 8, flow_iterations: int = 2,
             exact_iterations: int = 2) -> CellNetlist:
    """Map a (choice) network onto a standard-cell library.

    Returns a :class:`CellNetlist`; ``netlist.area()`` and
    ``netlist.delay()`` report the Table-I metrics.  Passing a
    :class:`MappingSession` (or re-mapping the same subject) reuses the
    shared cut database.
    """
    return AsicMapper(subject, library=library, objective=objective,
                      cut_limit=cut_limit, flow_iterations=flow_iterations,
                      exact_iterations=exact_iterations).run()
