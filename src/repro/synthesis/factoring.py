"""Structure builders: truth table / SOP / DSD tree -> subnetwork.

These are the primitives behind every synthesis strategy of the MCH
strategy library (Algorithm 2).  Synthesis runs in two steps:

1. **Plan.**  The truth-table analysis of a method depends only on the
   function, never on where it is built, so it compiles once into a
   *synthesis plan*: a straight-line program of gate-constructor calls
   over operand literals, stored as nested tuples of ints (see
   :func:`synthesis_plan`).
2. **Replay.**  :func:`replay_plan` runs the program against a target
   network and the caller's leaf literals.  It issues exactly the
   constructor calls the direct builder would, in the same order, so the
   network it builds is gate-for-gate the same; the only leaf-dependent
   decision, the level-aware operand pairing of
   :func:`_combine_level_aware`, is taken here from the host's levels.

Plans of functions with at most :data:`PLAN_MEMO_MAX_VARS` inputs are
memoized process-wide in a bounded LRU keyed by ``(method, num_vars,
bits)`` (the ``_canon_cached`` idiom of ``truth/npn.py``); wider functions
get a fresh plan per call, as their plans are large and, on the 6-cuts of
Table II, rarely repeat.  :func:`synthesis_plan_stats` reports the memo's
counters.  This is the precomputed-structure replay of DAG-aware rewriting
(Mishchenko, Chatterjee & Brayton, DAC 2006) applied to every consumer of
:func:`synthesize_tt`.

Methods (:data:`SYNTHESIS_METHODS`):

* ``dsd`` / ``dsd_chain`` — disjoint-support decomposition tree, built
  with native AND/OR/XOR/MAJ/MUX constructors (level-aware or chained
  operands); the source of heterogeneous (MAJ/XOR-rich) candidates.
* ``sop`` / ``sop_balanced`` / ``nsop`` — literal factoring of an ISOP
  cover (weak division on the most frequent literal) of the function or,
  for ``nsop``, of its complement; the classic area-oriented resynthesis.
* ``shannon`` — Shannon cofactoring tree, a robust level-oriented fallback
  for prime functions.

``build_from_dsd`` / ``build_from_cubes`` / ``build_shannon`` plan and
replay an explicit DSD tree, cube cover or truth table.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from ..networks.base import LogicNetwork
from ..truth.dsd import DsdNode, decompose
from ..truth.isop import Cube, cube_literals, isop
from ..truth.truth_table import TruthTable

__all__ = [
    "build_from_dsd",
    "build_from_cubes",
    "build_shannon",
    "synthesize_tt",
    "synthesis_plan",
    "replay_plan",
    "synthesis_plan_stats",
    "SYNTHESIS_METHODS",
    "PLAN_MEMO_MAX_VARS",
    "PLAN_MEMO_LIMIT",
]

#: All methods understood by :func:`synthesize_tt`.
SYNTHESIS_METHODS = ("dsd", "dsd_chain", "sop", "sop_balanced", "nsop", "shannon")

#: widest function whose plan is memoized
PLAN_MEMO_MAX_VARS = 5
#: bound of the process-wide plan memo, in LRU entries; a 5-input plan is
#: about 1 KB, so the memo stays near 10 MB at most
PLAN_MEMO_LIMIT = 1 << 13

# -- plan encoding -------------------------------------------------------- #
#
# A plan is ``(out, instrs)``.  Operands are literals over value slots:
# slot 0 is constant 0 (operand 1 is constant 1), slot ``1 + v`` is leaf
# ``v``, and slot ``1 + num_vars + i`` holds the result of ``instrs[i]``;
# bit 0 of an operand complements it.  An instruction is ``(op, *operands)``;
# an n-ary AND/OR/XOR has ``op = 3 * kind + mode``, ``mode`` naming how its
# operands are paired.

_AND, _OR, _XOR = 0, 1, 2          # n-ary kinds
_LEVEL, _TREE, _CHAIN = 0, 1, 2    # level-aware | balanced pairs | linear chain
_MAJ = 9
_MUX = 10
_NARY = ("create_nary_and", "create_nary_or", "create_nary_xor")

Plan = Tuple[int, Tuple[Tuple[int, ...], ...]]


class _Emitter:
    """Accumulates a plan's instructions; returns each result's operand."""

    __slots__ = ("base", "instrs")

    def __init__(self, num_vars: int):
        self.base = num_vars + 1
        self.instrs: List[Tuple[int, ...]] = []

    def gate(self, op: int, operands: Tuple[int, ...]) -> int:
        self.instrs.append((op,) + operands)
        return (self.base + len(self.instrs) - 1) << 1

    def nary(self, kind: int, mode: int, operands: Tuple[int, ...]) -> int:
        """An n-ary AND/OR/XOR; zero or one operand needs no gate call."""
        if not operands:
            return 1 if kind == _AND else 0
        if len(operands) == 1:
            return operands[0]
        return self.gate(3 * kind + mode, operands)

    def plan(self, out: int) -> Plan:
        return out, tuple(self.instrs)


def _leaf(var: int, negated: bool = False) -> int:
    return ((var + 1) << 1) | negated


# -- plan construction (the truth-table analysis) ------------------------- #

_DSD_KINDS = {"and": _AND, "or": _OR, "xor": _XOR}


def _dsd_plan(root: DsdNode, complemented: bool, num_vars: int, balanced: bool) -> Plan:
    em = _Emitter(num_vars)
    mode = _LEVEL if balanced else _CHAIN

    def rec(node: DsdNode) -> int:
        if node.kind == "const":
            return int(node.value)
        if node.kind == "var":
            return _leaf(node.var_index)
        operands = tuple(rec(ch) ^ int(c) for ch, c in node.children)
        kind = _DSD_KINDS.get(node.kind)
        if kind is not None:
            return em.nary(kind, mode, operands)
        if node.kind == "maj":
            return em.gate(_MAJ, operands)
        if node.kind == "mux":
            return em.gate(_MUX, operands)
        raise ValueError(f"unknown DSD node kind {node.kind}")

    return em.plan(rec(root) ^ int(complemented))


def _cover_plan(cubes: List[Cube], num_vars: int, balanced: bool,
                complemented: bool = False) -> Plan:
    """Literal-factored form of a cube cover."""
    em = _Emitter(num_vars)
    mode = _LEVEL if balanced else _TREE

    def cube_and(cube: Cube) -> int:
        return em.nary(_AND, mode, tuple(_leaf(v, neg) for v, neg in cube_literals(cube)))

    def fac(cs: List[Cube]) -> int:
        if not cs:
            return 0
        if len(cs) == 1:
            return cube_and(cs[0])
        # most frequent literal across cubes
        counts: Dict[Tuple[int, bool], int] = {}
        for pos, neg in cs:
            m = pos
            v = 0
            while m:
                if m & 1:
                    counts[(v, False)] = counts.get((v, False), 0) + 1
                m >>= 1
                v += 1
            m = neg
            v = 0
            while m:
                if m & 1:
                    counts[(v, True)] = counts.get((v, True), 0) + 1
                m >>= 1
                v += 1
        if not counts:  # only literal-free cubes left: their OR is 1
            return 1
        (var, negated), best = max(counts.items(), key=lambda kv: kv[1])
        if best < 2:
            return em.nary(_OR, mode, tuple(cube_and(c) for c in cs))
        bit = 1 << var
        if negated:
            quot = [(p, q & ~bit) for p, q in cs if q & bit]
            rem = [(p, q) for p, q in cs if not (q & bit)]
        else:
            quot = [(p & ~bit, q) for p, q in cs if p & bit]
            rem = [(p, q) for p, q in cs if not (p & bit)]
        factored = em.gate(3 * _AND + _TREE, (_leaf(var, negated), fac(quot)))
        if not rem:
            return factored
        return em.gate(3 * _OR + _TREE, (factored, fac(rem)))

    return em.plan(fac(cubes) ^ int(complemented))


def _shannon_plan(tt: TruthTable) -> Plan:
    """Cofactor tree, split on the most binate variable of each cofactor."""
    em = _Emitter(tt.num_vars)

    def rec(t: TruthTable) -> int:
        sup = t.support()
        if not sup:
            return int(t.is_const1())
        if len(sup) == 1:
            v = sup[0]
            return _leaf(v, t != TruthTable.var(t.num_vars, v))
        # split on the most binate variable to keep both halves small
        v = max(sup, key=lambda x: (t.cofactor(x, False) ^ t.cofactor(x, True)).count_ones())
        hi = rec(t.cofactor(v, True))
        lo = rec(t.cofactor(v, False))
        return em.gate(_MUX, (_leaf(v), hi, lo))

    return em.plan(rec(tt))


def _compute_plan(method: str, tt: TruthTable) -> Plan:
    if method in ("dsd", "dsd_chain"):
        root, compl = decompose(tt)
        return _dsd_plan(root, compl, tt.num_vars, balanced=(method == "dsd"))
    if method in ("sop", "sop_balanced"):
        return _cover_plan(isop(tt), tt.num_vars, balanced=(method == "sop_balanced"))
    if method == "nsop":
        return _cover_plan(isop(~tt), tt.num_vars, balanced=False, complemented=True)
    if method == "shannon":
        return _shannon_plan(tt)
    raise ValueError(f"unknown synthesis method {method!r}")


@lru_cache(maxsize=PLAN_MEMO_LIMIT)
def _plan_cached(method: str, num_vars: int, bits: int) -> Plan:
    return _compute_plan(method, TruthTable(num_vars, bits))


def synthesis_plan(tt: TruthTable, method: str = "dsd") -> Plan:
    """The leaf-independent synthesis plan of ``tt`` under ``method``.

    Memoized for functions of at most :data:`PLAN_MEMO_MAX_VARS` inputs;
    the returned plan is shared, immutable and valid for any host network.
    """
    if tt.num_vars <= PLAN_MEMO_MAX_VARS:
        return _plan_cached(method, tt.num_vars, tt.bits)
    return _compute_plan(method, tt)


def synthesis_plan_stats() -> Dict[str, int]:
    """Counters of the process-wide plan memo (the cache-stats hook)."""
    info = _plan_cached.cache_info()
    return {"hits": info.hits, "misses": info.misses,
            "size": info.currsize, "limit": info.maxsize}


# -- replay (the only leaf-dependent step) -------------------------------- #

def _combine_level_aware(ntk: LogicNetwork, op, lits: Sequence[int], unit: int) -> int:
    """Huffman-style combination: merge the two shallowest operands first.

    Minimizes the depth of the resulting tree for unequal arrival levels.
    """
    if not lits:
        return unit
    heap = [(ntk.level(l >> 1), i, l) for i, l in enumerate(lits)]
    heapq.heapify(heap)
    counter = len(lits)
    while len(heap) > 1:
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        c = op(a, b)
        counter += 1
        heapq.heappush(heap, (ntk.level(c >> 1), counter, c))
    return heap[0][2]


def replay_plan(ntk: LogicNetwork, plan: Plan, leaf_lits: Sequence[int]) -> int:
    """Build ``plan`` into ``ntk`` over ``leaf_lits``; returns the output literal."""
    out, instrs = plan
    vals = [ntk.const0]
    vals.extend(leaf_lits)
    pairwise = (ntk.create_and, ntk.create_or, ntk.create_xor)
    for ins in instrs:
        op = ins[0]
        lits = [vals[o >> 1] ^ (o & 1) for o in ins[1:]]
        if op == _MUX:
            r = ntk.create_mux(*lits)
        elif op == _MAJ:
            r = ntk.create_maj(*lits)
        else:
            kind, mode = divmod(op, 3)
            if mode == _LEVEL:
                unit = ntk.const1 if kind == _AND else ntk.const0
                r = _combine_level_aware(ntk, pairwise[kind], lits, unit)
            elif len(lits) == 2:  # the one call either n-ary mode makes
                r = pairwise[kind](*lits)
            else:
                r = getattr(ntk, _NARY[kind])(lits, balanced=(mode == _TREE))
        vals.append(r)
    return vals[out >> 1] ^ (out & 1)


# -- builders ------------------------------------------------------------- #

def build_from_dsd(ntk: LogicNetwork, root: DsdNode, complemented: bool,
                   leaf_lits: Sequence[int], balanced: bool = True) -> int:
    """Materialize a DSD tree; returns the output literal."""
    return replay_plan(ntk, _dsd_plan(root, complemented, len(leaf_lits), balanced), leaf_lits)


def build_from_cubes(ntk: LogicNetwork, cubes: List[Cube], leaf_lits: Sequence[int],
                     balanced: bool = False) -> int:
    """Literal-factored realization of a cube cover."""
    return replay_plan(ntk, _cover_plan(cubes, len(leaf_lits), balanced), leaf_lits)


def build_shannon(ntk: LogicNetwork, tt: TruthTable, leaf_lits: Sequence[int]) -> int:
    """Shannon cofactoring tree over the function's support."""
    return replay_plan(ntk, _shannon_plan(tt), leaf_lits)


def synthesize_tt(ntk: LogicNetwork, tt: TruthTable, leaf_lits: Sequence[int],
                  method: str = "dsd") -> int:
    """Synthesize ``tt`` into ``ntk`` with the given method; returns literal.

    Methods: ``dsd`` (balanced DSD), ``dsd_chain`` (area-leaning DSD),
    ``sop`` (factored ISOP), ``sop_balanced`` (level-aware factored ISOP),
    ``shannon`` (cofactor tree), ``nsop`` (factored ISOP of the complement,
    complemented back — catches functions whose off-set is simpler).
    """
    if len(leaf_lits) != tt.num_vars:
        raise ValueError("leaf literal count must match variable count")
    return replay_plan(ntk, synthesis_plan(tt, method), leaf_lits)
