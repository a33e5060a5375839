"""Structure builders: truth table / SOP / DSD tree -> subnetwork.

These are the primitives behind every synthesis strategy of the MCH
strategy library (Algorithm 2).  Each builder takes a target network, the
function to realize, and the literals that drive the function's inputs, and
returns the output literal of a freshly constructed (strashed, hence
maximally shared) subnetwork.

Available methods:

* ``build_from_dsd`` — disjoint-support decomposition tree, recursing into
  native AND/OR/XOR/MAJ/MUX constructors; good all-rounder and the source of
  heterogeneous (MAJ/XOR-rich) candidates.
* ``build_from_cubes`` — literal factoring of an ISOP cover (weak-division
  on the most frequent literal), the classic area-oriented resynthesis.
* ``build_shannon`` — Shannon cofactoring tree, a robust level-oriented
  fallback for prime functions.
* ``synthesize_tt`` — method dispatcher.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

from ..networks.base import LogicNetwork, lit_not
from ..truth.dsd import DsdNode, decompose
from ..truth.isop import Cube, cube_literals, isop
from ..truth.truth_table import TruthTable

__all__ = [
    "build_from_dsd",
    "build_from_cubes",
    "build_shannon",
    "synthesize_tt",
    "SYNTHESIS_METHODS",
]


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


def build_from_dsd(ntk: LogicNetwork, root: DsdNode, complemented: bool,
                   leaf_lits: Sequence[int], balanced: bool = True) -> int:
    """Materialize a DSD tree; returns the output literal."""

    def rec(node: DsdNode) -> int:
        if node.kind == "const":
            return ntk.const1 if node.value else ntk.const0
        if node.kind == "var":
            return leaf_lits[node.var_index]
        child_lits = [rec(ch) ^ int(c) for ch, c in node.children]
        if node.kind == "and":
            if balanced:
                return _combine_level_aware(ntk, ntk.create_and, child_lits, ntk.const1)
            return ntk.create_nary_and(child_lits, balanced=False)
        if node.kind == "or":
            if balanced:
                return _combine_level_aware(ntk, ntk.create_or, child_lits, ntk.const0)
            return ntk.create_nary_or(child_lits, balanced=False)
        if node.kind == "xor":
            if balanced:
                return _combine_level_aware(ntk, ntk.create_xor, child_lits, ntk.const0)
            return ntk.create_nary_xor(child_lits, balanced=False)
        if node.kind == "maj":
            return ntk.create_maj(*child_lits)
        if node.kind == "mux":
            return ntk.create_mux(*child_lits)
        raise ValueError(f"unknown DSD node kind {node.kind}")

    return rec(root) ^ int(complemented)


def build_from_cubes(ntk: LogicNetwork, cubes: List[Cube], leaf_lits: Sequence[int],
                     balanced: bool = False) -> int:
    """Literal-factored realization of a cube cover."""

    def cube_and(cube: Cube) -> int:
        lits = [leaf_lits[v] ^ int(neg) for v, neg in cube_literals(cube)]
        if not lits:
            return ntk.const1
        if balanced:
            return _combine_level_aware(ntk, ntk.create_and, lits, ntk.const1)
        return ntk.create_nary_and(lits, balanced=True)

    def fac(cs: List[Cube]) -> int:
        if not cs:
            return ntk.const0
        if len(cs) == 1:
            return cube_and(cs[0])
        # most frequent literal across cubes
        counts = {}
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
            return ntk.const1
        (var, negated), best = max(counts.items(), key=lambda kv: kv[1])
        if best < 2:
            terms = [cube_and(c) for c in cs]
            if balanced:
                return _combine_level_aware(ntk, ntk.create_or, terms, ntk.const0)
            return ntk.create_nary_or(terms, balanced=True)
        bit = 1 << var
        if negated:
            quot = [(p, q & ~bit) for p, q in cs if q & bit]
            rem = [(p, q) for p, q in cs if not (q & bit)]
        else:
            quot = [(p & ~bit, q) for p, q in cs if p & bit]
            rem = [(p, q) for p, q in cs if not (p & bit)]
        lit = leaf_lits[var] ^ int(negated)
        factored = ntk.create_and(lit, fac(quot))
        if not rem:
            return factored
        return ntk.create_or(factored, fac(rem))

    return fac(cubes)


def build_shannon(ntk: LogicNetwork, tt: TruthTable, leaf_lits: Sequence[int]) -> int:
    """Shannon cofactoring tree over the function's support."""
    sup = tt.support()
    if not sup:
        return ntk.const1 if tt.is_const1() else ntk.const0
    if len(sup) == 1:
        v = sup[0]
        return leaf_lits[v] if tt == TruthTable.var(tt.num_vars, v) else lit_not(leaf_lits[v])
    # split on the most binate variable to keep both halves small
    v = max(sup, key=lambda x: (tt.cofactor(x, False) ^ tt.cofactor(x, True)).count_ones())
    hi = build_shannon(ntk, tt.cofactor(v, True), leaf_lits)
    lo = build_shannon(ntk, tt.cofactor(v, False), leaf_lits)
    return ntk.create_mux(leaf_lits[v], hi, lo)


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
    if method in ("dsd", "dsd_chain"):
        root, compl = decompose(tt)
        return build_from_dsd(ntk, root, compl, leaf_lits, balanced=(method == "dsd"))
    if method in ("sop", "sop_balanced"):
        return build_from_cubes(ntk, isop(tt), leaf_lits, balanced=(method == "sop_balanced"))
    if method == "nsop":
        return lit_not(build_from_cubes(ntk, isop(~tt), leaf_lits, balanced=False))
    if method == "shannon":
        return build_shannon(ntk, tt, leaf_lits)
    raise ValueError(f"unknown synthesis method {method!r}")


#: All methods understood by :func:`synthesize_tt`.
SYNTHESIS_METHODS = ("dsd", "dsd_chain", "sop", "sop_balanced", "nsop", "shannon")
