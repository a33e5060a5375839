"""Frozen pre-flat hot paths, for benchmark comparison only.

Verbatim snapshots of hot paths that later revisions replaced, re-frozen
from the revisions that preceded them:

* :func:`baseline_enumerate_cuts` — the seed priority-cut enumerator
  (per-cut ``Cut`` objects, tuple-merge leaf unions, an eager truth table
  for *every* candidate cut before dominance filtering);
* :class:`BaselineCutDatabase` — the flat cut database before its builder
  moved onto 64-bit signatures (node-indexed leaf bitmasks for every
  merge, a seen-set for duplicates, a per-position expansion-mask cache),
  kept with choice support so choice-network builds can be compared;
* :func:`baseline_simulate_words` — the seed bit-parallel simulator
  (per-node ``node_type`` / ``fanins`` method dispatch, a closure call per
  fanin literal);
* :class:`BaselineCnfBuilder` — the pre-flat Tseitin encoder (dict-based
  node→var map, per-gate method calls).

``bench_cuts.py`` and ``bench_flat.py`` time these against the flat-core
paths and assert bit-identical outputs.  Do not use outside benchmarks.
"""

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.networks.base import GateType, LogicNetwork
from repro.truth.truth_table import TruthTable
from repro.cuts.cut import Cut

__all__ = [
    "baseline_enumerate_cuts",
    "BaselineCutDatabase",
    "baseline_simulate_words",
    "BaselineCnfBuilder",
]


# --------------------------------------------------------------------- #
# seed cut enumeration (object cuts, eager truth tables)                 #
# --------------------------------------------------------------------- #

# cache: (positions, num_vars) -> minterm index map
_EXPAND_CACHE: Dict[Tuple[Tuple[int, ...], int], Tuple[int, ...]] = {}


def _expand_tt(tt: TruthTable, positions: Sequence[int], num_vars: int) -> int:
    """Re-express ``tt`` over a larger variable set (seed implementation)."""
    key = (tuple(positions), num_vars)
    idx = _EXPAND_CACHE.get(key)
    if idx is None:
        idx = []
        for m in range(1 << num_vars):
            src = 0
            for i, p in enumerate(key[0]):
                if (m >> p) & 1:
                    src |= 1 << i
            idx.append(src)
        idx = tuple(idx)
        _EXPAND_CACHE[key] = idx
    bits = 0
    src_bits = tt.bits
    for m, s in enumerate(idx):
        if (src_bits >> s) & 1:
            bits |= 1 << m
    return bits


def _merge_leaves(a: Tuple[int, ...], b: Tuple[int, ...], k: int):
    """Sorted union of two leaf tuples, or None if it exceeds ``k``."""
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        if len(out) > k:
            return None
        if a[i] == b[j]:
            out.append(a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    if len(out) > k:
        return None
    return tuple(out)


def _apply_gate(gate: GateType, vals: List[int], mask: int) -> int:
    if gate == GateType.AND:
        return vals[0] & vals[1]
    if gate == GateType.XOR:
        return vals[0] ^ vals[1]
    if gate == GateType.MAJ:
        a, b, c = vals
        return (a & b) | (a & c) | (b & c)
    if gate == GateType.XOR3:
        return vals[0] ^ vals[1] ^ vals[2]
    raise ValueError(f"unsupported gate {gate}")


def baseline_enumerate_cuts(ntk: LogicNetwork, k: int = 6,
                            cut_limit: int = 8) -> List[List[Cut]]:
    """The seed priority-cut enumeration (no choice support needed here)."""
    n_total = ntk.num_nodes()
    cuts: List[List[Cut]] = [[] for _ in range(n_total)]

    for node in range(n_total):
        t = ntk.node_type(node)
        if t == GateType.CONST:
            cuts[node] = [Cut((), TruthTable(0, 0), node)]
            continue
        if t == GateType.PI:
            cuts[node] = [Cut((node,), TruthTable.var(1, 0), node)]
            continue

        fis = ntk.fanins(node)
        fanin_cut_sets = [cuts[f >> 1] for f in fis]
        fanin_phases = [f & 1 for f in fis]
        new_cuts: List[Cut] = []
        seen = set()

        def consider(leaf_combo: List[Cut]):
            leaves: Tuple[int, ...] = ()
            for c in leaf_combo:
                merged = _merge_leaves(leaves, c.leaves, k)
                if merged is None:
                    return
                leaves = merged
            if leaves in seen:
                return
            seen.add(leaves)
            nv = len(leaves)
            pos_of = {leaf: i for i, leaf in enumerate(leaves)}
            mask = (1 << (1 << nv)) - 1
            vals = []
            for c, ph in zip(leaf_combo, fanin_phases):
                positions = [pos_of[leaf] for leaf in c.leaves]
                bits = _expand_tt(c.tt, positions, nv)
                if ph:
                    bits ^= mask
                vals.append(bits)
            out = _apply_gate(t, vals, mask) & mask
            new_cuts.append(Cut(leaves, TruthTable(nv, out), node))

        # cartesian merge of fanin cut sets
        if len(fis) == 2:
            for c0 in fanin_cut_sets[0]:
                for c1 in fanin_cut_sets[1]:
                    consider([c0, c1])
        else:
            for c0 in fanin_cut_sets[0]:
                for c1 in fanin_cut_sets[1]:
                    for c2 in fanin_cut_sets[2]:
                        consider([c0, c1, c2])

        # drop dominated cuts (a cut is useless if another cut's leaves are a
        # strict subset)
        filtered: List[Cut] = []
        new_cuts.sort(key=lambda c: len(c.leaves))
        for c in new_cuts:
            if any(f.dominates(c) for f in filtered):
                continue
            filtered.append(c)

        filtered = filtered[: cut_limit - 1]
        filtered.append(Cut((node,), TruthTable.var(1, 0), node))  # trivial
        cuts[node] = filtered

    return cuts


# --------------------------------------------------------------------- #
# bitmask cut database (wide leaf masks, per-position expansion masks)   #
# --------------------------------------------------------------------- #

# LRU cache: (positions, num_vars) -> per-source-minterm destination masks.
_MASK_CACHE: "OrderedDict[Tuple[Tuple[int, ...], int], Tuple[int, ...]]" = OrderedDict()
_MASK_CACHE_LIMIT = 8192
_MASK_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _expand_masks(key: Tuple[Tuple[int, ...], int]) -> Tuple[int, ...]:
    """Destination masks for one (positions, num_vars) expansion, LRU-cached."""
    cache = _MASK_CACHE
    masks = cache.get(key)
    if masks is not None:
        _MASK_STATS["hits"] += 1
        cache.move_to_end(key)
        return masks
    _MASK_STATS["misses"] += 1
    positions, num_vars = key
    out = [0] * (1 << len(positions))
    for m in range(1 << num_vars):
        src = 0
        for i, p in enumerate(positions):
            if (m >> p) & 1:
                src |= 1 << i
        out[src] |= 1 << m
    masks = tuple(out)
    cache[key] = masks
    while len(cache) > _MASK_CACHE_LIMIT:
        cache.popitem(last=False)
        _MASK_STATS["evictions"] += 1
    return masks


def _expand_bits(src_bits: int, positions: Tuple[int, ...], num_vars: int) -> int:
    """Re-express raw ``src_bits`` over ``num_vars`` variables."""
    masks = _expand_masks((positions, num_vars))
    bits = 0
    while src_bits:
        low = src_bits & -src_bits
        bits |= masks[low.bit_length() - 1]
        src_bits ^= low
    return bits


def _mask_leaves(mask: int) -> Tuple[int, ...]:
    """The ascending leaf tuple of an exact leaf bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


_CONST = int(GateType.CONST)
_PI = int(GateType.PI)
_XOR = int(GateType.XOR)    # kinds <= _XOR with fanins are binary gates
_VAR1_BITS = 2


class BaselineCutDatabase:
    """The flat cut database as it was before the signature-driven builder:
    exact node-indexed leaf bitmasks for union, bound, deduplication and
    dominance, ``_mask_leaves`` for survivors' leaf tuples, and truth-table
    expansion through the per-position mask cache above."""

    __slots__ = (
        "ntk", "k", "cut_limit", "network_version",
        "leaves", "leaf_mask", "sig", "tt_bits", "tt_vars", "root", "phase",
        "spans", "stats", "_intern",
    )

    def __init__(self, ntk, k: int = 6, cut_limit: int = 8,
                 nodes: Optional[Sequence[int]] = None,
                 order: Optional[Sequence[int]] = None,
                 choices: Optional[Dict[int, List[Tuple[int, bool]]]] = None):
        self.ntk = ntk
        self.k = k
        self.cut_limit = cut_limit
        self.network_version = getattr(ntk, "version", 0)

        n_total = ntk.num_nodes()
        # flat per-cut arrays
        self.leaves: List[Tuple[int, ...]] = []
        #: exact leaf set of each cut as a node-indexed bitmask — the merge
        #: loop unions / bounds / dominance-tests cuts in single int ops
        self.leaf_mask: List[int] = []
        self.sig: List[int] = []
        self.tt_bits: List[int] = []
        self.tt_vars: List[int] = []
        self.root: List[int] = []
        self.phase: List[bool] = []
        # per-node (start, end) spans into the flat arrays
        self.spans: List[Tuple[int, int]] = [(0, 0)] * n_total
        self._intern: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # subset_checks counts pairwise dominance comparisons; each is one
        # exact bitmask subset test, so sig_rejections (comparisons settled
        # by the 64-bit Bloom signature alone, before the masks existed) is
        # retained for record compatibility but always 0.
        self.stats: Dict[str, int] = {
            "nodes": 0, "cuts": 0, "candidates": 0, "dominated": 0,
            "sig_rejections": 0, "subset_checks": 0,
        }
        self._build(nodes, order, choices)
        self.stats["cuts"] = len(self.leaves)
        self.stats["distinct_leaf_sets"] = len(self._intern)

    # ------------------------------------------------------------------ #
    # construction                                                        #
    # ------------------------------------------------------------------ #

    def _build(self, nodes, order, choices) -> None:
        ntk = self.ntk
        k = self.k
        n_total = ntk.num_nodes()

        # the flat struct-of-arrays core: gate kinds and fanin literals as
        # plain int lists, so the enumeration loop below never touches a
        # node object or a network method
        if hasattr(ntk, "flat"):
            snapshot = ntk.flat
            kinds = list(snapshot.kind)
            fanin3 = list(snapshot.fanin)
        else:  # duck-typed network without the flat core (none in-tree)
            kinds = [int(ntk.node_type(n)) for n in range(n_total)]
            fanin3 = []
            for n in range(n_total):
                fis = ntk.fanins(n)
                fanin3 += (fis + (0, 0, 0))[:3]

        todo = None
        if nodes is not None:
            if choices is not None:
                raise ValueError("node restriction cannot be combined with choices")
            todo = set()
            stack = list(nodes)
            while stack:
                m = stack.pop()
                if m in todo:
                    continue
                todo.add(m)
                stack.extend(f >> 1 for f in ntk.fanins(m))

        # local aliases for the hot loop
        flat_leaves = self.leaves
        flat_mask = self.leaf_mask
        flat_sig = self.sig
        flat_bits = self.tt_bits
        flat_vars = self.tt_vars
        flat_root = self.root
        flat_phase = self.phase
        spans = self.spans
        intern = self._intern
        stats = self.stats
        limit = max(self.cut_limit - 1, 0)

        if order is None:
            order = ntk.topological_order() if hasattr(ntk, "topological_order") \
                else range(n_total)

        for node in order:
            if todo is not None and node not in todo:
                continue
            stats["nodes"] += 1
            start = len(flat_leaves)
            t = kinds[node]
            if t == _CONST:
                empty = intern.setdefault((), ())
                flat_leaves.append(empty)
                flat_mask.append(0)
                flat_sig.append(0)
                flat_bits.append(0)
                flat_vars.append(0)
                flat_root.append(node)
                flat_phase.append(False)
                spans[node] = (start, len(flat_leaves))
                continue
            if t == _PI:
                self._append_trivial(node)
                spans[node] = (start, len(flat_leaves))
                continue

            base = 3 * node
            if t <= _XOR:   # binary gate kinds (AND, XOR)
                fis = (fanin3[base], fanin3[base + 1])
            else:           # ternary gate kinds (MAJ, XOR3)
                fis = (fanin3[base], fanin3[base + 1], fanin3[base + 2])
            fanin_phases = [f & 1 for f in fis]
            fanin_ranges = [spans[f >> 1] for f in fis]

            # -- candidate merge on exact leaf bitmasks --
            # a cut's leaf set is one node-indexed bitmask, so the union is
            # one ``|``, the k-bound one popcount and duplicate detection one
            # set probe — no per-leaf tuple walking until a cut survives
            seen = set()
            cand: List[Tuple[int, Tuple[int, ...]]] = []
            if len(fis) == 2:
                (s0, e0), (s1, e1) = fanin_ranges
                for i0 in range(s0, e0):
                    m0 = flat_mask[i0]
                    for i1 in range(s1, e1):
                        merged = m0 | flat_mask[i1]
                        if merged.bit_count() > k or merged in seen:
                            continue
                        seen.add(merged)
                        cand.append((merged, (i0, i1)))
            else:
                (s0, e0), (s1, e1), (s2, e2) = fanin_ranges
                for i0 in range(s0, e0):
                    m0 = flat_mask[i0]
                    for i1 in range(s1, e1):
                        m01 = m0 | flat_mask[i1]
                        if m01.bit_count() > k:
                            continue
                        for i2 in range(s2, e2):
                            merged = m01 | flat_mask[i2]
                            if merged.bit_count() > k or merged in seen:
                                continue
                            seen.add(merged)
                            cand.append((merged, (i0, i1, i2)))
            stats["candidates"] += len(cand)

            # -- exact dominance on the masks, smallest cuts first --
            cand.sort(key=lambda c: c[0].bit_count())
            kept: List[Tuple[int, Tuple[int, ...]]] = []
            subset_checks = 0
            for mask, ids in cand:
                if len(kept) >= limit:
                    break
                not_mask = ~mask
                dominated = False
                for kmask, _ in kept:
                    subset_checks += 1
                    if not kmask & not_mask:   # kept leaves ⊆ candidate leaves
                        dominated = True
                        break
                if dominated:
                    stats["dominated"] += 1
                    continue
                kept.append((mask, ids))
            stats["subset_checks"] += subset_checks

            # -- truth tables, only for the survivors --
            for lmask, ids in kept:
                leaves = _mask_leaves(lmask)
                sig = 0
                for i in ids:
                    sig |= flat_sig[i]
                nv = len(leaves)
                full = (1 << (1 << nv)) - 1
                pos_of = {leaf: i for i, leaf in enumerate(leaves)}
                vals = []
                for i, ph in zip(ids, fanin_phases):
                    cl = flat_leaves[i]
                    positions = tuple(pos_of[x] for x in cl)
                    bits = _expand_bits(flat_bits[i], positions, nv)
                    if ph:
                        bits ^= full
                    vals.append(bits)
                out = self._apply_gate(t, vals) & full
                flat_leaves.append(intern.setdefault(leaves, leaves))
                flat_mask.append(lmask)
                flat_sig.append(sig)
                flat_bits.append(out)
                flat_vars.append(nv)
                flat_root.append(node)
                flat_phase.append(False)

            # -- Algorithm 3 (lines 2-8): absorb choice-node cuts into the
            # representative's cut set, normalized to the representative's
            # polarity.  The representative keeps its own cut budget; choice
            # cuts get an equal extra budget so good structural cuts are never
            # evicted by candidate cuts (and vice versa).
            if choices is not None and node in choices:
                seen_leafsets = {flat_leaves[i] for i in range(start, len(flat_leaves))}
                merged_ids: List[Tuple[int, bool]] = []
                for ch_node, ch_phase in choices[node]:
                    cs, ce = spans[ch_node]
                    for i in range(cs, ce):
                        cl = flat_leaves[i]
                        if len(cl) == 1 and cl[0] == node:
                            continue
                        if cl in seen_leafsets:
                            continue
                        seen_leafsets.add(cl)
                        merged_ids.append((i, ch_phase))
                merged_ids.sort(key=lambda e: len(flat_leaves[e[0]]), reverse=True)
                for i, ch_phase in merged_ids[: self.cut_limit]:
                    bits = flat_bits[i]
                    if ch_phase:
                        bits ^= (1 << (1 << flat_vars[i])) - 1
                    flat_leaves.append(flat_leaves[i])
                    flat_mask.append(flat_mask[i])
                    flat_sig.append(flat_sig[i])
                    flat_bits.append(bits)
                    flat_vars.append(flat_vars[i])
                    flat_root.append(flat_root[i])
                    flat_phase.append(ch_phase)

            self._append_trivial(node)
            spans[node] = (start, len(flat_leaves))

    def _append_trivial(self, node: int) -> None:
        leaves = self._intern.setdefault((node,), (node,))
        self.leaves.append(leaves)
        self.leaf_mask.append(1 << node)
        self.sig.append(1 << (node & 63))
        self.tt_bits.append(_VAR1_BITS)
        self.tt_vars.append(1)
        self.root.append(node)
        self.phase.append(False)

    @staticmethod
    def _apply_gate(gate: GateType, vals: List[int]) -> int:
        if gate == GateType.AND:
            return vals[0] & vals[1]
        if gate == GateType.XOR:
            return vals[0] ^ vals[1]
        if gate == GateType.MAJ:
            a, b, c = vals
            return (a & b) | (a & c) | (b & c)
        if gate == GateType.XOR3:
            return vals[0] ^ vals[1] ^ vals[2]
        raise ValueError(f"unsupported gate {gate}")


# --------------------------------------------------------------------- #
# seed bit-parallel simulation (per-node method dispatch)                #
# --------------------------------------------------------------------- #

def baseline_simulate_words(ntk: LogicNetwork, pi_patterns: Sequence[int],
                            mask: int) -> List[int]:
    """The seed simulator: one type dispatch and fanin walk per node."""
    if len(pi_patterns) != ntk.num_pis():
        raise ValueError("pattern count must equal PI count")
    vals = [0] * ntk.num_nodes()
    for i, n in enumerate(ntk.pis):
        vals[n] = pi_patterns[i] & mask

    def v(literal: int) -> int:
        x = vals[literal >> 1]
        return x ^ mask if literal & 1 else x

    for n in range(ntk.num_nodes()):
        t = ntk.node_type(n)
        if t == GateType.AND:
            a, b = ntk.fanins(n)
            vals[n] = v(a) & v(b)
        elif t == GateType.XOR:
            a, b = ntk.fanins(n)
            vals[n] = v(a) ^ v(b)
        elif t == GateType.MAJ:
            a, b, c = (v(f) for f in ntk.fanins(n))
            vals[n] = (a & b) | (a & c) | (b & c)
        elif t == GateType.XOR3:
            a, b, c = (v(f) for f in ntk.fanins(n))
            vals[n] = a ^ b ^ c
    return vals


# --------------------------------------------------------------------- #
# pre-flat Tseitin encoding (dict node->var map, per-gate method calls)  #
# --------------------------------------------------------------------- #

class BaselineCnfBuilder:
    """The pre-flat CNF builder, frozen for benchmark comparison."""

    def __init__(self):
        self.clauses: List[List[int]] = []
        self.num_vars = 0

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits: List[int]) -> None:
        self.clauses.append(list(lits))

    def encode(self, ntk: LogicNetwork,
               pi_vars: Dict[int, int] = None) -> Tuple[Dict[int, int], List[int]]:
        """Encode a network; returns (node→var map, PO signed literals)."""
        var_of: Dict[int, int] = {}
        const_var = self.new_var()
        self.add_clause([-const_var])  # node 0 is constant false
        var_of[0] = const_var
        for i, n in enumerate(ntk.pis):
            if pi_vars is not None and i in pi_vars:
                var_of[n] = pi_vars[i]
            else:
                var_of[n] = self.new_var()

        def sl(literal: int) -> int:
            v = var_of[literal >> 1]
            return -v if literal & 1 else v

        for n in ntk.gates():
            out = self.new_var()
            var_of[n] = out
            fis = [sl(f) for f in ntk.fanins(n)]
            t = ntk.node_type(n)
            if t == GateType.AND:
                a, b = fis
                self.add_clause([-out, a])
                self.add_clause([-out, b])
                self.add_clause([out, -a, -b])
            elif t == GateType.XOR:
                a, b = fis
                self.add_clause([-out, a, b])
                self.add_clause([-out, -a, -b])
                self.add_clause([out, -a, b])
                self.add_clause([out, a, -b])
            elif t == GateType.MAJ:
                a, b, c = fis
                self.add_clause([-out, a, b])
                self.add_clause([-out, a, c])
                self.add_clause([-out, b, c])
                self.add_clause([out, -a, -b])
                self.add_clause([out, -a, -c])
                self.add_clause([out, -b, -c])
            elif t == GateType.XOR3:
                a, b, c = fis
                # out = a ^ b ^ c: forbid all even-parity mismatches
                self.add_clause([-out, a, b, c])
                self.add_clause([-out, -a, -b, c])
                self.add_clause([-out, -a, b, -c])
                self.add_clause([-out, a, -b, -c])
                self.add_clause([out, -a, b, c])
                self.add_clause([out, a, -b, c])
                self.add_clause([out, a, b, -c])
                self.add_clause([out, -a, -b, -c])
            else:
                raise ValueError(f"cannot encode gate type {t}")

        po_lits = [sl(p) for p in ntk.pos]
        return var_of, po_lits
