"""Flat, signature-indexed priority-cut database.

One :class:`CutDatabase` holds every cut of a network in parallel flat
arrays — interned leaf tuples, 64-bit leaf signatures, truth tables as raw
ints — computed once and shared by all mapper passes and consumers (LUT
mapper, ASIC Boolean matcher, graph mapper, MCH candidate generation).

The builder reads only the flat arrays — leaf tuples, their 64-bit
signatures and sizes, raw truth tables:

* a merge is rejected when its signature has more than ``k`` bits set
  (a leaf set has at least as many leaves as its signature has bits), and
  when the fanin signatures are disjoint the merged size is the sum of the
  fanin sizes — only overlapping signatures pay for an exact set union;
* candidates are bucketed by exact size and dominance-filtered smallest
  first, **before** any truth table is computed, so cut functions are
  evaluated only for the at most ``cut_limit - 1`` survivors per node;
  a duplicate leaf set is dominated by its first occurrence (or by what
  dominated that), so no separate deduplication pass is needed;
* dominance (is a kept cut's leaf set a subset of the candidate's?) is
  pre-rejected with the signatures — ``sig(a) & ~sig(b) != 0`` proves
  non-subset in one integer op, so the exact subset test runs only on
  signature hits;
* a survivor's fanin functions are re-expressed over its leaves through
  the expansion LRU of :mod:`repro.cuts.enumeration`, keyed by function;
  a fanin cut with the survivor's own leaves needs no expansion;
* leaf tuples are interned, so equal leaf sets across nodes share one object
  and the database's memory stays proportional to the number of *distinct*
  leaf sets.

The legacy ``enumerate_cuts`` API is a thin list-of-:class:`Cut` view over
this database (see :func:`repro.cuts.enumeration.enumerate_cuts`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..networks.base import GateType
from ..truth.truth_table import TruthTable
from .cut import Cut
from .enumeration import _expand_bits

__all__ = ["CutDatabase", "leaf_signature"]

_VAR1_BITS = 2  # TruthTable.var(1, 0).bits — the single-variable projection

# gate kinds as plain ints (the flat core stores kinds as bytes; comparing
# against ints keeps IntEnum overhead out of the enumeration loop)
_CONST = int(GateType.CONST)
_PI = int(GateType.PI)
_AND = int(GateType.AND)
_XOR = int(GateType.XOR)    # kinds <= _XOR with fanins are binary gates
_MAJ = int(GateType.MAJ)


def leaf_signature(leaves: Sequence[int]) -> int:
    """64-bit Bloom signature of a leaf set (bit ``node % 64`` per leaf)."""
    sig = 0
    for leaf in leaves:
        sig |= 1 << (leaf & 63)
    return sig


class CutDatabase:
    """All priority cuts of one network in flat parallel arrays.

    ``spans[node] == (start, end)`` indexes the node's cut records inside the
    flat arrays; the trivial cut of a gate node is always the last record of
    its span.  :meth:`cuts` materializes (and memoizes) the node's records as
    :class:`Cut` objects for consumers that want the object view.

    ``stats`` counts, over all nodes: ``candidates`` — every k-feasible
    merge of fanin cuts, repeated leaf sets included; ``dominated`` — the
    candidates examined before the node's budget filled that a kept cut's
    leaf set is a subset of (repeats of a kept or dominated leaf set are
    among them); ``subset_checks`` — pairwise candidate/kept-cut
    comparisons; ``sig_rejections`` — the comparisons the signatures
    settled without the exact subset test.
    """

    __slots__ = (
        "ntk", "k", "cut_limit", "network_version",
        "leaves", "sig", "tt_bits", "tt_vars", "root", "phase",
        "spans", "stats", "_materialized", "_intern",
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
        self.sig: List[int] = []
        self.tt_bits: List[int] = []
        self.tt_vars: List[int] = []
        self.root: List[int] = []
        self.phase: List[bool] = []
        # per-node (start, end) spans into the flat arrays
        self.spans: List[Tuple[int, int]] = [(0, 0)] * n_total
        self._materialized: List[Optional[List[Cut]]] = [None] * n_total
        self._intern: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
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
        flat_sig = self.sig
        flat_bits = self.tt_bits
        flat_vars = self.tt_vars
        flat_root = self.root
        flat_phase = self.phase
        spans = self.spans
        intern = self._intern
        stats = self.stats
        limit = max(self.cut_limit - 1, 0)
        n_cand = n_dominated = n_checks = n_sig_rejections = 0

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

            # -- candidate merge on signatures and leaf tuples --
            # buckets[n] holds the candidates of exactly n leaves in merge
            # order, as (signature, fanin cut ids, leaf set or None); the
            # set is built only when fanin signatures overlap, otherwise the
            # leaves are disjoint and the size is the sum of the fanin sizes
            buckets: List[list] = [[] for _ in range(k + 1)]
            if len(fis) == 2:
                (s0, e0), (s1, e1) = spans[fis[0] >> 1], spans[fis[1] >> 1]
                for i0 in range(s0, e0):
                    g0 = flat_sig[i0]
                    l0 = flat_leaves[i0]
                    n0 = len(l0)
                    set0 = None
                    for i1 in range(s1, e1):
                        g1 = flat_sig[i1]
                        g = g0 | g1
                        if g.bit_count() > k:
                            continue
                        if g0 & g1:
                            if set0 is None:
                                set0 = set(l0)
                            u = set0.union(flat_leaves[i1])
                            n = len(u)
                        else:
                            u = None
                            n = n0 + len(flat_leaves[i1])
                        if n <= k:
                            buckets[n].append((g, (i0, i1), u))
            else:
                (s0, e0), (s1, e1), (s2, e2) = (spans[f >> 1] for f in fis)
                for i0 in range(s0, e0):
                    g0 = flat_sig[i0]
                    l0 = flat_leaves[i0]
                    for i1 in range(s1, e1):
                        g1 = flat_sig[i1]
                        g01 = g0 | g1
                        if g01.bit_count() > k:
                            continue
                        l1 = flat_leaves[i1]
                        if g0 & g1:
                            u01 = set(l0).union(l1)
                            n01 = len(u01)
                        else:
                            u01 = None
                            n01 = len(l0) + len(l1)
                        if n01 > k:
                            continue
                        for i2 in range(s2, e2):
                            g2 = flat_sig[i2]
                            g = g01 | g2
                            if g.bit_count() > k:
                                continue
                            if g01 & g2:
                                if u01 is None:
                                    u01 = set(l0).union(l1)
                                u = u01.union(flat_leaves[i2])
                                n = len(u)
                            else:
                                u = None
                                n = n01 + len(flat_leaves[i2])
                            if n <= k:
                                buckets[n].append((g, (i0, i1, i2), u))

            # -- dominance, smallest cuts first --
            kept: List[tuple] = []
            for bucket in buckets:
                n_cand += len(bucket)
                if len(kept) >= limit:
                    continue
                for g, ids, u in bucket:
                    if len(kept) >= limit:
                        break
                    not_g = ~g
                    for kg, kl, _ in kept:
                        n_checks += 1
                        if kg & not_g:    # a kept leaf is not in the candidate
                            n_sig_rejections += 1
                            continue
                        if u is None:
                            u = set().union(*[flat_leaves[i] for i in ids])
                        if u.issuperset(kl):
                            n_dominated += 1
                            break
                    else:
                        if u is None:
                            u = set().union(*[flat_leaves[i] for i in ids])
                        leaves = tuple(sorted(u))
                        kept.append((g, leaves, ids))

            # -- truth tables, only for the survivors --
            for g, leaves, ids in kept:
                nv = len(leaves)
                full = (1 << (1 << nv)) - 1
                vals = []
                for i, f in zip(ids, fis):
                    bits = flat_bits[i]
                    cl = flat_leaves[i]
                    if len(cl) != nv:   # equal sizes: same leaves, same order
                        bits = _expand_bits(
                            bits, tuple([leaves.index(x) for x in cl]), nv)
                    if f & 1:
                        bits ^= full
                    vals.append(bits)
                if t == _AND:
                    out = vals[0] & vals[1]
                elif t == _XOR:
                    out = vals[0] ^ vals[1]
                elif t == _MAJ:
                    a, b, c = vals
                    out = (a & b) | (a & c) | (b & c)
                else:           # XOR3
                    out = vals[0] ^ vals[1] ^ vals[2]
                flat_leaves.append(intern.setdefault(leaves, leaves))
                flat_sig.append(g)
                flat_bits.append(out & full)
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
                    flat_sig.append(flat_sig[i])
                    flat_bits.append(bits)
                    flat_vars.append(flat_vars[i])
                    flat_root.append(flat_root[i])
                    flat_phase.append(ch_phase)

            self._append_trivial(node)
            spans[node] = (start, len(flat_leaves))

        stats["candidates"] = n_cand
        stats["dominated"] = n_dominated
        stats["subset_checks"] = n_checks
        stats["sig_rejections"] = n_sig_rejections

    def _append_trivial(self, node: int) -> None:
        leaves = self._intern.setdefault((node,), (node,))
        self.leaves.append(leaves)
        self.sig.append(1 << (node & 63))
        self.tt_bits.append(_VAR1_BITS)
        self.tt_vars.append(1)
        self.root.append(node)
        self.phase.append(False)

    # ------------------------------------------------------------------ #
    # views                                                               #
    # ------------------------------------------------------------------ #

    def num_cuts(self) -> int:
        return len(self.leaves)

    def cuts(self, node: int) -> List[Cut]:
        """The node's cut records as :class:`Cut` objects (memoized).

        The returned list (and its cuts) is shared between all consumers of
        the database — treat it as read-only.
        """
        got = self._materialized[node]
        if got is None:
            got = [self.cut(i) for i in range(*self.spans[node])]
            self._materialized[node] = got
        return got

    def cut(self, i: int) -> Cut:
        """Record ``i`` of the flat arrays as a fresh :class:`Cut`."""
        return Cut(self.leaves[i], TruthTable(self.tt_vars[i], self.tt_bits[i]),
                   self.root[i], self.phase[i])

    def cut_lists(self) -> List[List[Cut]]:
        """Per-node cut lists for all nodes (the ``enumerate_cuts`` view)."""
        return [self.cuts(n) for n in range(len(self.spans))]

    def signatures(self, node: int) -> List[int]:
        """Leaf signatures of the node's cuts, aligned with :meth:`cuts`."""
        start, end = self.spans[node]
        return self.sig[start:end]

    def __repr__(self) -> str:
        return (f"<CutDatabase nodes={self.stats['nodes']} cuts={self.num_cuts()} "
                f"k={self.k} limit={self.cut_limit}>")
