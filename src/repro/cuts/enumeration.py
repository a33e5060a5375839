"""Priority-cut enumeration (Mishchenko et al., ICCAD'07).

For every node of a network this computes up to ``cut_limit`` k-feasible cuts
by merging the fanin cut sets, filtering dominated cuts, and attaching the
exact cut function as a truth table.  Cut functions are what both the
K-LUT mapper (LUT content) and the ASIC mapper (Boolean matching against
library cells) consume, and what MCH's multi-strategy resynthesis
(Algorithm 2) rewrites.

The actual enumeration engine lives in :mod:`repro.cuts.database` — a flat,
signature-indexed :class:`~repro.cuts.database.CutDatabase` shared by all
mapper passes.  :func:`enumerate_cuts` is the stable list-of-``Cut`` view of
that database.

This module also owns the truth-table *expansion* machinery (re-expressing a
cut function over a merged leaf set).  Expansions are memoized per source
function and position map in a bounded LRU cache; :func:`expand_cache_stats`
exposes hit/miss/eviction counters so long-running services can monitor it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

from ..truth.truth_table import TruthTable
from .cut import Cut

__all__ = [
    "enumerate_cuts",
    "expand_tt",
    "expand_cache_stats",
    "set_expand_cache_limit",
    "clear_expand_cache",
]

# LRU cache: (source bits, positions, num_vars) -> expanded bits.  Cut
# functions repeat across nodes and networks, so a whole mapping pass needs
# only a few thousand distinct expansions and almost every lookup hits.
_EXPAND_CACHE: "OrderedDict[Tuple[int, Tuple[int, ...], int], int]" = OrderedDict()
_EXPAND_CACHE_LIMIT = 8192
_EXPAND_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def _expand_bits(src_bits: int, positions: Tuple[int, ...], num_vars: int) -> int:
    """Raw-int core of :func:`expand_tt`, LRU-cached; ``positions`` must be a
    tuple."""
    key = (src_bits, positions, num_vars)
    cache = _EXPAND_CACHE
    bits = cache.get(key)
    if bits is not None:
        _EXPAND_STATS["hits"] += 1
        cache.move_to_end(key)
        return bits
    _EXPAND_STATS["misses"] += 1
    bits = 0
    for m in range(1 << num_vars):
        src = 0
        for i, p in enumerate(positions):
            if (m >> p) & 1:
                src |= 1 << i
        if (src_bits >> src) & 1:
            bits |= 1 << m
    cache[key] = bits
    while len(cache) > _EXPAND_CACHE_LIMIT:
        cache.popitem(last=False)
        _EXPAND_STATS["evictions"] += 1
    return bits


def expand_tt(tt: TruthTable, positions: Sequence[int], num_vars: int) -> int:
    """Re-express ``tt`` over a larger variable set.

    ``positions[i]`` gives the new index of old variable ``i``.  Returns raw
    bits over ``num_vars`` variables.
    """
    return _expand_bits(tt.bits, tuple(positions), num_vars)


def expand_cache_stats() -> Dict[str, int]:
    """Counters of the expansion LRU cache (the cache-stats hook)."""
    return {
        "hits": _EXPAND_STATS["hits"],
        "misses": _EXPAND_STATS["misses"],
        "evictions": _EXPAND_STATS["evictions"],
        "size": len(_EXPAND_CACHE),
        "limit": _EXPAND_CACHE_LIMIT,
    }


def set_expand_cache_limit(limit: int) -> None:
    """Re-bound the expansion cache; evicts LRU entries beyond ``limit``."""
    global _EXPAND_CACHE_LIMIT
    if limit < 1:
        raise ValueError("cache limit must be positive")
    _EXPAND_CACHE_LIMIT = limit
    while len(_EXPAND_CACHE) > _EXPAND_CACHE_LIMIT:
        _EXPAND_CACHE.popitem(last=False)
        _EXPAND_STATS["evictions"] += 1


def clear_expand_cache() -> None:
    """Drop all cached expansions and reset the counters."""
    _EXPAND_CACHE.clear()
    _EXPAND_STATS.update(hits=0, misses=0, evictions=0)


def enumerate_cuts(ntk, k: int = 6, cut_limit: int = 8,
                   nodes: Sequence[int] = None, order: Sequence[int] = None,
                   choices: "Dict[int, List[Tuple[int, bool]]]" = None) -> List[List[Cut]]:
    """Compute priority cuts for every node.

    Returns ``cuts[node]`` — a list of at most ``cut_limit`` priority cuts
    followed by the trivial cut ``{node}``, which for gate nodes is **always
    the last element** of the list (kept last so the mapper can always fall
    back on it without it ever displacing a real cut from the budget).  Cut
    truth tables are exact.

    ``nodes`` optionally restricts computation to a node subset (plus their
    transitive fanin), used when only part of the network needs cuts.

    ``choices`` maps representative nodes to ``(choice_node, phase)`` pairs;
    when given (together with a compatible ``order``, normally
    :meth:`ChoiceNetwork.processing_order`), the cut set of each
    representative absorbs the cut sets of its choice nodes — the cut-merging
    step of the paper's Algorithm 3.  Merged cut truth tables are normalized
    to the representative's polarity, so downstream consumers never see the
    choice phase.
    """
    from .database import CutDatabase

    db = CutDatabase(ntk, k=k, cut_limit=cut_limit, nodes=nodes, order=order,
                     choices=choices)
    return db.cut_lists()
