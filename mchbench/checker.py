"""Independent functional checker for the benchmark's op outputs.

It shares no code with ``repro.sim`` or ``repro.sat``: it reads the
structure of a network (gate kinds and fanin literals, cell and LUT truth
tables) and evaluates it bit-parallel with Python ints, one bit per input
pattern.  Inputs with at most :data:`EXHAUSTIVE_PIS` primary inputs are
checked over every input pattern; wider ones over :data:`RANDOM_PATTERNS`
seeded random patterns.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

EXHAUSTIVE_PIS = 16
RANDOM_PATTERNS = 4096

# gate kinds of repro.networks.base.GateType, by value
_CONST, _PI, _AND, _XOR, _MAJ, _XOR3 = range(6)


def patterns(num_pis: int, seed: int = 1) -> Tuple[List[int], int]:
    """PI stimulus words and the valid-bit mask."""
    if num_pis <= EXHAUSTIVE_PIS:
        width = 1 << num_pis
        mask = (1 << width) - 1
        words = []
        for i in range(num_pis):
            block = 1 << i                   # runs of 2^i zeros then ones
            unit = ((1 << block) - 1) << block
            period = block * 2
            word = 0
            for start in range(0, width, period):
                word |= unit << start
            words.append(word & mask)
        return words, mask
    rng = random.Random(seed)
    mask = (1 << RANDOM_PATTERNS) - 1
    return [rng.getrandbits(RANDOM_PATTERNS) for _ in range(num_pis)], mask


def _eval_function(bits: int, num_vars: int, ins: Sequence[int], mask: int) -> int:
    """Evaluate a truth table (bit m = value at minterm m) by Shannon
    expansion on the last variable."""
    if num_vars == 0:
        return mask if bits & 1 else 0
    half = 1 << (num_vars - 1)
    lo = bits & ((1 << half) - 1)
    hi = bits >> half
    x = ins[num_vars - 1]
    f0 = _eval_function(lo, num_vars - 1, ins, mask)
    if hi == lo:
        return f0
    f1 = _eval_function(hi, num_vars - 1, ins, mask)
    return (x & f1) | (~x & mask & f0)


def eval_logic(ntk, words: Sequence[int], mask: int) -> List[int]:
    """PO words of an AIG/XAG/MIG/XMG-style logic network."""
    n = ntk.num_nodes()
    vals = [0] * n
    for word, pi in zip(words, ntk.pis):
        vals[pi] = word
    for node in range(n):
        kind = int(ntk.node_type(node))
        if kind in (_CONST, _PI):
            continue
        ins = [vals[f >> 1] ^ (mask if f & 1 else 0) for f in ntk.fanins(node)]
        if kind == _AND:
            vals[node] = ins[0] & ins[1]
        elif kind == _XOR:
            vals[node] = ins[0] ^ ins[1]
        elif kind == _MAJ:
            a, b, c = ins
            vals[node] = (a & b) | (a & c) | (b & c)
        elif kind == _XOR3:
            vals[node] = ins[0] ^ ins[1] ^ ins[2]
        else:
            raise ValueError(f"unknown gate kind {kind} at node {node}")
    return [vals[p >> 1] ^ (mask if p & 1 else 0) for p in ntk.pos]


def eval_netlist(netlist, words: Sequence[int], mask: int) -> List[int]:
    """PO words of a mapped standard-cell netlist (net 0/1 = constants)."""
    cells = netlist._drivers              # net -> (cell, fanin nets) | None
    vals = [0, mask] + [0] * (len(cells) - 2)
    for word, pi in zip(words, netlist.pis):
        vals[pi] = word
    for net, instance in enumerate(cells):
        if instance is None:
            continue
        cell, fanins = instance
        fn = cell.function
        vals[net] = _eval_function(fn.bits, fn.num_vars,
                                   [vals[f] for f in fanins], mask)
    return [vals[p] for p in netlist.pos]


def eval_luts(luts, words: Sequence[int], mask: int) -> List[int]:
    """PO words of a K-LUT network (node 0 = constant 0)."""
    n = len(luts.levels())
    vals = [0] * n
    for word, pi in zip(words, luts.pis):
        vals[pi] = word
    for node in range(n):
        if not luts.is_lut(node):
            continue
        fn = luts.lut_function(node)
        vals[node] = _eval_function(fn.bits, fn.num_vars,
                                    [vals[f] for f in luts.fanins(node)], mask)
    return [vals[node] ^ (mask if phase else 0) for node, phase in luts.pos]


def check(reference, impl, kind: str) -> str:
    """Compare ``impl`` (kind ``logic``, ``netlist`` or ``lut``) with the
    logic network ``reference`` it must implement.  Returns "" when every
    PO agrees on every checked pattern, else a description of the first
    mismatch."""
    evaluate = {"logic": eval_logic, "netlist": eval_netlist,
                "lut": eval_luts}[kind]
    num_pis = reference.num_pis()
    if len(impl.pis) != num_pis:
        return f"{kind}: {len(impl.pis)} PIs, reference has {num_pis}"
    words, mask = patterns(num_pis)
    want = eval_logic(reference, words, mask)
    got = evaluate(impl, words, mask)
    if len(got) != len(want):
        return f"{kind}: {len(got)} POs, reference has {len(want)}"
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            bad = (g ^ w) & mask
            pattern = (bad & -bad).bit_length() - 1
            return f"{kind}: PO {i} differs at pattern {pattern}"
    return ""
