"""Micro-benchmark: cut-enumeration throughput and full K-LUT mapping.

Measures, on the largest bundled circuit at the selected scale:

* cut-database construction (priority-cut enumeration with exact cut
  functions, k=6, cut_limit=8) — reported as nodes/second;
* the same enumeration through the re-frozen pre-flat baseline of
  ``_baseline_flat.py`` (seed object-cut enumerator, eager truth tables) —
  the speedup between the two is the flat-core headline number
  (target: >= 3x), and the two cut sets must be **bit-identical**;
* one full ``lut_map`` run (enumeration + all covering passes);
* the cut database of a Table-II MCH choice network (the circuit's area
  6-LUT mapping strashed back to an AIG, with XMG choices built by the
  Table-II parameters), against :class:`BaselineCutDatabase`, the frozen
  wide-bitmask builder of ``_baseline_flat.py`` — every database array
  must be identical, and the speedup between the two is recorded.

Results are written to ``benchmarks/results/BENCH_cuts.json`` so successive
revisions can be compared.

Run standalone (``python benchmarks/bench_cuts.py``) or under pytest.
"""

import json
import time

import pytest

from conftest import RESULTS_DIR, SCALE

from _baseline_flat import BaselineCutDatabase, baseline_enumerate_cuts
from repro.circuits import ALL_BENCHMARKS, build
from repro.core import MchParams, build_mch
from repro.cuts import expand_cache_stats
from repro.cuts.database import CutDatabase
from repro.mapping import lut_map
from repro.networks import Aig, Xmg

K = 6
CUT_LIMIT = 8


def largest_circuit(scale: str):
    """(name, network) of the bundled circuit with the most gates."""
    best_name, best_ntk = None, None
    for name in ALL_BENCHMARKS:
        ntk = build(name, scale)
        if best_ntk is None or ntk.num_gates() > best_ntk.num_gates():
            best_name, best_ntk = name, ntk
    return best_name, best_ntk


def _cut_signature(cut_lists):
    """Exact content of a cut set: leaves, truth table, root, phase per cut."""
    return [[(c.leaves, c.tt.num_vars, c.tt.bits, c.root, c.phase) for c in cl]
            for cl in cut_lists]


#: the flat arrays a cut database is made of
DB_ARRAYS = ("leaves", "sig", "tt_bits", "tt_vars", "root", "phase", "spans")


def table2_choice_network(ntk):
    """A Table-II MCH choice network: the area 6-LUT mapping of ``ntk``
    strashed back into a redundant AIG, with XMG choices (the parameters of
    ``experiments/table2.py``)."""
    redundant = lut_map(ntk, k=K, objective="area").to_logic_network(Aig)
    return build_mch(redundant, MchParams(
        representations=(Xmg,), ratio=1.5, cut_size=6,
        max_cuts_per_node=4, mffc_max_pis=10,
    ))


def measure_choice(ntk) -> dict:
    """Choice-network cut database vs the frozen bitmask builder."""
    ch = table2_choice_network(ntk)
    args = dict(k=K, cut_limit=CUT_LIMIT, order=ch.processing_order(),
                choices=ch.choices_of)
    t0 = time.perf_counter()
    db = CutDatabase(ch.ntk, **args)
    t_enum = time.perf_counter() - t0
    t0 = time.perf_counter()
    base = BaselineCutDatabase(ch.ntk, **args)
    t_base = time.perf_counter() - t0
    return {
        "choice_nodes": ch.ntk.num_nodes(),
        "choice_choices": ch.num_choices(),
        "choice_cuts": db.num_cuts(),
        "choice_enum_seconds": round(t_enum, 6),
        "choice_baseline_seconds": round(t_base, 6),
        "choice_enum_speedup": round(t_base / t_enum, 3) if t_enum > 0 else 0.0,
        "choice_arrays_identical": all(getattr(db, a) == getattr(base, a)
                                       for a in DB_ARRAYS),
        "choice_db_stats": db.stats,
    }


def measure(scale: str = SCALE) -> dict:
    name, ntk = largest_circuit(scale)

    t0 = time.perf_counter()
    db = CutDatabase(ntk, k=K, cut_limit=CUT_LIMIT)
    t_enum = time.perf_counter() - t0

    t0 = time.perf_counter()
    baseline_cuts = baseline_enumerate_cuts(ntk, K, CUT_LIMIT)
    t_base = time.perf_counter() - t0

    identical = _cut_signature(db.cut_lists()) == _cut_signature(baseline_cuts)

    t0 = time.perf_counter()
    lut = lut_map(ntk, k=K, cut_limit=CUT_LIMIT, objective="area")
    t_map = time.perf_counter() - t0

    n_nodes = ntk.num_nodes()
    return {
        "circuit": name,
        "scale": scale,
        "k": K,
        "cut_limit": CUT_LIMIT,
        "nodes": n_nodes,
        "gates": ntk.num_gates(),
        "cuts": db.num_cuts(),
        "enum_seconds": round(t_enum, 6),
        "enum_nodes_per_sec": round(n_nodes / t_enum, 1),
        "baseline_enum_seconds": round(t_base, 6),
        "enum_speedup": round(t_base / t_enum, 3) if t_enum > 0 else 0.0,
        "cuts_bit_identical": identical,
        "lut_map_seconds": round(t_map, 6),
        "total_seconds": round(t_enum + t_map, 6),
        "luts": lut.num_luts(),
        "lut_depth": lut.depth(),
        "cut_db_stats": db.stats,
        **measure_choice(ntk),
        "expand_cache": expand_cache_stats(),
    }


def _measure_with_retry() -> dict:
    """One timing retry absorbs scheduler noise on shared CI runners; the
    real margin is well above the 3x threshold."""
    result = measure()
    if result["enum_speedup"] < 3.0:
        result = measure()
    return result


def write_json(result: dict) -> None:
    path = RESULTS_DIR / "BENCH_cuts.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {path}")
    print(json.dumps({k: v for k, v in result.items()
                      if k not in ("cut_db_stats", "choice_db_stats", "expand_cache")},
                     indent=2))


@pytest.mark.benchmark(group="cuts")
def test_bench_cuts(benchmark):
    result = benchmark.pedantic(_measure_with_retry, rounds=1, iterations=1)
    write_json(result)
    # sanity: the mapping must actually cover the circuit
    assert result["luts"] > 0
    assert result["cuts"] > result["gates"]
    # the flat database must reproduce the frozen enumerator exactly, fast
    assert result["cuts_bit_identical"]
    assert result["enum_speedup"] >= 3.0
    # ... and the frozen bitmask builder's arrays on a choice network
    assert result["choice_choices"] > 0
    assert result["choice_arrays_identical"]


if __name__ == "__main__":
    write_json(_measure_with_retry())
