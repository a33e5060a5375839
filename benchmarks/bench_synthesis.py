"""Micro-benchmark: candidate synthesis with a cold vs a warm plan memo.

Builds the MCH choice network of every Table-I circuit under the three
Table-I ``MchParams`` configurations (balanced, delay- and area-oriented;
the delay-oriented one starts from the circuit's XAG graph mapping, as
Table I does), in three passes:

* **cold** — the process-wide synthesis-plan memo is cleared before every
  ``build_mch`` call, so each call plans its functions from scratch and
  profits only from repeats inside itself;
* **shared** — the memo starts empty and carries over from build to
  build, as in one fresh process running the whole table;
* **warm** — the memo already holds every plan of the table.

All passes must build the same choice networks: equal
``structural_hash()``, choice counts and choice classes.  Results (seconds
per pass, the memo's hit ratio in each) are written to
``benchmarks/results/BENCH_synthesis.json``.

Run standalone (``python benchmarks/bench_synthesis.py``) or under pytest.
"""

import json
import time

import pytest

from conftest import RESULTS_DIR, SCALE, selected_circuits

from repro.circuits import ALL_BENCHMARKS, build
from repro.core import MchParams, build_mch
from repro.mapping import graph_map
from repro.networks import Aig, Xag, Xmg
from repro.synthesis import synthesis_plan_stats
from repro.synthesis.factoring import _plan_cached

#: (Table-I config, candidate representations, critical-path ratio)
CONFIGS = (("mch_balanced", (Aig,), 1.0),
           ("mch_delay", (Xag, Aig), 0.6),
           ("mch_area", (Xmg, Aig), 1.5))


def _subjects(scale: str):
    out = []
    for name in selected_circuits(ALL_BENCHMARKS):
        ntk = build(name, scale)
        xag = graph_map(ntk, Xag, objective="delay")
        for config, reps, ratio in CONFIGS:
            subject = xag if config == "mch_delay" else ntk
            out.append((name, config, subject,
                        MchParams(representations=reps, ratio=ratio)))
    return out


def _pass(subjects, cold: bool):
    """(seconds, hit ratio, memo lookups, per-build signatures) of one pass."""
    before = synthesis_plan_stats()
    hits = misses = 0
    seconds = 0.0
    signatures = {}
    for name, config, subject, params in subjects:
        if cold:
            _plan_cached.cache_clear()
            before = synthesis_plan_stats()
        t0 = time.perf_counter()
        choice = build_mch(subject, params)
        seconds += time.perf_counter() - t0
        after = synthesis_plan_stats()
        hits += after["hits"] - before["hits"]
        misses += after["misses"] - before["misses"]
        before = after
        signatures[(name, config)] = (choice.ntk.structural_hash(),
                                      choice.num_choices(), choice.choices_of)
    lookups = hits + misses
    return seconds, (hits / lookups if lookups else 0.0), lookups, signatures


def measure(scale: str = SCALE) -> dict:
    subjects = _subjects(scale)
    cold_s, cold_ratio, lookups, cold_sigs = _pass(subjects, cold=True)
    _plan_cached.cache_clear()
    shared_s, shared_ratio, _, shared_sigs = _pass(subjects, cold=False)
    warm_s, warm_ratio, _, warm_sigs = _pass(subjects, cold=False)
    return {
        "scale": scale,
        "builds": len(subjects),
        "plan_lookups": lookups,
        "cold_seconds": round(cold_s, 6),
        "shared_seconds": round(shared_s, 6),
        "warm_seconds": round(warm_s, 6),
        "cold_hit_ratio": round(cold_ratio, 4),
        "shared_hit_ratio": round(shared_ratio, 4),
        "warm_hit_ratio": round(warm_ratio, 4),
        "warm_speedup": round(cold_s / warm_s, 3) if warm_s > 0 else 0.0,
        "choices": sum(sig[1] for sig in cold_sigs.values()),
        "identical": cold_sigs == shared_sigs == warm_sigs,
        "plan_memo": synthesis_plan_stats(),
    }


def write_json(result: dict) -> None:
    path = RESULTS_DIR / "BENCH_synthesis.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    print(f"\nwrote {path}")
    print(json.dumps(result, indent=2))


@pytest.mark.benchmark(group="synthesis")
def test_bench_synthesis(benchmark):
    result = benchmark.pedantic(measure, rounds=1, iterations=1)
    write_json(result)
    # the memo must never change what is built, only how fast
    assert result["identical"]
    assert result["choices"] > 0
    # the warm pass plans nothing anew
    assert result["warm_hit_ratio"] == 1.0
    assert result["shared_hit_ratio"] >= result["cold_hit_ratio"] > 0.0
    assert result["plan_memo"]["size"] <= result["plan_memo"]["limit"]


if __name__ == "__main__":
    write_json(measure())
