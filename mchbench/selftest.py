"""Self-tests of the benchmark itself.

Run from the root of a checkout::

    python3 mchbench/selftest.py

Each test prints PASS or FAIL; the exit code is 1 if any failed.  They
check that the seed alone fixes the inputs and the serve stream, that the
traced self times add up, that the layer-bypass predictions of NOTES.md
hold, that the checker rejects planted faults, and that QoR and engine
counts do not depend on the interpreter's hash seed.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HASH_SEEDS = ("0", "12345")


def test_seed_fixes_inputs():
    from repro.batch.runner import state_fingerprint

    for name, cls in workloads.WORKLOADS.items():
        make = (lambda seed: cls(seed, workdir=ROOT)) \
            if cls is workloads.BatchPool else cls
        plans = [make(seed).plan() for seed in (7, 7, 8)]
        assert plans[0] == plans[1], f"{name}: seed 7 gave two plans"
        table = issubclass(cls, workloads._TableWorkload)
        assert (plans[0] == plans[2]) == table, \
            f"{name}: seeds 7 and 8 {'differ' if table else 'agree'}"
    for name in workloads.comb_suite():
        assert state_fingerprint(workloads.build(name)) == \
            state_fingerprint(workloads.build(name)), f"{name} rebuilt differently"


def test_self_times_add_up():
    spans = [["op", 0.0, 10.0, -1, "a"], ["x", 1.0, 4.0, 0, "a"],
             ["y", 2.0, 3.0, 1, "a"], ["x", 5.0, 9.0, 0, "a"]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    table = workloads.Table2Lut(1)
    table.setup()
    tracer = tracing.Tracer().install()
    try:
        ops = [table.run_op(name, f"t:{name}", tracer) for name in ("dec", "sqrt")]
    finally:
        tracer.close()
        table.close()
    own = tracing.self_times(tracer.spans)
    for op in ops:
        total = sum(t for span, t in zip(tracer.spans, own) if span[4] == op.id)
        root = next(s for s in tracer.spans if s[4] == op.id and s[3] == -1)
        assert abs(total - (root[2] - root[1])) < 1e-9, \
            f"{op.name}: self times {total} != op span {root[2] - root[1]}"
        wall = op.t1 - op.t0
        assert abs(total - wall) < 1e-3, f"{op.name}: op span {total} != " \
                                         f"op wall {wall}"


def _traced_counts(table, names):
    from repro.sat.solver import solver_stats

    table.setup()
    tracer = tracing.Tracer().install()
    solves = solver_stats()["solves"]
    try:
        for name in names:
            op = table.run_op(name, f"t:{name}", tracer)
            assert not op.error and not op.problems, (op.error, op.problems)
    finally:
        tracer.close()
        table.close()
    spans = {}
    for span in tracer.spans:
        spans[span[0]] = spans.get(span[0], 0) + 1
    return tracer.counts, spans, solver_stats()["solves"] - solves


def test_bypass_predictions():
    counts, spans, solves = _traced_counts(workloads.Table2Lut(1),
                                           ("dec", "sqrt", "ctrl"))
    assert counts.get("mapping.asic_calls", 0) == 0, counts
    assert counts.get("sat.queries", 0) == 0 and solves == 0, (counts, solves)
    assert spans.get("mapping.lut_map", 0) > 0, spans
    counts, spans, solves = _traced_counts(workloads.Table1Asic(1), ("dec",))
    assert spans.get("mapping.lut_map", 0) == 0, spans
    assert counts.get("mapping.asic_calls", 0) == 6, counts


def _plant_wrong_cell(netlist):
    from repro.truth.truth_table import TruthTable

    bad = copy.deepcopy(netlist)
    cells = bad._drivers                  # net -> (cell, fanin nets) | None
    for net in bad.pos:
        if cells[net] is not None:
            cell, fanins = cells[net]
            fn = cell.function
            wrong = dataclasses.replace(
                cell, function=TruthTable(fn.num_vars, ~fn.bits))
            cells[net] = (wrong, fanins)
            return bad
    raise AssertionError("no cell drives a PO")


def _plant_wrong_lut(luts):
    from repro.truth.truth_table import TruthTable

    bad = copy.deepcopy(luts)
    for node, _phase in bad.pos:
        if bad.is_lut(node):
            fn = bad.lut_function(node)
            bad._tts[node] = TruthTable(fn.num_vars, ~fn.bits)
            return bad
    raise AssertionError("no LUT drives a PO")


def test_checker_rejects_planted_faults():
    from repro.mapping import asic_map, lut_map

    for name in ("adder", "i2c"):          # exhaustive, then random patterns
        ntk = workloads.build(name)
        netlist = asic_map(ntk, objective="area")
        luts = lut_map(ntk, k=6)
        assert checker.check(ntk, netlist, "netlist") == "", name
        assert checker.check(ntk, luts, "lut") == "", name
        assert checker.check(ntk, _plant_wrong_cell(netlist), "netlist"), \
            f"{name}: a wrong cell passed"
        assert checker.check(ntk, _plant_wrong_lut(luts), "lut"), \
            f"{name}: a wrong LUT passed"
    ntk = workloads.build("adder")
    rewired = copy.deepcopy(ntk)
    gate = next(iter(rewired.gates()))
    rewired._fanins[gate] = tuple(f ^ 1 for f in rewired._fanins[gate])
    assert checker.check(ntk, rewired, "logic"), "a rewired gate passed"


def probe() -> dict:
    """QoR and engine counts of a few ops; run under each hash seed."""
    from repro.batch.runner import state_fingerprint
    from repro.experiments.common import experiment_context
    from repro.experiments.table1 import run_circuit
    from repro.experiments.table2 import run_table2
    from repro.flow import Flow, FlowContext, FlowRunner
    from repro.sat.solver import solver_stats
    from repro.sim.engine import sim_stats

    out = {}
    rows = run_circuit(workloads.build("sqrt"), context=experiment_context())
    out["table1/sqrt"] = {cfg: [r.area, r.delay] for cfg, r in rows.items()}
    for name in ("sqrt", "ctrl"):
        row = run_table2([name], scale=workloads.SCALE)[name]
        out[f"table2/{name}"] = dataclasses.astuple(row)
    for name, flow in (("arbiter", workloads.SERVE_FLOW),
                       ("ctrl", workloads.BATCH_FLOW)):
        before = {**solver_stats(), **sim_stats()}
        net = FlowRunner(FlowContext()).run(workloads.build(name),
                                            Flow.parse(flow)).network
        after = {**solver_stats(), **sim_stats()}
        out[f"flow/{name}"] = {"fingerprint": state_fingerprint(net),
                               **{k: after[k] - before[k] for k in after}}
    return out


def test_determinism_across_hash_seeds():
    results = []
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--probe"], cwd=ROOT, env=env, timeout=170,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    for key in results[0]:
        assert results[0][key] == results[1][key], \
            f"{key} differs: {results[0][key]} vs {results[1][key]}"


def test_benchmark_json_matches():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


TESTS = [test_benchmark_json_matches, test_seed_fixes_inputs, test_self_times_add_up,
         test_bypass_predictions, test_checker_rejects_planted_faults,
         test_determinism_across_hash_seeds]


def main() -> int:
    if sys.argv[1:] == ["--probe"]:
        print(json.dumps(probe()))
        return 0
    failed = 0
    for test in TESTS:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"PASS {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
