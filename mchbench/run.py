"""End-to-end benchmark of the MCH pipeline.

Run from the root of a checkout::

    python3 mchbench/run.py --workload table1_asic --seed 1 --seconds 20 --trace 0

Workloads: ``table1_asic``, ``table2_lut``, ``serve_verify``,
``batch_pool`` (see workloads.py and NOTES.md).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Every timing is at reference speed
(calib.py).  The full result -- raw wall times, every calibration reading,
per-op times and QoR, the spans -- goes to ``.mchbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402  (stdlib only: reads the host speed before imports)

#: setups per run: this process plus this many fresh interpreters
SETUP_SUBPROCESSES = 2

SPAN_METRICS = {
    "opt.preopt": "opt.preopt_s",
    "cuts.build": "cuts.build_s",
    "synthesis.candidates": "synthesis.candidates_s",
    "core.build_mch": "core.build_mch_self_s",
    "core.build_dch": "core.build_dch_self_s",
    "mapping.asic_map": "mapping.asic_map_s",
    "mapping.cover": "mapping.cover_s",
    "mapping.lut_map": "mapping.lut_map_s",
    "mapping.graph_map": "mapping.graph_map_s",
    "sat.prove": "sat.prove_s",
    "batch.store": "batch.store_s",
    "op": "trace.other_self_s",
}
FLOW_PASSES = ("b", "rf", "rs", "gm", "cec")
TRACER_FIGURES = ("cuts.dbs", "cuts.cuts", "synthesis.calls", "core.choices",
                 "mapping.asic_calls", "sat.queries", "serve.cache.lookups",
                 "serve.pool.dispatched", "serve.pool.spawned", "serve.shed",
                 "batch.retries", "batch.overhead_s", "batch.busy_ratio")
SAMPLE_METRICS = ("serve.overhead_s", "serve.dispatch_s", "serve.hit_s")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s",
              "op_s.tail": "s", "peak_rss_mb": "MB", "qor.cost_rel": "ratio",
              "qor.depth_rel": "ratio"}

#: every per-layer metric: (name, unit, better); BENCHMARK.json lists them
PER_LAYER = (
    [(m, "s", "lower") for m in SPAN_METRICS.values()]
    + [(f"flow.pass_s.{p}", "s", "lower") for p in FLOW_PASSES]
    + [("cuts.dbs", "count", "lower"), ("cuts.cuts", "count", "lower"),
       ("cuts.expand_cache.lookups", "count", "lower"),
       ("cuts.expand_cache.hit_ratio", "ratio", "higher"),
       ("synthesis.calls", "count", "lower"),
       ("core.choices", "count", "higher"),
       ("mapping.asic_calls", "count", "lower"),
       ("sat.queries", "count", "lower"),
       ("sat.proved_ratio", "ratio", "higher"),
       ("sat.conflicts", "count", "lower"),
       ("sat.propagations", "count", "lower"),
       ("sat.decisions", "count", "lower"),
       ("sim.programs_built", "count", "lower"),
       ("sim.full_sims", "count", "lower"),
       ("sim.patterns_added", "count", "lower"),
       ("sim.cex_recycled", "count", "lower"),
       ("serve.overhead_s.p50", "s", "lower"),
       ("serve.dispatch_s.p50", "s", "lower"),
       ("serve.hit_s.p50", "s", "lower"),
       ("serve.cache.hit_ratio", "ratio", "higher"),
       ("serve.cache.lookups", "count", "higher"),
       ("serve.pool.dispatched", "count", "lower"),
       ("serve.pool.spawned", "count", "lower"),
       ("serve.shed", "count", "lower"),
       ("batch.overhead_s", "s", "lower"),
       ("batch.busy_ratio", "ratio", "higher"),
       ("batch.retries", "count", "lower"),
       ("trace.overhead_pct", "%", "lower")])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used internally)")
    return ap.parse_args(argv)


def engine_counters() -> dict:
    """The program's process-global engine counters, flattened."""
    from repro.cuts.enumeration import expand_cache_stats
    from repro.sat.solver import solver_stats
    from repro.sim.engine import sim_stats

    out = {f"sat.{k}": v for k, v in solver_stats().items()}
    out.update({f"sim.{k}": v for k, v in sim_stats().items()})
    cache = expand_cache_stats()
    out["cuts.expand_cache.hits"] = cache["hits"]
    out["cuts.expand_cache.misses"] = cache["misses"]
    return out


def source_digest() -> str:
    """A hash of every program source file."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, _dirs, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def tail(values):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        raise ValueError(f"a tail needs more than 10 samples, got {n}")
    return ordered[n - 11], (100 * (n - 10)) // n, n


def make_workload(name, seed):
    import workloads

    cls = workloads.WORKLOADS.get(name)
    if cls is None:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    if cls is workloads.BatchPool:
        return cls(seed, workdir=os.path.join(ROOT, ".mchbench"))
    return cls(seed)


def timed_setup(args):
    """Import the program, build the inputs and warm the system; returns
    the workload and the setup record (raw, readings, reference-speed)."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"no program sources under {ROOT}/src")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with calib.Sampler() as sampler:
        t0 = time.perf_counter()
        import repro  # noqa: F401
        import repro.experiments.table1  # noqa: F401
        import repro.experiments.table2  # noqa: F401
        import repro.serve  # noqa: F401
        import repro.batch  # noqa: F401
        workload = make_workload(args.workload, args.seed)
        workload.setup()
        t1 = time.perf_counter()
    return workload, {"wall": t1 - t0, "c": sampler.c_now(t0, t1),
                      "ref": sampler.to_ref(t0, t1),
                      "readings": sampler.readings()}


def subprocess_setups(args):
    samples = []
    for _ in range(SETUP_SUBPROCESSES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def geomean_ratio(qor, reference, index):
    import workloads

    missing = sorted(set(qor) - set(reference))
    if missing:
        raise RuntimeError(f"no QoR reference for {missing}")
    return workloads.geomean(qor[k][index] / reference[k][index] for k in qor)


def layer_metrics(tracer, factors, traced_ref, untraced_ref, counters):
    import tracing

    out = {m: 0.0 for m in SPAN_METRICS.values()}
    for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        metric = SPAN_METRICS.get(span[0])
        if metric is not None:
            out[metric] += own * factors.get(span[4], 1.0)
    for name in FLOW_PASSES:
        out[f"flow.pass_s.{name}"] = 0.0
    for op, name, seconds in tracer.flow_passes:
        key = f"flow.pass_s.{name}"
        if key in out:
            out[key] += seconds * factors.get(op, 1.0)
    for key in TRACER_FIGURES:
        out[key] = tracer.counts.get(key, 0)
    queries = tracer.counts.get("sat.queries", 0)
    out["sat.proved_ratio"] = tracer.counts.get("sat.proved", 0) / queries \
        if queries else 0.0
    lookups = tracer.counts.get("serve.cache.lookups", 0)
    out["serve.cache.hit_ratio"] = tracer.counts.get("serve.cache.hits", 0) / \
        lookups if lookups else 0.0
    for key in SAMPLE_METRICS:
        values = tracer.samples.get(key)
        out[key + ".p50"] = statistics.median(values) if values else 0.0
    for key in ("conflicts", "propagations", "decisions"):
        out[f"sat.{key}"] = counters.get(f"sat.{key}", 0)
    for key in ("programs_built", "full_sims", "patterns_added", "cex_recycled"):
        out[f"sim.{key}"] = counters.get(f"sim.{key}", 0)
    hits = counters.get("cuts.expand_cache.hits", 0)
    lookups = hits + counters.get("cuts.expand_cache.misses", 0)
    out["cuts.expand_cache.lookups"] = lookups
    out["cuts.expand_cache.hit_ratio"] = hits / lookups if lookups else 0.0
    out["trace.overhead_pct"] = 100.0 * (traced_ref / untraced_ref - 1.0)
    return out


def twin_ops(run_op, names, tracer):
    """Run each input twice, traced and untraced, alternating which goes
    first so neither side always finds the caches the other warmed.
    Returns (traced ops, untraced ops, engine counter deltas of the traced
    ops, sampler readings)."""
    traced, plain, counters = [], [], {}
    with calib.Sampler() as sampler:
        for i, name in enumerate(names):
            for with_tracer in ((True, False) if i % 2 == 0 else (False, True)):
                if not with_tracer:
                    plain.append(run_op(name, f"untraced:{name}", None))
                    continue
                before = engine_counters()
                tracer.install()
                try:
                    traced.append(run_op(name, f"traced:{name}", tracer))
                finally:
                    tracer.close()
                for key, value in engine_counters().items():
                    counters[key] = counters.get(key, 0) + value - before[key]
    for op in traced + plain:
        op.timed(sampler)
    return traced, plain, counters, sampler.readings()


def run_passes(args, workload, result):
    """Run the ops of one run: the timed passes, or (traced) the twin ops
    and one traced pass.  Returns (ops, errors, per-pass QoR, tracer,
    traced and untraced op time, engine counter deltas)."""
    import tracing
    import workloads

    table = isinstance(workload, workloads._TableWorkload)
    serve = isinstance(workload, workloads.ServeVerify)
    errors, ops_all, qor_passes = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    traced_ref = untraced_ref = 0.0
    counters, computed, passes = {}, None, []
    try:
        if not args.trace:
            n_passes = workload.passes(args.seconds)
        else:           # tables trace their ops; serve and batch one pass
            n_passes = 0 if table else 1
        for index in range(n_passes):
            if args.trace:
                tracer.install()
                try:
                    ops = workload.run_pass(index, tracer)
                finally:
                    tracer.close()
            else:
                ops = workload.run_pass(index)
            record = {"index": index, "ops": [op.to_dict() for op in ops],
                      "ref": workload.pass_ref,
                      "readings": workload.readings[-1]}
            if not table:
                record["wall"] = workload.pass_wall
                record["factor"] = workload.pass_factor
            result["passes"].append(record)
            passes.append(ops)
            ops_all += ops
        if args.trace and table:
            traced, plain, counters, readings = twin_ops(
                workload.run_op, workload.order, tracer)
            passes += [traced, plain]
        elif args.trace:
            # the compute ran in pool workers: replay each distinct input
            # in-process (after the pass, so its workers were forked from
            # a process whose memo caches were still cold)
            flow = workloads.SERVE_FLOW if serve else workloads.BATCH_FLOW
            rows = list(tracer.flow_passes)
            traced, plain, counters, readings = twin_ops(
                lambda name, op_id, t: workloads.flow_op(name, flow, op_id, t),
                sorted(set(workload.inputs)), tracer)
            if not serve:           # batch pass rows come from its outcomes
                tracer.flow_passes = rows
            replayed, replay_errors = workloads.check_flow_ops(traced + plain)
            errors += replay_errors
            computed = (replayed, plain, [])
        if args.trace:
            result["twin"] = {"traced": [op.to_dict() for op in traced],
                              "untraced": [op.to_dict() for op in plain],
                              "readings": readings}
            traced_ref = sum(op.ref for op in traced)
            untraced_ref = sum(op.ref for op in plain)
            ops_all += traced + plain
        if serve:
            # after the passes: an in-process reference run warms this
            # process's memo caches, which the daemon's forked workers
            # would inherit
            ref_ops = workload.prepare_reference(
                os.path.join(ROOT, ".mchbench",
                             f"serve-reference-{source_digest()}.json"),
                computed)
            errors += workload.reference_errors
            result["reference_ops"] = [op.to_dict() for op in ref_ops]
        for ops in passes:
            pass_errors, qor = workload.check_pass(ops)
            errors += pass_errors
            qor_passes.append(qor)
    finally:
        workload.close()
    return ops_all, errors, qor_passes, tracer, traced_ref, untraced_ref, \
        counters


def _terminate(signum, _frame):
    # exit through the ``finally`` blocks, so the daemon, its workers and
    # the samplers are stopped when the run is killed
    sys.exit(128 + signum)


def main(argv=None):
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    workload, setup = timed_setup(args)
    os.makedirs(os.path.join(ROOT, ".mchbench"), exist_ok=True)
    if args.setup_only:
        workload.close()
        print(json.dumps(setup))
        return 0

    import workloads

    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "c_ref": calib.C_REF, "setup": [setup], "passes": []}
    ops, errors, qor_passes, tracer, traced_ref, untraced_ref, counters = \
        run_passes(args, workload, result)
    result["setup"] += subprocess_setups(args)

    for qor in qor_passes[1:]:          # QoR must repeat exactly
        if qor != qor_passes[0]:
            diff = sorted(k for k in qor if qor.get(k) != qor_passes[0].get(k))
            errors.append(f"QoR differs between passes: {diff[:5]}")
    failed = sum(1 for op in ops if op.error)
    errors += [f"{op.id}: {op.error}" for op in ops if op.error]
    qor = qor_passes[0]
    result.update(errors=errors, qor=qor,
                  qor_summary=workload.qor_summary(qor))

    if args.trace:
        # wall -> reference-speed factor of each op and (batch) pass
        factors = {op.id: op.ref / op.wall if op.wall else 1.0 for op in ops}
        for record in result["passes"]:
            if "factor" in record:
                factors[f"p{record['index']}"] = record["factor"]
        metrics = layer_metrics(tracer, factors, traced_ref, untraced_ref,
                                counters)
        result["spans"] = tracer.spans
        units = {name: unit for name, unit, _better in PER_LAYER}
    else:
        with open(os.path.join(HERE, "qor_ref.json")) as fh:
            reference = json.load(fh)[args.workload]
        op_times = [op.ref for op in ops]
        tail_value, tail_pct, n = tail(op_times)
        metrics = {
            "setup_s": statistics.median(s["ref"] for s in result["setup"]),
            "ops_per_s": len(ops) / sum(r["ref"] for r in result["passes"]),
            "op_s.p50": statistics.median(op_times),
            "op_s.tail": tail_value,
            "peak_rss_mb": workloads.hwm_mb(os.getpid()) + workload.children_mb,
            "qor.cost_rel": geomean_ratio(qor, reference, 0),
            "qor.depth_rel": geomean_ratio(qor, reference, 1),
        }
        result["tail"] = {"percentile": tail_pct, "samples": n}
        units = END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "are not the declared set")
    result["metrics"] = metrics
    out_dir = os.path.join(ROOT, ".mchbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, default=str)
    for line in errors[:20]:
        print("error:", line, file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
