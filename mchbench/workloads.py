"""The benchmark's workloads: what one op is, what a pass runs, and how
each op's output is checked.

Every workload calls the program's own entry points.  The seed fixes the
circuit order (the same in every pass of a run) and the serve request
stream; it never changes which circuits a workload contains, so metrics
stay comparable across seeds.  NOTES.md gives the reasons for each
circuit list.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import shutil
import tempfile
import time
from typing import Dict, List

import calib
import checker

#: each over ~4.5 s per Table-I row at tiny scale (see NOTES.md)
TABLE1_EXCLUDED = ("hyp", "mem_ctrl", "i2c", "cavlc", "square")
#: mem_ctrl alone is over a third of the tiny suite's Table-II time
TABLE2_EXCLUDED = ("mem_ctrl",)
#: 36, 11 and 6.5 s misses under the serve flow
SERVE_EXCLUDED = ("mem_ctrl", "cavlc", "i2c")

SERVE_FLOW = "b; rf; rs; gm -k 4; b; cec"
BATCH_FLOW = "b; rf; gm -k 4; b"
SCALE = "tiny"

#: the serve stream repeats completed inputs this often per miss (two
#: repeats per three misses: 40% of requests are cache hits).  With one
#: repeat per two misses the median request fell exactly on the gap
#: between the ~70 ms misses and the ~100 ms ones and spread 21%.
SERVE_REPEATS_PER_MISS = 2 / 3
POOL_JOBS = 2

#: pool workloads pin their processes: serve workers to one CPU and the
#: daemon to the other; batch workers one per CPU (see calib.CpuSamplers)
WORKER_CPU, PARENT_CPU = 0, min(1, os.cpu_count() - 1)


def pin(pid: int, cpu: int) -> None:
    try:
        os.sched_setaffinity(pid, {cpu})
    except ProcessLookupError:
        pass                            # already gone: nothing to pin


def comb_suite() -> List[str]:
    from repro.circuits import ALL_BENCHMARKS
    return list(ALL_BENCHMARKS)


def build(name: str):
    from repro.circuits import build as registry_build
    return registry_build(name, SCALE)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def hwm_mb(pid: int) -> float:
    """A process's peak resident set (VmHWM) in MB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children(pid: int) -> List[int]:
    out = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out += [int(c) for c in fh.read().split()]
    except OSError:
        pass
    return out


class Op:
    """One timed op: raw wall time, the host speed sampled while it ran
    (``c``) and its time at reference speed."""

    __slots__ = ("id", "name", "kind", "t0", "t1", "wall", "c", "ref",
                 "output", "error", "problems", "qor")

    def __init__(self, op_id, name, kind="op"):
        self.id, self.name, self.kind = op_id, name, kind
        self.t0 = self.t1 = self.wall = self.c = self.ref = 0.0
        self.output = None
        self.error = ""
        self.problems: List[str] = []   # checker findings
        self.qor: Dict[str, tuple] = {}

    def timed(self, series) -> None:
        """Calibrate with the speed samples of the CPU the op ran on."""
        self.wall = self.t1 - self.t0
        self.c = series.c_now(self.t0, self.t1)
        self.ref = series.to_ref(self.t0, self.t1)

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "kind": self.kind,
                "t0": self.t0, "wall": self.wall, "c": self.c,
                "ref": self.ref, "error": self.error}


class Workload:
    """Base: ``setup`` builds inputs and warms the system, ``run_pass``
    times one pass under a :class:`calib.Sampler`, ``check_pass`` verifies
    its outputs (untimed) and returns the pass's QoR figures,
    ``{key: (cost, depth)}``."""

    name = ""
    #: nominal seconds of one pass at reference speed (sets passes per run)
    pass_ref_s = 1.0
    #: names of the (cost, depth) QoR aggregates
    qor_names = ("", "")

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.children_mb = 0.0          # peak Σ worker HWM over passes
        # every calibration reading, per pass: [stamp, spin] rows, keyed by
        # CPU for the pool workloads
        self.readings: list = []

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_ref_s))

    def plan(self):
        """What the seed decides: the op order (or request stream)."""
        return list(self.order)

    def qor_summary(self, qor: Dict[str, tuple]) -> Dict[str, float]:
        """The QoR figures aggregated the way the paper's tables show them."""
        cost, depth = self.qor_names
        return {cost: sum(v[0] for v in qor.values()),
                depth: sum(v[1] for v in qor.values())}

    def check_pass(self, ops: List[Op]):
        """The pass's checker findings and its QoR figures."""
        errors, qor = [], {}
        for op in ops:
            errors += [f"{op.name}: {p}" for p in op.problems]
            qor.update(op.qor)
        return errors, qor

    def close(self) -> None:
        pass


# -- Tables I and II --------------------------------------------------------------

class _TableWorkload(Workload):
    """An in-process table: one op per circuit."""

    warmup = "dec"

    def __init__(self, seed, excluded):
        super().__init__(seed)
        # registry order, whatever the seed: the program keeps process-wide
        # memo caches (NPN canonical forms, exact-synthesis recipes, cut
        # expansion masks), so an op's time depends on which ops ran before
        # it; a seeded order spread op_s.p50 by 9.6% across seeds (NOTES.md)
        self.order = [c for c in comb_suite() if c not in excluded]

    def setup(self) -> None:
        from repro.mapping.asap7 import asap7_library
        import tracing

        asap7_library()
        self.inputs = {name: build(name) for name in self.order}
        self.capture = tracing.Capture().install()
        self._op(self.warmup)           # lazy set-up, expand cache
        self.capture.take()

    def close(self) -> None:
        self.capture.close()

    def run_op(self, name: str, op_id: str, tracer=None) -> Op:
        """One op, timed raw (``Op.timed`` calibrates it later), then
        checked.  Each op starts from a fresh input and a collected heap,
        so its time does not depend on which ops ran before it."""
        op = Op(op_id, name)
        source = build(name)
        self.inputs[name] = source
        gc.collect()
        if tracer is not None:
            tracer.op = op.id
            root = tracer.open("op")
        op.t0 = time.perf_counter()
        try:
            result = self._op(name)
        except Exception as exc:             # a failed op is counted
            result = None
            op.error = f"{type(exc).__name__}: {exc}"
        op.t1 = time.perf_counter()
        if tracer is not None:
            tracer.close_span(root)
        mapped = self.capture.take()
        if op.error:
            return op
        if len(mapped) != self.expected_outputs:
            op.problems.append(f"{len(mapped)} mapped outputs, expected "
                               f"{self.expected_outputs}")
        for i, (kind, network) in enumerate(mapped):
            problem = checker.check(source, network, kind)
            if problem:
                op.problems.append(f"output {i}: {problem}")
        op.qor = self.qor(name, result)
        return op

    def run_pass(self, index: int) -> List[Op]:
        with calib.Sampler() as sampler:
            ops = [self.run_op(name, f"p{index}:{name}") for name in self.order]
        for op in ops:
            op.timed(sampler)
        self.readings.append(sampler.readings())
        self.pass_ref = sum(op.ref for op in ops)
        return ops


class Table1Asic(_TableWorkload):
    """One op: ``run_circuit`` with all six configs on a fresh context."""

    name = "table1_asic"
    pass_ref_s = 25.0
    expected_outputs = 6
    qor_names = ("area_geomean_um2", "delay_geomean_ps")

    def __init__(self, seed):
        super().__init__(seed, TABLE1_EXCLUDED)

    def _op(self, name):
        from repro.experiments.common import experiment_context
        from repro.experiments.table1 import run_circuit
        return run_circuit(self.inputs[name], context=experiment_context())

    @staticmethod
    def qor(name, rows):
        return {f"{name}/{cfg}": (row.area, row.delay)
                for cfg, row in rows.items()}

    def qor_summary(self, qor):
        cost, depth = self.qor_names
        return {cost: geomean(v[0] for v in qor.values()),
                depth: geomean(v[1] for v in qor.values())}


class Table2Lut(_TableWorkload):
    """One op: ``run_table2([name])``, the 6-LUT challenge protocol."""

    name = "table2_lut"
    pass_ref_s = 16.0
    expected_outputs = 3
    qor_names = ("luts_total", "lut_levels_total")

    def __init__(self, seed):
        super().__init__(seed, TABLE2_EXCLUDED)

    def _op(self, name):
        from repro.experiments.table2 import run_table2
        return run_table2([name], scale=SCALE)

    @staticmethod
    def qor(name, rows):
        row = rows[name]
        return {name: (row.mch_luts, row.mch_levels)}


# -- in-process flow runs (serve reference, worker replays) ------------------------

def flow_op(name: str, flow: str, op_id: str, tracer=None) -> Op:
    """Run ``flow`` on one input in-process with a fresh context; the op's
    output is ``(input, result network)``."""
    from repro.flow import Flow, FlowContext, FlowRunner

    from repro.batch.runner import state_fingerprint
    from repro.flow import state_cost

    ntk = build(name)
    op = Op(op_id, name, op_id.split(":")[0])
    gc.collect()
    if tracer is not None:
        tracer.op = op.id
        root = tracer.open("op")
    op.t0 = time.perf_counter()
    result = FlowRunner(FlowContext()).run(ntk, Flow.parse(flow), name=name)
    op.t1 = time.perf_counter()
    if tracer is not None:
        tracer.close_span(root)
    size, depth = state_cost(result.network)
    op.qor = {name: (state_fingerprint(result.network), size, depth)}
    problem = checker.check(ntk, result.network, "logic")
    if problem:
        op.problems.append(f"in-process {flow!r}: {problem}")
    return op


def check_flow_ops(ops: List[Op]):
    """Merge in-process flow results: ({name: (fingerprint, size, depth)},
    errors); runs of one input must agree."""
    out, errors = {}, []
    for op in ops:
        errors += [f"{op.name}: {p}" for p in op.problems]
        for name, got in op.qor.items():
            if out.setdefault(name, got) != got:
                errors.append(f"{name}: in-process runs differ")
    return out, errors


def reference_run(names, flow):
    """The in-process run of ``flow`` on each input: (results, ops,
    errors) as :func:`check_flow_ops` gives them."""
    with calib.Sampler() as sampler:
        ops = [flow_op(name, flow, f"reference:{name}") for name in names]
    for op in ops:
        op.timed(sampler)
    out, errors = check_flow_ops(ops)
    return out, ops, errors


# -- serve ------------------------------------------------------------------------

class ServeVerify(Workload):
    """Closed loop: one client on one connection against an in-process
    daemon with POOL_JOBS workers and a memory-only cache.  One op is one
    request.  One client, not two: two busy workers plus the daemon's own
    request handling oversubscribe a 2-vCPU host, and per-request latency
    then spread 25-35% across runs (NOTES.md)."""

    name = "serve_verify"
    pass_ref_s = 10.0
    qor_names = ("gates_total", "depth_total")

    def __init__(self, seed):
        super().__init__(seed)
        self.inputs = [c for c in comb_suite() if c not in SERVE_EXCLUDED]
        self.stream = self._make_stream()
        self.daemon = None

    def setup(self) -> None:
        for name in self.inputs:
            build(name)
        # the daemon's threads inherit this, and its workers are re-pinned
        os.sched_setaffinity(0, {PARENT_CPU})
        self.daemon = self._start_daemon()

    def plan(self) -> List[tuple]:
        return self.stream

    def _make_stream(self) -> List[tuple]:
        """The client's requests, ``(input, "miss" | "hit")``: misses in
        registry order for every seed (the workers keep memo caches, so
        the order of misses changes their times); the seed picks which
        completed input each repeat asks for again."""
        stream = []
        for i, name in enumerate(self.inputs):
            stream.append((name, "miss"))
            for _ in range(int((i + 1) * SERVE_REPEATS_PER_MISS)
                           - int(i * SERVE_REPEATS_PER_MISS)):
                stream.append((self.rng.choice(self.inputs[:i + 1]), "hit"))
        return stream

    def _start_daemon(self):
        """A fresh daemon whose workers have each served one untimed job
        (a flow the stream never sends, long enough that the second job
        finds the first worker busy), then pinned to WORKER_CPU."""
        from repro.serve import ServeClient, ServeDaemon

        daemon = ServeDaemon(port=0, jobs=POOL_JOBS).start()
        with ServeClient(port=daemon.port) as client:
            jobs = [client.submit(name, flow="b; rf; rs", scale=SCALE)
                    for name in ("sin", "sqrt")]
            for job in jobs:
                client.result(job["id"])
                for event in client.events(job["id"]):
                    if event["kind"] == "started":
                        pin(event["worker"], WORKER_CPU)
        spawned = daemon.pool.stats()["spawned"]
        if spawned != POOL_JOBS:
            daemon.stop()
            raise RuntimeError(f"warm-up spawned {spawned} workers, "
                               f"expected {POOL_JOBS}")
        return daemon

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def prepare_reference(self, cache_path: str, computed=None):
        """The in-process run every served record must match.

        ``computed`` is a ``reference_run`` result made by the caller;
        without one, the run is made here.  The result is kept in
        ``cache_path`` (named by a hash of the program's sources), so an
        untraced run reuses the first one made in its checkout; a fresh
        run that disagrees with the kept one is an error."""
        kept = None
        if os.path.exists(cache_path):
            with open(cache_path) as fh:
                kept = {k: tuple(v) for k, v in json.load(fh).items()}
        if computed is None and kept is not None:
            self.reference, self.reference_errors = kept, []
            return []
        if computed is None:
            computed = reference_run(self.inputs, SERVE_FLOW)
        self.reference, ops, self.reference_errors = computed
        if kept is not None and kept != self.reference:
            self.reference_errors.append(
                "in-process reference differs from the one kept in "
                f"{os.path.basename(cache_path)}")
        elif kept is None and not self.reference_errors:
            with open(cache_path, "w") as fh:
                json.dump(self.reference, fh)
        return ops

    def run_pass(self, index: int, tracer=None) -> List[Op]:
        """One pass on a fresh daemon; ``tracer`` collects the serve.*
        layer figures (the compute runs in the workers)."""
        from repro.serve import ServeClient

        if self.daemon is None:
            self.daemon = self._start_daemon()
        daemon = self.daemon
        ops = [Op(f"p{index}:{i}:{name}", name, kind)
               for i, (name, kind) in enumerate(self.stream)]
        stats0 = daemon.stats()
        with calib.CpuSamplers({WORKER_CPU, PARENT_CPU}) as samplers, \
                ServeClient(port=daemon.port, timeout=120.0) as client:
            t0 = time.perf_counter()
            for op in ops:
                op.t0 = time.perf_counter()
                try:
                    job = client.submit(op.name, flow=SERVE_FLOW, scale=SCALE)
                    if job.get("status") != "done":
                        job = client.wait(job["id"], timeout=120.0)
                except Exception as exc:         # a failed request is counted
                    op.error = f"{type(exc).__name__}: {exc}"
                    job = None
                op.t1 = time.perf_counter()
                op.output = job
            t1 = time.perf_counter()
        worker, parent = samplers.series[WORKER_CPU], samplers.series[PARENT_CPU]
        for op in ops:
            op.timed(parent)
            record = (op.output or {}).get("record") or {}
            seconds = min(record.get("seconds", 0.0), op.wall)
            if op.kind == "miss" and op.wall > 0:
                # the flow ran in the worker, on WORKER_CPU; the rest of the
                # request (HTTP, build, fingerprint, dispatch) on PARENT_CPU
                op.c = worker.c_now(op.t0, op.t1)
                op.ref = (op.ref * (op.wall - seconds)
                          + worker.to_ref(op.t0, op.t1) * seconds) / op.wall
        self.readings.append({cpu: series.readings()
                              for cpu, series in samplers.series.items()})
        self.pass_wall = t1 - t0
        self.pass_ref = sum(op.ref for op in ops)   # one request at a time
        self.pass_factor = self.pass_ref / self.pass_wall
        self.children_mb = max(self.children_mb, sum(
            hwm_mb(pid) for pid in children(os.getpid())))
        if tracer is not None:
            self._trace_pass(ops, tracer, stats0, daemon.stats())
        daemon.stop()
        self.daemon = None
        return ops

    def _trace_pass(self, ops, tracer, stats0, stats1):
        """serve.* layer figures from client timings, job events and the
        pass's change in ``ServeDaemon.stats()``."""
        from repro.serve import ServeClient

        with ServeClient(port=self.daemon.port) as client:
            for op in ops:
                job = op.output
                if not job:
                    continue
                if op.kind == "hit":
                    tracer.sample("serve.hit_s", op.ref)
                    continue
                factor = op.ref / op.wall
                started = [e["at"] for e in client.events(job["id"])
                           if e["kind"] == "started"]
                if started:
                    tracer.sample("serve.dispatch_s",
                                  (started[0] - job["created"]) * factor)
                seconds = job.get("record", {}).get("seconds", 0.0)
                tracer.sample("serve.overhead_s", op.ref - seconds * factor)
        def delta(*path):
            a, b = stats0, stats1
            for key in path:
                a, b = a[key], b[key]
            return b - a
        hits = delta("cache", "hits")
        tracer.count("serve.cache.hits", hits)
        tracer.count("serve.cache.lookups", hits + delta("cache", "misses"))
        tracer.count("serve.pool.dispatched", delta("pool", "dispatched"))
        tracer.count("serve.pool.spawned", delta("pool", "spawned"))
        tracer.count("serve.shed", delta("shed"))

    def check_pass(self, ops: List[Op]):
        errors, qor, served = [], {}, set()
        for op in ops:
            if op.error:
                continue
            job = op.output
            record = job.get("record") or {}
            if job.get("status") != "done" or record.get("status") != "ok":
                errors.append(f"{op.name}: job ended {job.get('status')!r}")
                continue
            got = (record.get("fingerprint"), record.get("size"),
                   record.get("depth"))
            if got != self.reference[op.name]:
                errors.append(f"{op.name}: served {got} != in-process "
                              f"{self.reference[op.name]}")
            if (op.kind == "hit") != bool(job.get("cached")):
                errors.append(f"{op.name}: planned a {op.kind} but cached="
                              f"{job.get('cached')}")
            served.add(op.name)
            qor[op.name] = (record["size"], record["depth"])
            op.output = None
        missing = set(self.inputs) - served
        if missing and not any(op.error for op in ops):
            errors.append(f"inputs never served: {sorted(missing)}")
        return errors, qor


# -- batch ------------------------------------------------------------------------

class BatchPool(Workload):
    """``BatchRunner(jobs=POOL_JOBS).run`` over the whole tiny comb suite
    with a temporary result store; one op is one circuit outcome, timed by
    the parent from its ``started`` to its ``finished`` event."""

    name = "batch_pool"
    pass_ref_s = 2.5
    qor_names = ("gates_total", "depth_total")

    def __init__(self, seed, workdir):
        super().__init__(seed)
        self.workdir = workdir
        self.inputs = comb_suite()
        self.order = list(self.inputs)
        self.rng.shuffle(self.order)

    def setup(self) -> None:
        self.networks = {name: build(name) for name in self.order}

    def run_pass(self, index: int, tracer=None) -> List[Op]:
        """One ``BatchRunner.run``; ``tracer`` collects the batch.* layer
        figures and the outcomes' pass rows."""
        from repro.batch import BatchRunner

        started: Dict[int, float] = {}
        finished: Dict[int, float] = {}
        worker_mb: Dict[int, float] = {}
        retries = [0]

        cpus = sorted(os.sched_getaffinity(0))
        worker_cpu: Dict[int, int] = {}

        def sink(event):
            now = time.perf_counter()
            if event.kind == "started":
                started[event.index] = now
                if event.worker not in worker_cpu:
                    worker_cpu[event.worker] = cpus[len(worker_cpu) % len(cpus)]
                    pin(event.worker, worker_cpu[event.worker])
            elif event.kind == "retried":
                retries[0] += 1
            elif event.kind == "finished":
                finished[event.index] = now
                worker_mb[event.worker] = hwm_mb(event.worker)

        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        try:
            # biggest-first dispatch (the CLI default) keeps the schedule,
            # and so the pass time, independent of the seeded suite order;
            # pickle transfer keeps the run off /dev/shm
            runner = BatchRunner(jobs=POOL_JOBS, events=sink, order="largest",
                                 transfer="pickle")
            with calib.CpuSamplers(cpus) as samplers:
                if tracer is not None:
                    tracer.op = f"p{index}"
                    root = tracer.open("pass")
                t0 = time.perf_counter()
                result = runner.run(self.order, BATCH_FLOW, scale=SCALE,
                                    store=os.path.join(store_dir, "runs.jsonl"))
                t1 = time.perf_counter()
                if tracer is not None:
                    tracer.close_span(root)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        self.readings.append({cpu: series.readings()
                              for cpu, series in samplers.series.items()})
        self.pass_wall = t1 - t0
        self.children_mb = max(self.children_mb, sum(worker_mb.values()))
        ops = []
        for outcome in result.outcomes:
            op = Op(f"p{index}:{outcome.name}", outcome.name)
            op.t0 = started.get(outcome.index, t0)
            op.t1 = finished.get(outcome.index, op.t0)
            op.timed(samplers.series[worker_cpu.get(outcome.worker, cpus[0])])
            seconds = min(outcome.seconds, op.wall)
            if op.wall > 0:
                # the flow ran on the worker's CPU; transport and the
                # supervisor (unpinned) on either: their mean speed
                parent = sum(series.to_ref(op.t0, op.t1) for series in
                             samplers.series.values()) / len(samplers.series)
                op.ref = (op.ref * seconds + parent * (op.wall - seconds)) \
                    / op.wall
            if not outcome.ok:
                op.error = f"{outcome.status}: {outcome.error}"
            else:
                problem = checker.check(self.networks[op.name],
                                        outcome.network, "logic")
                if problem:
                    op.problems.append(problem)
                op.qor = {op.name: tuple(outcome.cost)}
            ops.append(op)
        # the pass at the ops' own speed: per-op windows track the two
        # CPUs far better than one factor over the whole pass (3% spread
        # of ops_per_s across runs against 6%)
        self.pass_factor = sum(op.ref for op in ops) / sum(op.wall for op in ops)
        self.pass_ref = self.pass_wall * self.pass_factor
        if tracer is not None:
            worker_s = sum(o.seconds for o in result.outcomes)
            tracer.count("batch.overhead_s", self.pass_factor
                         * (self.pass_wall - worker_s / POOL_JOBS))
            tracer.count("batch.busy_ratio",
                         worker_s / (POOL_JOBS * self.pass_wall))
            tracer.count("batch.retries", retries[0])
            tracer.flow_passes += [(tracer.op, row[0], row[2])
                                   for outcome in result.outcomes
                                   for row in outcome.metric_rows]
        return ops


WORKLOADS = {
    "table1_asic": Table1Asic,
    "table2_lut": Table2Lut,
    "serve_verify": ServeVerify,
    "batch_pool": BatchPool,
}
