"""One workload in one fresh, single-threaded process.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and the
BLAS/OpenMP thread counts pinned to 1. Prints one JSON object, the
process's result, as the last line of standard output.

Modes:
    setup    set up (import, input generation, warm-up ops) and stop
    measure  set up, then run the closed loop untraced for --seconds
    trace    set up, then run every operation twice, once plain and once
             with every traced function wrapped
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import refclock

# Percentile p90 needs ten samples beyond it.
MIN_TIMED_OPS = 100
MIN_TRACED_OPS = 10
# Spans kept in memory by a traced run (about 31 bytes each).
SPAN_BUDGET = 1_000_000
# The reference kernel runs after this much op time in a measured run,
# and this many times on each side of the set-up after the import.
REF_EVERY_S = 0.05
SETUP_REFS = 3


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def one(self, i: int, tracer=None):
        """Run op i; returns (latency_s, cpu_s, ok, digest of its output)."""
        args = self.wl.prepare(i)
        if tracer is not None:
            tracer.begin_op()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out, err = self.wl.run(args), None
        except Exception:  # an op that raises is a failed op, not a crash
            out, err = None, traceback.format_exc()
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.end_op()
            if hasattr(self.wl, "log_bytes"):
                tracer.count("log_bytes", self.wl.log_bytes(args))
        ok, record = False, None
        if err is None:
            try:
                ok, record = self.wl.check(args, out)
            except Exception:
                err = traceback.format_exc()
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = err or f"op {i}: output failed its check"
                sys.stderr.write(self.first_error + "\n")
        return t1 - t0, c1 - c0, ok, _digest(record)


def setup(name: str, seed: int, workdir: str):
    """Import the package, build the inputs and run the warm-up ops.

    Returns the set-up time raw and scaled. Only the part after the import
    is scaled, by the reference kernel timed just before and just after it:
    the import's time, mostly file and loader work, barely follows the
    kernel's speed."""
    t0 = time.perf_counter()
    import scoremech  # noqa: F401  (timed: the import is part of set-up)
    import_s = time.perf_counter() - t0
    refs = [refclock.sample() for _ in range(SETUP_REFS)]
    t1 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, workdir)
    runner = Runner(wl)
    inputs = [wl.setup_record()] + [wl.prepare(i) for i in range(wl.warmup)]
    outputs = [runner.one(i)[3] for i in range(wl.warmup)]
    rest_s = time.perf_counter() - t1
    refs += [refclock.sample() for _ in range(SETUP_REFS)]
    wall_scale, _ = refclock.local_scales(refs, SETUP_REFS - 1, SETUP_REFS)
    setup_s = (import_s + rest_s, import_s + rest_s * wall_scale)
    return runner, setup_s, _digest(inputs), _digest(outputs)


def run_controls(runner: Runner) -> dict:
    """The workload's once-per-run checks, counted as attempts."""
    controls = runner.wl.controls()
    for label, ok in controls:
        runner.attempted += 1
        if not ok:
            runner.failed += 1
            sys.stderr.write(f"control failed: {label}\n")
    return dict(controls)


def measure(runner: Runner, seconds: float) -> dict:
    """The closed loop: ops back to back for the given time and count.

    The reference kernel runs, untimed for the ops, whenever REF_EVERY_S of
    op time has passed since it last ran, and once more at the end. Each
    op's wall and CPU time are also reported scaled by the kernel's speed
    around it."""
    lat, cpu, slots, good = [], [], [], 0
    refs = [refclock.sample()]
    since = 0.0
    i = runner.wl.warmup
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(lat) < MIN_TIMED_OPS:
        dt, dc, ok, _ = runner.one(i)
        lat.append(dt)
        cpu.append(dc)
        slots.append(len(refs) - 1)
        good += ok
        i += 1
        since += dt
        if since >= REF_EVERY_S:
            refs.append(refclock.sample())
            since = 0.0
    refs.append(refclock.sample())
    scales = [refclock.local_scales(refs, slot) for slot in slots]
    return {
        "latencies_s": lat,
        "cpu_s": sum(cpu),
        "scaled_latencies_s": [dt * w for dt, (w, _) in zip(lat, scales)],
        "scaled_cpu_s": sum(dc * c for dc, (_, c) in zip(cpu, scales)),
        "ref_samples": len(refs),
        "ref_wall_median_s": statistics.median(w for w, _ in refs),
        "good_ops": good,
        "controls": run_controls(runner),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def trace(runner: Runner, seconds: float, spans_path: str) -> dict:
    """Run each op twice, untraced and traced, in alternating order.

    Pairing the two runs of an op cancels the machine's drift out of the
    tracing overhead, and the two outputs must be identical.
    """
    from tracing import Tracer, top_self_times

    tracer = Tracer()
    tracer.calibrate()
    plain_s = traced_s = 0.0
    per_call = []
    i = runner.wl.warmup
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or tracer.ops < MIN_TRACED_OPS:
        digests, dts = {}, {}
        spans = tracer.spans()
        for traced in (False, True) if tracer.ops % 2 == 0 else (True, False):
            if traced:
                tracer.install()
            try:
                dts[traced], _, _, digests[traced] = runner.one(i, tracer if traced else None)
            finally:
                tracer.uninstall()
        spans = tracer.spans() - spans
        plain_s += dts[False]
        traced_s += dts[True]
        if spans:
            per_call.append((dts[True] - dts[False]) * 1e9 / spans)
        if digests[False] != digests[True]:
            runner.attempted += 1
            runner.failed += 1
            sys.stderr.write(f"op {i}: traced output differs from untraced\n")
        i += 1
        if tracer.spans() > SPAN_BUDGET:
            break
    # The median over pairs resists a change of machine speed inside a pair.
    metrics = tracer.layer_metrics(max(statistics.median(per_call), 0.0) if per_call else 0.0)
    metrics["bench.trace.overhead"] = traced_s / plain_s
    metrics["bench.trace.ops"] = float(tracer.ops)
    tracer.save(spans_path)
    return {
        "layers": metrics,
        "controls": run_controls(runner),
        "missing": tracer.missing,
        "top_self": top_self_times(metrics),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args()

    workdir = os.path.join(args.outdir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner, setup_s, inputs_digest, warmup_digest = setup(args.workload, args.seed, workdir)
        result = {
            "setup_s": setup_s[0],
            "scaled_setup_s": setup_s[1],
            "inputs_digest": inputs_digest,
            "warmup_digest": warmup_digest,
        }
        if args.mode == "measure":
            result.update(measure(runner, args.seconds))
        elif args.mode == "trace":
            spans = os.path.join(args.outdir, f"spans-{args.workload}.npz")
            result.update(trace(runner, args.seconds, spans))
        import numpy
        import scipy

        result.update(
            attempted=runner.attempted,
            failed=runner.failed,
            notes=runner.wl.notes,
            versions={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
