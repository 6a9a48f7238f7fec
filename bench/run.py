"""Run one scoremech benchmark workload and print its metrics.

    python3 bench/run.py --workload mc_curve --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The workload runs as a closed loop with
one client in a fresh single-threaded Python process that imports the
package from the checkout's src/. With --trace 0 the run also starts two
set-up-only processes, so set-up time is the median of three set-ups, and
prints the end-to-end metrics. With --trace 1 it runs the traced process
and prints the per-layer metrics. The last line of standard output is the
result: {"correct", "attempted", "failed", "metrics"}. Everything else the
run learns, provenance included, goes to the lines before it and to
.bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock
from tracing import layer_metric_units
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 2
# Every run ends within this many seconds of starting.
RUN_LIMIT_S = 170.0

# Unit costs as ROADMAP item 1 lists them: (per-layer metric, label, value).
ROADMAP_UNIT_COSTS = (
    ("game.draw_worlds.us_per_world", "draw_worlds, us per world", 24.6),
    ("amm.trade.ms_per_call_512_bins", "trade at 512 bins, ms", 0.66),
    ("discounting.required_ratio_numeric.ms_per_quadratic_call",
     "required_ratio_numeric quadratic, ms", 0.48),
    ("game.best_response.ms_per_quadratic_call", "best_response quadratic, ms", 1.4),
    ("amm.replay.ms_per_record", "replay, ms per record", None),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(mode: str, args, deadline: float) -> dict:
    """Run one worker process; its standard error goes to a log file,
    because the market workloads warn on every clipped belief."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--outdir", str(OUT),
    ]
    log = OUT / f"{args.workload}-{mode}.err"
    try:
        with open(log, "w", encoding="utf-8") as err:
            proc = subprocess.run(
                cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, text=True,
                timeout=max(deadline - time.monotonic(), 1.0),
            )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-20:]
        raise BenchError(
            f"{mode} process exited with code {proc.returncode}:\n" + "\n".join(tail)
        )
    return json.loads(lines[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(args, results: list[dict], src_digest: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        **results[-1]["versions"],
        "git_commit": git_commit(),
        "source_sha256": src_digest,
        "thread_env": THREAD_ENV,
        "load": "closed loop, 1 client, 1 process, no worker threads",
        "timed_ops": len(results[-1].get("latencies_s", ())) or None,
        "inputs_digest": results[-1]["inputs_digest"],
        "outputs_digest": results[-1]["warmup_digest"],
        "notes": results[-1]["notes"],
    }


def check_determinism(args, results: list[dict], src_digest: str) -> list[str]:
    """Every process of this run, and every earlier run of the same source
    and seed in this checkout, must generate the same inputs and outputs."""
    seen = {(r["inputs_digest"], r["warmup_digest"]) for r in results}
    problems = [] if len(seen) == 1 else ["processes of one run disagree"]
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{args.workload}:{args.seed}:{src_digest}"
    mine = list(seen)[0]
    if key in known and tuple(known[key]) != mine:
        problems.append("an earlier run of this source and seed disagrees")
    known[key] = mine
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return problems


def _times(lat: list[float], good: int, cpu_s: float, setups: list[float]) -> dict:
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return {
        "ops_per_s": (good / sum(lat), "op/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "cpu_ms_per_op": (cpu_s / len(lat) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def end_to_end(results: list[dict]) -> tuple[dict, list[str]]:
    """The gated end-to-end metrics, and report lines that also give the
    raw times and the error rate, which are printed but not gated. Gated
    times are scaled by the reference kernel."""
    main = results[-1]
    n = len(main["latencies_s"])
    error_rate = main["failed"] / main["attempted"]
    scaled = _times(main["scaled_latencies_s"], main["good_ops"], main["scaled_cpu_s"],
                    [r["scaled_setup_s"] for r in results])
    raw = _times(main["latencies_s"], main["good_ops"], main["cpu_s"],
                 [r["setup_s"] for r in results])
    metrics = dict(scaled)
    metrics["peak_rss_mb"] = (main["peak_rss_kib"] / 1024.0, "MiB")
    metrics["success_rate"] = (1.0 - error_rate, "fraction")
    lines = [f"  {'metric':<14} {'scaled':>10} {'raw':>10}"]
    for name, (value, unit) in scaled.items():
        lines.append(f"  {name:<14} {value:>10.6g} {raw[name][0]:>10.6g} {unit}")
    lines.append(f"                 (p50 and p90 over {n} timed ops)")
    for name in ("peak_rss_mb", "success_rate"):
        lines.append(f"  {name:<14} {metrics[name][0]:>10.6g} {metrics[name][1]}")
    lines.append(
        f"  {'error_rate':<14} {error_rate:>10.6g} fraction"
        f"  ({main['failed']} failed of {main['attempted']} attempted)"
    )
    samples = ", ".join(f"{r['scaled_setup_s']:.3f}/{r['setup_s']:.3f}" for r in results)
    lines.append(f"  set-up samples, scaled/raw: {samples} s")
    speed = refclock.NOMINAL_S / main["ref_wall_median_s"]
    lines.append(
        f"  reference kernel: {main['ref_samples']} samples, median "
        f"{main['ref_wall_median_s'] * 1e3:.4f} ms, so this CPU ran at {speed:.3f}x "
        f"the reference speed"
    )
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    units = layer_metric_units()
    layers = result["layers"]
    metrics = {name: (float(layers[name]), unit) for name, (unit, _) in units.items()}
    lines = [
        f"  tracing overhead {layers['bench.trace.overhead']:.3f}x over "
        f"{int(layers['bench.trace.ops'])} ops "
        f"(wrapper cost {layers['bench.trace.span_overhead_us']:.3f} us per call, subtracted)",
        "  no wait time: the library is synchronous and single-threaded, with no queue or lock",
        "  largest self times, ms per op:",
    ]
    lines += [f"    {name:<42} {value:.4f}" for name, value in result["top_self"]]
    lines.append("  unit costs against ROADMAP item 1:")
    for name, label, ref in ROADMAP_UNIT_COSTS:
        value = layers[name]
        if value <= 0.0:
            continue
        if ref is None:
            lines.append(f"    {label:<38} {value:.4g}  (no ROADMAP figure)")
            continue
        flag = "  differs by more than 2x" if not 0.5 <= value / ref <= 2.0 else ""
        lines.append(f"    {label:<38} {value:.4g}  ROADMAP {ref:g}{flag}")
    if result["missing"]:
        lines.append(f"  not found, reported as 0: {', '.join(result['missing'])}")
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one scoremech benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds at least 1")

    if not (SRC / "scoremech" / "__init__.py").is_file():
        print(f"error: no scoremech package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    src_digest = source_digest()
    try:
        if args.trace:
            results = [spawn("trace", args, deadline)]
            metrics, lines = per_layer(results[0])
        else:
            results = [spawn("setup", args, deadline) for _ in range(SETUP_PROBES)]
            results.append(spawn("measure", args, deadline))
            metrics, lines = end_to_end(results)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = results[-1]["attempted"], results[-1]["failed"]
    problems = check_determinism(args, results, src_digest)
    attempted += 1
    failed += bool(problems)
    for problem in problems:
        print(f"determinism: {problem}", file=sys.stderr)
    if results[-1]["failed"]:
        mode = "trace" if args.trace else "measure"
        print(f"{results[-1]['failed']} ops failed; see {OUT / f'{args.workload}-{mode}.err'}",
              file=sys.stderr)

    prov = provenance(args, results, src_digest)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    record = dict(result, provenance=prov, determinism_problems=problems)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )

    print(f"scoremech benchmark: {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"{'traced' if args.trace else 'untraced'}, closed loop with one client")
    print("\n".join(lines))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
