"""pointnull benchmark: one run of one workload.

    python3 bench/run.py --workload {cli-closed-form,sim-sweep}
                         --seed N --seconds T --trace {0,1}

Run from the repository root. With ``--trace 0`` it measures the workload
with tracing off and reports the end-to-end metrics named in
BENCHMARK.json; set-up is timed from process spawn to the first timed
operation, five times, and the median is reported. Timings are scaled to
a fixed host speed by reference runs (see reference.py). With
``--trace 1`` it replays a fixed slice of the workload in-process with the
tracer's wrappers installed and reports the per-layer metrics. A human-readable
report comes first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when the pointnull sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path.cwd()
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("cli-closed-form", "sim-sweep")
SETUP_REPEATS = 5
# every run must end well inside three minutes
RUN_LIMIT_S = 170.0

# end-to-end metrics reported here that BENCHMARK.json does not list,
# because they are zero or undefined on some workload; printed only
REPORT_ONLY = {
    "consistency_reps_per_s": "1/s",
    "score_reps_per_s": "1/s",
    "uniformity_reps_per_s": "1/s",
    "fail_ratio": "ratio",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(args: argparse.Namespace, started: float, setup_only: bool) -> tuple[float, dict]:
    """Run one worker; (seconds from spawn to READY, its result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - spawned
        if line != "READY\n":
            proc.kill()
            proc.wait()
            fail(f"worker did not become ready: {line!r}")
        out, _ = proc.communicate(timeout=max(1.0, RUN_LIMIT_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("worker ran past the run's time limit")
    if proc.returncode != 0:
        fail(f"worker exited {proc.returncode}")
    return setup_s, json.loads(out) if out.strip() else {}


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report_untraced(args, spec, setups, refs, result) -> dict:
    metrics = {
        "setup_s": statistics.median(
            reference.scale(setup, ref) for setup, ref in zip(setups, refs)),
        "op_p50_ms": result["op_p50_ms"],
        "op_p90_ms": result["op_p90_ms"],
        "ops_per_s": result["ops_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    probes = result.get("probes", {"attempted": 0, "failed": 0, "regions": {}})
    rates = result.get("reps_per_s", {})
    extra = {
        "consistency_reps_per_s": rates.get("consistency"),
        "score_reps_per_s": rates.get("score-consistency"),
        "uniformity_reps_per_s": rates.get("uniformity"),
        "fail_ratio": (result["failed"] + probes["failed"])
        / (result["attempted"] + probes["attempted"]),
    }
    samples = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_p50_ms": f"n={result['samples']} operations",
        "op_p90_ms": f"n={result['samples']} operations",
        "ops_per_s": f"n={result['samples']} operations",
        "peak_rss_mb": "largest measured pointnull process",
        "fail_ratio": f"{result['failed'] + probes['failed']} of "
        f"{result['attempted'] + probes['attempted']} (edge probes included)",
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | REPORT_ONLY
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  tracing off")
    print(f"end-to-end metrics (timings at the host speed where the reference "
          f"takes {reference.REFERENCE_MS:g} ms):")
    for name, value in (metrics | extra).items():
        shown = "n/a on this workload" if value is None else f"{fmt(value)} {units[name]}"
        print(f"  {name:24} {shown:28} {samples.get(name, '')}")
    raw = result["raw"]
    print(f"raw: setup_s {fmt(statistics.median(setups))} s (reference median "
          f"{fmt(statistics.median(refs))} ms); op_p50_ms {fmt(raw['op_p50_ms'])}, "
          f"op_p90_ms {fmt(raw['op_p90_ms'])}, ops_per_s {fmt(raw['ops_per_s'])} "
          f"(reference median {fmt(raw['reference_ms'])} ms); *_reps_per_s are raw")
    print(f"measured operations: {result['attempted']} attempted, {result['failed']} failed")
    for cause, count in result["failure_causes"].items():
        print(f"  {count} x {cause}")
    if probes["attempted"]:
        print(f"known-defect edge probes: {probes['attempted']} attempted, "
              f"{probes['failed']} failed")
        for region, tally in probes["regions"].items():
            print(f"  {region}: {tally['failed']} of {tally['attempted']} failed")
            for cause, count in tally["causes"].items():
                print(f"    {count} x {cause}")
    print("input shares: " + json.dumps(result["shares"]))
    print("environment: " + json.dumps(result["versions"]))
    return metrics


def report_traced(args, spec, result) -> dict:
    metrics = result["metrics"]
    listed = {m["name"] for m in spec["per_layer"]}
    print(f"workload {args.workload}  seed {args.seed}  tracing on  "
          f"({result['attempted']} operations replayed in-process)")
    print("per-layer metrics (* = in BENCHMARK.json):")
    for name, value in metrics.items():
        print(f"  {'*' if name in listed else ' '} {name:32} {fmt(value)}")
    print("self time per layer (ms): " + json.dumps(
        {k: round(v, 3) for k, v in result["self_ms"].items()}))
    plain, coarse, full = (result[k] * 1e3 for k in ("untraced_s", "coarse_s", "traced_s"))
    print(f"tracing overhead: spans only {coarse - plain:.1f} ms, with hot-call counters "
          f"{full - plain:.1f} ms (untraced replay {plain:.1f} ms)")
    startup = result["startup"]
    print(f"start-up: interpreter {startup['startup.interpreter_ms']:.1f} ms "
          f"({startup['interpreter_no_site_ms']:.1f} ms with -S), numpy import "
          f"{startup['startup.numpy_import_ms']:.1f} ms, pointnull import "
          f"{startup['startup.pointnull_import_ms']:.1f} ms, closed-form CLI call "
          f"{startup['closed_form_call_ms']:.1f} ms")
    if result["baseline"]:
        print("sweeps, untraced in-process (ms): " + json.dumps(
            {k: round(v, 2) for k, v in result["baseline"].items()}))
    print(f"replayed operations: {result['attempted']} attempted, {result['failed']} failed")
    for cause, count in result["failure_causes"].items():
        print(f"  {count} x {cause}")
    print(f"spans written to {result['trace_file']}")
    print("environment: " + json.dumps(result["versions"]))
    return {name: metrics[name] for name in listed}


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pointnull" / "cli.py").is_file():
        fail(f"no pointnull sources under {ROOT / 'src'}; run from the repository root")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text())
    if args.trace:
        _, result = spawn(args, started, setup_only=False)
        metrics = report_traced(args, spec, result)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        setups, refs = [], []
        for i in range(SETUP_REPEATS):
            refs.append(reference.reference_ms())
            setup_s, result = spawn(args, started, setup_only=i < SETUP_REPEATS - 1)
            setups.append(setup_s)
        metrics = report_untraced(args, spec, setups, refs, result)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
