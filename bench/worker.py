"""One run of one workload, in a process of its own.

Started by run.py as ``python3 bench/worker.py --workload W --seed S
--seconds T --trace 0|1 [--setup-only]`` from the repository root. It sets
the workload up (inputs, imports, warm-up), prints ``READY`` so the parent
can time set-up from spawn, measures, checks every output with the oracle,
and prints one JSON line with what it saw. The oracle (mpmath) and the
tracer are imported after ``READY``, so set-up holds no harness imports
that pointnull cannot move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
CLI = [sys.executable, "-m", "pointnull.cli"]
ENV = {**os.environ, "PYTHONPATH": str(SRC)}

# per-operation time budgets, in seconds
CLI_BUDGET = 10.0
SIM_BUDGET = 60.0
CLI_PROBE_BUDGET = 3.0
TRACED_PROBE_BUDGET = 0.2

TRACE_OPS = {"cli-closed-form": 36, "sim-sweep": 6}
TRACE_PROBES = {"cli-closed-form": 4, "sim-sweep": 0}
STARTUP_REPEATS = 5


class BudgetExceeded(Exception):
    """An operation ran past its time budget."""


class Alarm:
    """Per-operation time budget on SIGALRM. The handler raises only while
    armed, and only once per arming, so a late signal is harmless."""

    def __init__(self) -> None:
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if self.armed:
            self.armed = False
            raise BudgetExceeded("time budget exceeded")

    def arm(self, seconds: float) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self) -> None:
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def percentile(values, q: int) -> float:
    """q-th percentile, inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ready() -> None:
    print("READY", flush=True)


def import_pointnull() -> dict:
    sys.path.insert(0, str(SRC))
    import pointnull
    from pointnull import binomial, cli, normal, numerics, paradox, scores, severity

    if not Path(pointnull.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"pointnull imported from {pointnull.__file__}, not {SRC}")
    return {"cli": cli, "normal": normal, "binomial": binomial, "paradox": paradox,
            "severity": severity, "scores": scores, "numerics": numerics}


def run_cli(argv: list[str], timeout: float):
    """(exit code or None on timeout, stdout, stderr, seconds, peak RSS in MB)
    of one pointnull process. The peak is that process's own, from wait4,
    not the largest of all the worker's children."""
    start = time.perf_counter()
    proc = subprocess.Popen(CLI + argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=ENV, cwd=ROOT)
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as pipes:
        for pipe in chunks:
            pipes.register(pipe, selectors.EVENT_READ)
        while pipes.get_map():
            left = start + timeout - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in pipes.select(left):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    pipes.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for pipe in chunks:
        pipe.close()
    rss_mb = usage.ru_maxrss / 1024.0
    if timed_out:
        return None, "", "", seconds, rss_mb
    out, err = (b"".join(chunks[pipe]).decode() for pipe in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, seconds, rss_mb


def main_in_process(alarm: Alarm, cli, argv: list[str], timeout: float):
    """pointnull.cli.main with stdout/stderr captured, under the alarm."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                alarm.arm(timeout)
                code = cli.main(argv)
        finally:
            alarm.armed = False
    except BudgetExceeded:
        code = None
    alarm.disarm()
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def check(op: dict, code, stdout: str, stderr: str) -> tuple[str | None, dict]:
    """(failure cause or None, oracle facts) for one CLI operation."""
    import oracle  # mpmath; after set-up

    if code is None:
        return "timeout", {}
    try:
        if op["cmd"] == "simulate":
            oracle.check_simulate(op, code, stdout, stderr)
            return None, {}
        return None, oracle.check_cli(op, code, stdout, stderr)
    except oracle.Fail as exc:
        return str(exc), {}


# decimals, exponents and long integers; not exit codes or names like bf01
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.\d+(?:e[+-]?\d+)?|\d+e[+-]?\d+|\d{3,})")


def _tally(causes) -> dict:
    """Failure causes counted with their numbers masked, so one defect
    reads as one line however many inputs hit it."""
    counts: dict[str, int] = {}
    for cause in causes:
        key = _NUMBER.sub("#", cause)[:160]
        counts[key] = counts.get(key, 0) + 1
    return counts


def _tally_probes(outcomes: list[tuple[str, str | None]]) -> dict:
    """(region, failure cause or None) per edge probe, tallied by region."""
    regions: dict[str, dict] = {}
    for region in inputs.REGIONS:
        mine = [cause for r, cause in outcomes if r == region]
        failed = [cause for cause in mine if cause is not None]
        if mine:
            regions[region] = {"attempted": len(mine), "failed": len(failed),
                               "causes": _tally(failed)}
    return {"attempted": len(outcomes), "failed": sum(t["failed"] for t in regions.values()),
            "regions": regions}


def _shares(values) -> dict:
    values = list(values)
    return {k: round(values.count(k) / len(values), 4) for k in sorted(set(values))}


def _latency_stats(lat_ms: list[float], ref_ms: list[float]) -> dict:
    """Percentiles over all operations and throughput over the whole run,
    each operation scaled by the mean of the reference runs just before and
    just after it (ref_ms holds one more run than lat_ms), so a change of
    host speed during the operation is bracketed. Throughput is a mean, not
    a median: a mean moves in proportion to what changed, where a median
    can jump between the modes of a two-speed host."""
    brackets = [(before + after) / 2 for before, after in zip(ref_ms, ref_ms[1:])]
    scaled = [reference.scale(lat, ref) for lat, ref in zip(lat_ms, brackets)]
    return {
        "op_p50_ms": statistics.median(scaled), "op_p90_ms": percentile(scaled, 90),
        "ops_per_s": len(scaled) * 1e3 / sum(scaled), "samples": len(scaled),
        "raw": {"op_p50_ms": statistics.median(lat_ms), "op_p90_ms": percentile(lat_ms, 90),
                "ops_per_s": len(lat_ms) * 1e3 / sum(lat_ms),
                "reference_ms": statistics.median(ref_ms)},
    }


# ---------------------------------------------------------------- cli-closed-form


def cli_probes(seed: int, count: int, runner) -> dict:
    outcomes = []
    for probe in inputs.defect_probes(seed, count):
        code, out, err = runner(probe["argv"])[:3]
        outcomes.append((probe["region"], check(probe, code, out, err)[0]))
    return _tally_probes(outcomes)


def cli_workload(seed: int, seconds: float, setup_only: bool) -> dict:
    ops = inputs.cli_ops(seed)
    run_cli(["paper-check", "--format", "json"], CLI_BUDGET)  # warm-up
    ready()
    if setup_only:
        return {}
    records, refs = [], []
    deadline = time.perf_counter() + seconds
    for op in ops:
        if time.perf_counter() >= deadline:
            break
        refs.append(reference.reference_ms())
        records.append((op, *run_cli(op["argv"], CLI_BUDGET)))
    refs.append(reference.reference_ms())
    failures, crossings = [], []
    for op, code, out, err, *_ in records:
        cause, facts = check(op, code, out, err)
        if cause is not None:
            failures.append(cause)
        if facts.get("crossing_n") is not None:
            crossings.append(facts["crossing_n"])
    attempted = len(records)
    probes = cli_probes(seed, inputs.probe_count(attempted),
                        lambda argv: run_cli(argv, CLI_PROBE_BUDGET))
    return {
        **_latency_stats([r[4] * 1e3 for r in records], refs),
        "peak_rss_mb": max(r[5] for r in records),
        "attempted": attempted,
        "failed": len(failures),
        "failure_causes": _tally(failures),
        "probes": probes,
        "shares": {
            "subcommand": _shares(r[0]["cmd"] for r in records),
            "format": _shares(r[0]["fmt"] for r in records),
            "edge_inputs": round(probes["attempted"] / (attempted + probes["attempted"]), 4),
            "crossing_n_above_2^31": round(
                sum(n > 2**31 for n in crossings) / max(1, len(crossings)), 4),
        },
    }


# ---------------------------------------------------------------- sim-sweep


def _grid_reps(op: dict) -> int:
    p = op["params"]
    return p["reps"] * (1 if p["kind"] == "uniformity" else len(p["n_grid"]))


def sim_workload(seed: int, seconds: float, setup_only: bool) -> dict:
    ops = inputs.sim_ops(seed)
    run_cli(["simulate", "--kind", "consistency", "--reps", "1000"], SIM_BUDGET)  # warm-up
    ready()
    if setup_only:
        return {}
    records, refs = [], []
    deadline = time.perf_counter() + seconds
    for i, op in enumerate(ops):
        # whole cycles only, so every run sees the same mix of kinds
        if i % len(inputs.SIM_KINDS) == 0 and time.perf_counter() >= deadline:
            break
        refs.append(reference.reference_ms())
        records.append((op, *run_cli(op["argv"], SIM_BUDGET)))
    refs.append(reference.reference_ms())
    failures = []
    for op, code, out, err, *_ in records:
        cause, _ = check(op, code, out, err)
        if cause is not None:
            failures.append(cause)
    # one seeded call replayed: the same flags must give the same bytes
    first_op, _, first_out = records[0][:3]
    replay_out = run_cli(first_op["argv"], SIM_BUDGET)[1]
    attempted = len(records) + 1
    if replay_out != first_out:
        failures.append("replay: simulate output changed between two identical calls")
    rates = {}
    for kind in ("consistency", "score-consistency", "uniformity"):
        mine = [r for r in records if r[0]["params"]["kind"] == kind]
        rates[kind] = sum(_grid_reps(r[0]) for r in mine) / sum(r[4] for r in mine)
    return {
        **_latency_stats([r[4] * 1e3 for r in records], refs),
        "peak_rss_mb": max(r[5] for r in records),
        "attempted": attempted,
        "failed": len(failures),
        "failure_causes": _tally(failures),
        "reps_per_s": rates,
        "shares": {
            "kind": _shares(r[0]["kind"] for r in records),
            "format": _shares(r[0]["fmt"] for r in records),
            "edge_inputs": 0.0,
        },
    }


# ---------------------------------------------------------------- traced run


def startup_probe() -> dict:
    """Interpreter floor, import costs and module count, from outside."""
    code = "import sys, pointnull.cli; print(len(sys.modules))"
    floor, floor_s, numpy_ms, own_ms, call_ms, modules = [], [], [], [], [], set()
    for _ in range(STARTUP_REPEATS):
        for flags, sink in (([], floor), (["-S"], floor_s)):
            start = time.perf_counter()
            subprocess.run([sys.executable, *flags, "-c", "pass"], env=ENV, cwd=ROOT, check=True)
            sink.append((time.perf_counter() - start) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=ENV,
                              cwd=ROOT, capture_output=True, text=True, check=True)
        modules.add(int(proc.stdout))
        cumulative = {}
        for line in proc.stderr.splitlines():
            _, cum, name = (line.split("|") + ["", ""])[:3]
            if cum.strip().isdigit():
                cumulative.setdefault(name.strip(), int(cum))
        # pointnull.cli is imported at top level and pointnull under it
        numpy_us = cumulative.get("numpy", 0)
        total_us = cumulative.get("pointnull.cli", 0)
        numpy_ms.append(numpy_us / 1e3)
        own_ms.append((total_us - numpy_us) / 1e3)
        call_ms.append(run_cli(["report", "--t", "1.96", "--n", "16818"], CLI_BUDGET)[3] * 1e3)
    return {
        "startup.interpreter_ms": statistics.median(floor),
        "startup.numpy_import_ms": statistics.median(numpy_ms),
        "startup.pointnull_import_ms": statistics.median(own_ms),
        "startup.modules_loaded": max(modules),
        "interpreter_no_site_ms": statistics.median(floor_s),
        "closed_form_call_ms": statistics.median(call_ms),
    }


def layer_metrics(t: tracing.Tracer, fine: tracing.Tracer, probe: tracing.Tracer | None,
                  output_bytes: int) -> dict:
    """Timings from the coarse pass t; counts and layer self times from the
    pass with hot wrappers; errors from that pass plus the edge probes. A
    layer the workload never calls reads 0."""
    import tracer as tracing

    render = [d for name in ("cli.render_json", "cli.render_csv", "cli.render_table")
              for d in t.durations.get(name, ())]
    c = fine.counts
    metrics = {
        "cli.main_ms": t.median_ms("cli.main"),
        "cli.render_ms": statistics.median(render) / 1e6 if render else 0.0,
        "cli.output_bytes": output_bytes,
        "normal.calls": c["normal.calls"],
        "normal.ms": fine.self_ns["normal"] / 1e6,
        "binomial.calls": c["binomial.calls"],
        "binomial.ms": fine.self_ns["binomial"] / 1e6,
        "paradox.crossing_calls": c["paradox.crossing_sample_size"],
        "paradox.crossing_ms": t.median_ms("paradox.crossing_sample_size"),
        "paradox.bf_evals_in_solver": c["paradox.bf_evals_in_solver"],
        "paradox.bf_evals_in_refine": c["paradox.bf_evals_in_refine"],
        "paradox.unreachable": c["paradox.unreachable"],
        "paradox.sweep_ms": t.median_ms("paradox.consistency_simulation"),
        "paradox.kernel_calls_per_rep": fine.per_rep("paradox.kernel_calls", "paradox.kernel_reps"),
        "paradox.uniformity_ms": t.median_ms("paradox.pvalue_uniformity_check"),
        "scores.sweep_ms": t.median_ms("scores.score_consistency_sim"),
        "scores.compare_calls_per_rep": fine.per_rep("scores.compare_calls", "scores.compare_reps"),
        "severity.warranted_calls": c["severity.warranted_discrepancy"],
        "severity.warranted_ms": t.median_ms("severity.warranted_discrepancy"),
        "severity.solver_evals": c["severity.solver_evals"],
        "numerics.rng_streams": c["numerics.rng_streams"],
        "numerics.rng_draws": c["numerics.rng_draws"],
        "numerics.rng_ms": t.rng_ms(),
        "numerics.find_crossing_calls": c["numerics.find_crossing"],
        "numerics.find_crossing_ms": t.median_ms("numerics.find_crossing"),
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.errors"] = c[f"{layer}.errors"] + (
            probe.counts[f"{layer}.errors"] if probe else 0)
    return metrics


def _sweep_baseline(t: tracing.Tracer, untraced: dict) -> dict:
    """Per-sweep costs next to the figures the ROADMAP baseline quotes."""
    out = {}
    for kind, ms in untraced.items():
        out[f"{kind}_untraced_ms"] = statistics.median(ms)
    by_id = {span[0]: span for span in t.spans}
    per_sweep: dict[int, int] = {}
    for span in t.spans:
        if span[1] in ("numerics.rng_normals", "numerics.rng_streams"):
            parent = by_id.get(span[4])
            if parent and parent[1] == "paradox.consistency_simulation":
                per_sweep[parent[0]] = per_sweep.get(parent[0], 0) + span[3] - span[2]
    consistency_rng = [ns / 1e6 for ns in per_sweep.values()]
    if consistency_rng:
        out["consistency_rng_ms"] = statistics.median(consistency_rng)
    return out


def traced_run(workload: str, seed: int) -> dict:
    import tracer as tracing

    alarm = Alarm()
    modules = import_pointnull()
    cli = modules["cli"]
    ops = list(itertools.islice(OPERATIONS[workload](seed), TRACE_OPS[workload]))
    ready()
    startup = startup_probe()
    budget_s = SIM_BUDGET if workload == "sim-sweep" else CLI_BUDGET

    def replay(traced_by: tracing.Tracer | None):
        seconds, outcomes, untraced_kind = 0.0, [], {}
        for i, op in enumerate(ops):
            if traced_by is not None:
                traced_by.op_id = i
            code, out, err, dt = main_in_process(alarm, cli, op["argv"], budget_s)
            outcomes.append((op, code, out, err))
            if workload == "sim-sweep":
                untraced_kind.setdefault(op["kind"], []).append(dt * 1e3)
            seconds += dt
        return seconds, outcomes, untraced_kind

    replay(None)  # warm caches so the untraced pass is not the cold one
    plain_s, _, untraced_kind = replay(None)
    passes = {}
    for hot_calls in (False, True):
        t = tracing.Tracer()
        t.install(modules, hot_calls)
        try:
            passes[hot_calls] = (t, *replay(t)[:2])
        finally:
            t.restore()
    coarse, coarse_s, _ = passes[False]
    fine, fine_s, outcomes = passes[True]
    failures, output_bytes = [], 0
    for op, code, out, err in outcomes:
        output_bytes += len(out.encode())
        cause, _ = check(op, code, out, err)
        if cause is not None:
            failures.append(cause)
    probe = None
    n_probes = TRACE_PROBES[workload]
    if n_probes:
        probe = tracing.Tracer()
        probe.install(modules, hot_calls=True)
        try:
            cli_probes(seed, n_probes,
                       lambda argv: main_in_process(alarm, cli, argv, TRACED_PROBE_BUDGET))
        finally:
            probe.restore()
    metrics = {**{k: v for k, v in startup.items() if k.startswith("startup.")},
               **layer_metrics(coarse, fine, probe, output_bytes)}
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload, "seed": seed, "metrics": metrics,
        "counts": dict(fine.counts), "hot_ms": {k: v / 1e6 for k, v in fine.hot_ns.items()},
        "self_ms": fine.self_time_ms(),
        "span_fields": ["id", "name", "start_ns", "end_ns", "parent_id", "op_id"],
        "spans": coarse.spans,
    }))
    return {
        "attempted": len(ops),
        "failed": len(failures),
        "failure_causes": _tally(failures),
        "metrics": metrics,
        "self_ms": fine.self_time_ms(),
        "startup": startup,
        "untraced_s": plain_s,
        "coarse_s": coarse_s,
        "traced_s": fine_s,
        "baseline": _sweep_baseline(coarse, untraced_kind) if workload == "sim-sweep" else {},
        "trace_file": str(trace_file.relative_to(ROOT)),
    }


WORKLOADS = {"cli-closed-form": cli_workload, "sim-sweep": sim_workload}
OPERATIONS = {"cli-closed-form": inputs.cli_ops, "sim-sweep": inputs.sim_ops}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    if args.trace:
        result = traced_run(args.workload, args.seed)
    else:
        result = WORKLOADS[args.workload](args.seed, args.seconds, args.setup_only)
        if args.setup_only:
            return 0
    result["versions"] = versions()
    print(json.dumps(result), flush=True)
    return 0


def versions() -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cli": "python -m pointnull.cli with PYTHONPATH=src",
    }


if __name__ == "__main__":
    sys.exit(main())
