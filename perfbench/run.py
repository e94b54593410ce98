"""The sthirring benchmark: CLI workloads run the way users run them.

    python3 perfbench/run.py --workload renormalize --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one table
    python3 perfbench/run.py --record-digests         # pin symbolic outputs

Each job is `sthirring <args>` in a fresh interpreter (perfbench/job.py),
one at a time in a single-client closed loop, with STHIRRING_THREADS left
at its default.  A pass runs every job of the workload once; passes repeat
until --seconds have been measured.  A time metric is each job's median
over the passes, at reference CPU speed (see REF_LOOP_S), summed over the
jobs.  Every job's output is checked (oracles.py); a failed job counts in
"failed" and never stops the run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics:
the traced passes run with the span and count wrappers of spans.py, and
trace.overhead_s is traced minus untraced wall time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A results file with the environment, each
job's argv and result, and the spans of a traced run is written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
from job import REPORT_TAG, probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 2           # timed import-only interpreters per run
# Reference duration of job.py's calibration loop, close to its median on the
# 2-vCPU Xeon container the benchmark was written on.  A job's times are
# scaled by REF_LOOP_S / (the loop's mean duration while each was measured).
REF_LOOP_S = 1.25e-4
CPU = max(os.sched_getaffinity(0))  # every job is pinned to this CPU
RUN_LIMIT_S = 170          # start no pass that is predicted to end later


def load_config():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if [m["name"] for m in bench["per_layer"]] != list(spec["per_layer"]):
        raise SystemExit("BENCHMARK.json and spec.json list different per_layer metrics")
    if [w["name"] for w in bench["workloads"]] != list(spec["workloads"]):
        raise SystemExit("BENCHMARK.json and spec.json list different workloads")
    return bench, spec


def job_argvs(spec, workload: str, seed: int) -> list[list[str]]:
    return [[a.replace("{seed}", str(seed)) for a in job]
            for job in spec["workloads"][workload]]


# --------------------------------------------------------------------------
# one job
# --------------------------------------------------------------------------

def probe_speed() -> float:
    """CPU speed on the jobs' CPU, timed in this process, not in a job."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {CPU})
    try:
        return REF_LOOP_S / probe()
    finally:
        os.sched_setaffinity(0, allowed)


def run_job(argv: list[str], trace: bool, digests: dict, timeout: float) -> dict:
    probed = probe_speed()
    env = dict(os.environ)
    env.pop("STHIRRING_THREADS", None)
    cmd = ([sys.executable, str(JOB), "--cpu", str(CPU)] + (["--trace"] if trace else [])
           + ["--"] + argv)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=env,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"argv": argv, "problems": [f"no exit within {timeout:.0f} s"]}
    exited = time.monotonic()
    stderr = proc.stderr.decode(errors="replace").splitlines()
    tagged = [line for line in stderr if line.startswith(REPORT_TAG)]
    record = {"argv": argv, "rc": proc.returncode, "wall_s": exited - spawned,
              "probe_speed": probed,
              "output_bytes": len(proc.stdout),
              "sha256": hashlib.sha256(proc.stdout).hexdigest()}
    if not tagged:
        record["problems"] = [f"no report (exit {proc.returncode}): {stderr[-1:]}"]
        return record
    report = json.loads(tagged[-1][len(REPORT_TAG):])
    record["setup_s"] = report.pop("imported_at") - spawned
    record.update(report)
    calibration = report["calibration"]
    if not calibration["mean_s"]:
        record["problems"] = ["no calibration samples"]
        return record
    # a phase without samples of its own takes the whole job's speed
    for key, phase in (("speed", "mean_s"), ("setup_speed", "setup_mean_s"),
                       ("solve_speed", "solve_mean_s")):
        record[key] = REF_LOOP_S / (calibration[phase] or calibration["mean_s"])
    if argv:
        problems = oracles.check_output(argv, proc.returncode, proc.stdout, digests)
        if trace:
            problems += oracles.check_counters(argv, report["stats"], report["counters"])
        record["problems"] = problems
    return record


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def _at_ref_speed(passes: list[list[dict]], key: str, speed: str | None) -> float:
    """Sum over jobs of each job's median over passes, scaled by the job's
    `speed` factor (raw when None)."""
    return sum(statistics.median([job[key] * (job[speed] if speed else 1.0) for job in runs])
               for runs in zip(*passes))


def end_to_end(passes: list[list[dict]], setups: list[dict], scaled: bool = True) -> dict:
    """The gated metrics; with `scaled` false, the raw times alone.  Each
    time is scaled by the speed measured while it ran."""
    wall, solve, setup = ("speed", "solve_speed", "setup_speed") if scaled else (None,) * 3
    times = {
        "wall_s": _at_ref_speed(passes, "wall_s", wall),
        "solve_s": _at_ref_speed(passes, "solve_s", solve),
        "setup_s": len(passes[0]) * statistics.median(
            [j["setup_s"] * (j[setup] if setup else 1.0) for j in setups]),
    }
    if not scaled:
        return times
    return times | {"peak_rss_mb": max(statistics.median([job["peak_rss_mb"] for job in runs])
                                       for runs in zip(*passes))}


def speeds(jobs: list[dict]) -> dict:
    """Median CPU speed seen inside the jobs and by run.py's own probes, and
    their ratio; a program that disturbs the in-job sampler moves the ratio."""
    job = statistics.median([j["speed"] for j in jobs])
    probed = statistics.median([j["probe_speed"] for j in jobs])
    return {"job": job, "probe": probed, "bias": job / probed}


def _pass_layers(jobs: list[dict]) -> dict:
    """Per-layer values of one traced pass, summed over its jobs; times at
    reference CPU speed."""
    stats, counters, residual = {}, {}, 0.0
    for job in jobs:
        for name, s in job["stats"].items():
            acc = stats.setdefault(name, dict.fromkeys(s, 0))
            for field, value in s.items():
                acc[field] += value * job["solve_speed"] if field in ("s", "self_s") else value
        for name, value in job["counters"].items():
            counters[name] = counters.get(name, 0) + value
        residual = max(residual, job["maxima"].get("kernels.residual_max", 0.0))

    def ratio(a, b):
        return a / b if b else 0.0

    values = {f"{name}.{field}": value
              for name, s in stats.items() for field, value in s.items()}
    term_adds = stats.get("terms.TermSum.add", {}).get("calls", 0)
    diagram_adds = stats.get("diagrams.DeformedSum.add", {}).get("calls", 0)
    values.update({
        "perturbation.monomials": counters.get("perturbation.monomials", 0),
        "terms.merge_ratio": ratio(counters.get("terms.TermSum.add.kept", 0), term_adds),
        "diagrams.merge_ratio": ratio(counters.get("diagrams.DeformedSum.add.kept", 0),
                                      diagram_adds),
        "diagrams.cancellations": counters.get("diagrams.DeformedSum.add.cancelled", 0),
        "diagrams.canonicalize.per_add": ratio(
            stats.get("diagrams.canonicalize", {}).get("calls", 0), diagram_adds),
        "kernels.residual_max": residual,
        "properties.failures": counters.get("properties.failures", 0),
        "cli.output_bytes": sum(j["output_bytes"] for j in jobs),
    })
    return values


def per_layer(names, traced: list[list[dict]], untraced: list[list[dict]]) -> tuple[dict, list]:
    """Medians over traced passes, the tracing overhead, and any counter
    that differs between two traced passes (counts must be exact)."""
    rows = [_pass_layers(p) for p in traced]
    unstable = sorted({n for r in rows[1:] for n in names
                       if n.endswith((".calls", ".yielded")) and r.get(n) != rows[0].get(n)})
    metrics = {n: statistics.median([r.get(n, 0) for r in rows]) for n in names}
    metrics["trace.overhead_s"] = (_at_ref_speed(traced, "wall_s", "speed")
                                   - _at_ref_speed(untraced, "wall_s", "speed"))
    return metrics, unstable


# --------------------------------------------------------------------------
# one workload
# --------------------------------------------------------------------------

def environment(workload: str, seed: int, probe: dict) -> dict:
    src = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, cwd=ROOT)
        commit = proc.stdout.decode().strip() or None
    return {
        "workload": workload, "seed": seed, "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": probe.get("versions", {}).get("numpy"),
        "scipy": probe.get("versions", {}).get("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def run_workload(bench, spec, workload: str, seed: int, seconds: float, trace: bool,
                 digests: dict) -> dict:
    started = time.monotonic()
    argvs = job_argvs(spec, workload, seed)
    # the first import also compiles the package's bytecode; it is not timed
    warm = run_job([], False, digests, RUN_LIMIT_S)
    probes = [run_job([], False, digests, RUN_LIMIT_S) for _ in range(SETUP_PROBES)]
    untraced, traced = [], []
    pass_s = 0.0
    while True:
        before = time.monotonic()
        untraced.append([run_job(a, False, digests, RUN_LIMIT_S - (time.monotonic() - started))
                         for a in argvs])
        if trace:
            traced.append([run_job(a, True, digests, RUN_LIMIT_S - (time.monotonic() - started))
                           for a in argvs])
        pass_s = time.monotonic() - before
        elapsed = time.monotonic() - started
        if elapsed >= seconds or elapsed + pass_s > RUN_LIMIT_S:
            break
    jobs = [warm] + probes + [j for p in untraced + traced for j in p]
    failed = [j for j in jobs if j.get("problems")]
    result = {"env": environment(workload, seed, warm), "attempted": len(jobs),
              "failed": len(failed), "passes": len(untraced)}
    if not failed:
        setups = probes + [j for p in untraced for j in p]
        result["end_to_end"] = end_to_end(untraced, setups)
        result["raw_end_to_end"] = end_to_end(untraced, setups, scaled=False)
        result["speed"] = speeds(setups)
        if trace:
            names = [m["name"] for m in bench["per_layer"] if m["name"] != "trace.overhead_s"]
            result["per_layer"], unstable = per_layer(names, traced, untraced)
            if unstable:
                result["failed"] += 1
                result["unstable_counters"] = unstable
            result["trace_errors"] = sorted(
                {e for j in jobs for e in j.get("errors", []) + j.get("missing_targets", [])})
    result["jobs"] = jobs
    return result


def counter_drift(previous: dict, result: dict) -> list[str]:
    """Exact counters that differ from an earlier traced run of the same
    sources and seed."""
    if previous.get("env", {}).get("source_sha256") != result["env"]["source_sha256"]:
        return []
    old, new = previous.get("per_layer", {}), result.get("per_layer", {})
    return [n for n in new
            if n.endswith((".calls", ".yielded")) and n in old and old[n] != new[n]]


def print_table(workload: str, result: dict, units: dict) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"{workload}: seed {result['env']['seed']}, {result['passes']} pass(es), "
          f"{result['failed']}/{result['attempted']} jobs failed (failed_ratio {ratio:g})")
    for j in result["jobs"]:
        if j.get("problems"):
            print(f"  FAILED {' '.join(j['argv']) or '(set-up probe)'}: {'; '.join(j['problems'])}")
    if "speed" in result:
        sp = result["speed"]
        print(f"  times at reference CPU speed; median speed factor {sp['job']:.4f} in the jobs, "
              f"{sp['probe']:.4f} between them (ratio {sp['bias']:.4f})")
    for key in ("end_to_end", "per_layer"):
        for name, value in result.get(key, {}).items():
            print(f"  {name:<45} {value:>16.7g} {units[name]}")
    for name, value in result.get("raw_end_to_end", {}).items():
        print(f"  {name + ' (raw, unscaled)':<45} {value:>16.7g} {units[name]}")
    for name in result.get("unstable_counters", []):
        print(f"  counter differs between traced passes or runs: {name}")
    for problem in result.get("trace_errors", []):
        print(f"  tracing problem: {problem}")


def record_digests(spec) -> int:
    """Run every symbolic job once and pin the sha256 of its output."""
    pinned = {}
    for argv in (job for jobs in spec["workloads"].values() for job in jobs):
        if argv[0] not in oracles.SYMBOLIC:
            continue
        if any("{seed}" in a for a in argv):
            print(f"a symbolic job cannot take the workload seed: {' '.join(argv)}",
                  file=sys.stderr)
            return 1
        record = run_job(argv, False, {}, RUN_LIMIT_S)
        problems = [p for p in record["problems"] if p != "no recorded digest for this argv"]
        if problems:
            print(f"not recorded, {' '.join(argv)}: {problems}", file=sys.stderr)
            return 1
        pinned[oracles.digest_key(argv)] = record["sha256"]
        print(f"{record['sha256']}  {' '.join(argv)}")
    DIGESTS.write_text(json.dumps(dict(sorted(pinned.items())), indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "sthirring" / "cli.py").is_file():
        print(f"no sthirring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench, spec = load_config()
    if args.record_digests:
        return record_digests(spec)
    digests = json.loads(DIGESTS.read_text())
    workloads = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(spec["workloads"]):
        p.error(f"unknown workload {args.workload!r}; choose from {list(spec['workloads'])} or all")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    key = "per_layer" if args.trace else "end_to_end"
    OUT_DIR.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result = run_workload(bench, spec, workload, args.seed, seconds, bool(args.trace),
                              digests)
        out = OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        drift = counter_drift(json.loads(out.read_text()), result) if out.is_file() else []
        if drift:
            result["failed"] += 1
            result["unstable_counters"] = result.get("unstable_counters", []) + drift
        out.write_text(json.dumps(result, indent=1) + "\n")
        print_table(workload, result, units)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(workloads) == 1 else workload + "."
        for name, value in result.get(key, {}).items():
            summary["metrics"][prefix + name] = {"value": value, "unit": units[name]}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
