"""Run one sthirring CLI job in this fresh interpreter and report on it.

    python3 perfbench/job.py --cpu N [--trace] -- <sthirring arguments>
    python3 perfbench/job.py --cpu N --          # set-up probe: import only

The CLI's stdout passes through untouched.  The last line written to
stderr is `perfbench-report <json>`: the monotonic time at which
`import sthirring.cli` finished, the time spent inside
`sthirring.cli.main`, the exit code, the peak resident set of this process,
the numpy/scipy versions and the calibration samples; with --trace also
the spans and counts.

Calibration: the job is pinned to CPU N, and a thread on that CPU times a
fixed pure-Python loop every few milliseconds for as long as the job runs.
The loop's mean duration tells how fast the CPU ran while the job ran, so
run.py can express the job's times at a reference speed.  The speed swings
within a second, so the samples taken during the import and during
`sthirring.cli.main` are averaged apart too, and scale those two times.  The loop is timed
by the sampling thread's own CPU clock, so time in which the OS runs the
job's other thread instead (code that releases the GIL) is not counted.
run.py times the same loop with `probe` in its own process before each
job, so a program that slows the sampler (through the caches, say) shows
as a shift between the two speeds.
"""

import json
import os
import resource
import sys
import threading
import time

REPORT_TAG = "perfbench-report "
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SAMPLE_EVERY_S = 0.01
PROBE_SAMPLES = 10


def calibration_loop():
    table = {}
    for i in range(400):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    return table


def probe(samples: int = PROBE_SAMPLES) -> float:
    """Mean duration of `calibration_loop`, timed as the sampler times it,
    in the calling process and outside any job."""
    taken = []
    for _ in range(samples):
        time.sleep(SAMPLE_EVERY_S)
        start = time.thread_time()
        calibration_loop()
        taken.append(time.thread_time() - start)
    return sum(taken) / samples


class Sampler(threading.Thread):
    """Times `calibration_loop` every SAMPLE_EVERY_S until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []  # (monotonic time, loop duration)
        self.halt = threading.Event()

    def run(self):
        clock = time.thread_time
        while not self.halt.wait(SAMPLE_EVERY_S):
            start = clock()
            calibration_loop()
            self.samples.append((time.monotonic(), clock() - start))

    def stop(self) -> list[tuple[float, float]]:
        self.halt.set()
        self.join()
        return self.samples


def mean_loop_s(samples, since=float("-inf"), until=float("inf")):
    """Mean loop duration of the samples taken between `since` and `until`."""
    taken = [d for t, d in samples if since <= t <= until]
    return sum(taken) / len(taken) if taken else None


def run(cpu: int, trace: bool, argv: list[str]) -> int:
    os.sched_setaffinity(0, {cpu})
    sampler = Sampler()
    sampler.start()
    sys.path.insert(0, SRC)
    import sthirring.cli as cli
    imported = time.monotonic()
    report = {
        "imported_at": imported,
        "versions": {name: sys.modules[name].__version__
                     for name in ("numpy", "scipy") if name in sys.modules},
    }
    tracer = None
    if trace:
        import spans
        tracer = spans.Tracer()
        report["missing_targets"] = spans.install(tracer)
    rc = 0
    start = end = None
    if argv:
        start = time.monotonic()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            rc = exc.code if isinstance(exc.code, int) else 1
        end = time.monotonic()
        report["solve_s"] = end - start
        sys.stdout.flush()
    samples = sampler.stop()
    report["rc"] = rc
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["calibration"] = {
        "samples": len(samples),
        "mean_s": mean_loop_s(samples),
        "setup_mean_s": mean_loop_s(samples, until=imported),
        "solve_mean_s": mean_loop_s(samples, start, end) if argv else None,
    }
    if tracer is not None:
        report.update(tracer.report())
    sys.stderr.write(REPORT_TAG + json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    args = sys.argv[1:]
    split = args.index("--")
    cpu = int(args[args.index("--cpu") + 1])
    sys.exit(run(cpu, "--trace" in args[:split], args[split + 1:]))
