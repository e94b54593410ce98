"""Compare two sets of benchmark result files, refusing mismatched machines.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by run.py (copies of
.perfbench_out/ taken at two commits).  For every workload and metric the
median and quartiles of each side are printed with the change's median as
a share of the base's: the gated metrics, the raw (unscaled) times and the
CPU speed factors.  Results measured under a different Python, numpy,
scipy, CPU count or platform are not comparable: the tool names the
difference and exits 2.

The gated times are scaled by the CPU speed measured inside each job.  The
ratio of that speed to the speed run.py measures between jobs (`bias`)
shows whether the program changed how fast the in-job sampler runs.  It is
noisy: between sets of ten runs of the same code its median moved by up to
7.5% on one workload.  A workload whose `bias` median moved by more than
BIAS_TOLERANCE is flagged, and the tool exits 1: its scaled gains are not
to be trusted.  A smaller disturbance is not flagged; the raw times, which
are printed too, are the check on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ENV_KEYS = ("python", "numpy", "scipy", "nproc", "affinity", "platform")
GROUPS = ("end_to_end", "raw_end_to_end", "speed", "per_layer")
BIAS_TOLERANCE = 0.10


def load(directory: str) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(directory).glob("*.json"))]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    args = p.parse_args(argv)
    sides = {"base": load(args.base), "change": load(args.change)}
    results = sides["base"] + sides["change"]
    clashes = {key: sorted({str(r["env"].get(key)) for r in results}) for key in ENV_KEYS}
    clashes = {key: values for key, values in clashes.items() if len(values) > 1}
    for key, values in clashes.items():
        print(f"environment differs in {key}: {values}", file=sys.stderr)
    if clashes:
        return 2
    table: dict = {}
    for side, results in sides.items():
        for r in results:
            for group in GROUPS:
                for name, value in r.get(group, {}).items():
                    label = {"raw_end_to_end": f"{name} (raw)", "speed": f"speed.{name}"}
                    cell = table.setdefault((r["env"]["workload"], label.get(group, name)), {})
                    cell.setdefault(side, []).append(value)
    moves = {}
    print(f"{'workload':<14} {'metric':<45} {'base q1/med/q3':>30} {'change q1/med/q3':>30} ratio")
    for (workload, name), cols in sorted(table.items()):
        if set(cols) != {"base", "change"}:
            continue
        b, c = quartiles(cols["base"]), quartiles(cols["change"])
        ratio = f"{c[1] / b[1]:.3f}" if b[1] else "-"
        print(f"{workload:<14} {name:<45} "
              f"{'/'.join(f'{v:.4g}' for v in b):>30} {'/'.join(f'{v:.4g}' for v in c):>30} "
              f"{ratio} (n={len(cols['base'])}/{len(cols['change'])})")
        if name == "speed.bias":
            moves[workload] = c[1] / b[1]
    flagged = [w for w, move in moves.items() if abs(move - 1) > BIAS_TOLERANCE]
    for workload in flagged:
        print(f"{workload}: the in-job speed moved by {moves[workload] - 1:+.1%} against "
              f"run.py's probe; compare the raw times", file=sys.stderr)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
