"""Run the deep checks, the order-5 runs that tier-1 leaves out.

    python tests/deep_checks.py [--out REPORT.json]
    python tests/deep_checks.py --record

Each check runs in its own process, with the package from `src/`: a
command line of the CLI, or a probe of this file (`--probe NAME`, see
PROBES), which checks Gamma_Q(F_5) against the test oracles.  The run
hashes the check's stdout as it streams and compares the sha256, the
stderr and the exit code with `tests/deep_manifest.json`; the check's
reader reads the same output for the invariants it names (H_1..H_5 even
with a zero residual, for `counterterms --order 5`), and a probe writes
the problems it finds to stderr and exits 1.  The run prints a report,
and writes it to REPORT.json too, with each check's wall time and peak
RSS (the ru_maxrss of its process) and whether it held; it exits 1
unless every check held.  `--record` rewrites the digest file from the
package as it stands instead: re-record only for a change of output that
is meant, and review the diff of the digest file with it.  pytest does
not collect this file, so the checks (about 90 s in all on a 2-vCPU
host, and about 180 MB in the largest process) stay out of the tier-1
time.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from record_cli_manifest import _BRANCH_PAIRS

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "deep_manifest.json"
SRC = HERE.parent / "src"

# `counterterms` writes indent=1 JSON: each order's entry opens on a line
# indented 2, and its `even` and `residual_zero` flags sit on lines
# indented 3, which no operator diagram's lines are.
_ORDER = re.compile(rb'  "(\d+)": \{\n')
_FLAG = re.compile(rb'   "(even|residual_zero)": (true|false),?\n')


def counterterm_flags(lines) -> list[str]:
    """Problems with the orders of `counterterms --order 5`: each of
    1..5 must be there, even and with a zero residual."""
    flags: dict = {}
    order: dict = {}
    for line in lines:
        if line.startswith(b"    "):
            continue
        if m := _ORDER.fullmatch(line):
            order = flags.setdefault(m[1].decode(), {})
        elif m := _FLAG.fullmatch(line):
            order[m[1].decode()] = m[2] == b"true"
    return [f"order {k}: {flags.get(k)}" for k in sorted({*flags, *"12345"})
            if flags.get(k) != {"even": True, "residual_zero": True}]


def digest_only(lines) -> list[str]:
    """No invariant beyond the digest: read the lines and find nothing."""
    for _ in lines:
        pass
    return []


def gamma_against_the_walk_per_term(write) -> list[str]:
    """Write Gamma_Q(F_5) of the spinor branch, one line per diagram (its
    key and coefficient) in key order; a problem unless the walk with one
    orbit walk per term gives the same keys and coefficients."""
    from sthirring.deformation import gamma_Q
    from sthirring.diagrams import DeformedSum
    from sthirring.perturbation import SPINOR, expand
    from helpers import ref_gamma_Q

    f5 = expand(5).coefficient(5, SPINOR)
    got = gamma_Q(f5).diagrams()
    for d in got:
        write(f"{DeformedSum._serial(d.slots)} {d.coeff}\n")
    want = ref_gamma_Q(f5).diagrams()
    if [(d.slots, d.coeff) for d in got] != [(d.slots, d.coeff) for d in want]:
        return ["Gamma_Q(F_5) differs from the walk per term"]
    return []


def factor_local_part_against_the_cubic(write) -> list[str]:
    """Write the pointwise cubic at order 5, built by the test helper from
    Gamma_Q of F_0..F_4 on both branches, one line per diagram (its key
    and coefficient) in key order, then the sizes of both sides; a problem
    unless the entries of Gamma_Q(F_5) that `extract_counterterms` leaves
    out of the defect (no pair across two factors of the top vertex) are
    these keys with these coefficients."""
    from sthirring.deformation import _crosses_factors, gamma_Q
    from sthirring.diagrams import DeformedSum
    from sthirring.perturbation import COSPINOR, SPINOR, expand
    from helpers import pointwise_cubic

    series = expand(5)
    gf = {k: gamma_Q(series.coefficient(k, SPINOR)) for k in range(6)}
    gf_bar = {k: gamma_Q(series.coefficient(k, COSPINOR)) for k in range(5)}
    want = pointwise_cubic(gf_bar, gf, 5).diagrams()
    for d in want:
        write(f"{DeformedSum._serial(d.slots)} {d.coeff}\n")
    got = [d for d in gf[5].diagrams() if not _crosses_factors(d)]
    write(f"{len(got)} factor-local entries of Gamma_Q(F_5), "
          f"{len(want)} of the pointwise cubic\n")
    if [(d.slots, d.coeff) for d in got] != [(d.slots, d.coeff) for d in want]:
        return ["the factor-local part of Gamma_Q(F_5) differs from the "
                "pointwise cubic"]
    return []


SAMPLE_EVERY = 50


def brute_force_sample(write) -> list[str]:
    """Canonicalize every SAMPLE_EVERY-th orbit representative of the
    walk per term of the spinor F_5 (5,342 of 267,075) cold (the layout
    memo cleared before each), then warm; write each one's key and
    coefficient, and the number with more than one layout.  A problem
    for each form that differs from the brute-force reference's."""
    from sthirring import diagrams
    from sthirring.diagrams import DeformedSum
    from sthirring.perturbation import SPINOR, expand
    from helpers import per_term_walk, ref_canonical

    f5 = expand(5).coefficient(5, SPINOR)
    sample = [d for i, d in enumerate(d for t in f5.terms()
                                      for d in per_term_walk(t))
              if i % SAMPLE_EVERY == 0]
    want = [ref_canonical(d)[1] for d in sample]
    problems = []
    tied = 0
    for warm in (False, True):
        diagrams._layouts.cache_clear()
        for i, d in enumerate(sample):
            if not warm:
                diagrams._layouts.cache_clear()
                tied += len(diagrams._layouts(d.slots[0])[1]) > 1
            got = diagrams.canonicalize(d).slots
            if got != want[i]:
                problems.append(f"sample {i} ({'warm' if warm else 'cold'}) "
                                f"differs from the brute-force form")
            elif not warm:
                write(f"{DeformedSum._serial(got)} {d.coeff}\n")
    write(f"{len(sample)} sampled, {tied} with more than one layout\n")
    return problems


# probe name -> the function that writes its lines and returns its problems
PROBES = {
    "probe: Gamma_Q(F_5) against the walk per term":
        gamma_against_the_walk_per_term,
    "probe: brute-force canonical forms of a Gamma_Q(F_5) sample":
        brute_force_sample,
    "probe: factor-local part of Gamma_Q(F_5) against the pointwise cubic":
        factor_local_part_against_the_cubic,
}

# check name (a probe's name, or a command line of the CLI) -> the reader
# of its stdout lines, which returns the problems it finds
CHECKS = {
    "counterterms --order 5": counterterm_flags,
    **{f"correlate --order 5 --branches {b}": digest_only
       for b in _BRANCH_PAIRS},
    **dict.fromkeys(PROBES, digest_only),
}


def run_check(name: str, reader) -> dict:
    """Run one check in a fresh process: its stdout digest, stderr, exit
    code, wall time, peak RSS and the reader's problems."""
    argv = ([str(HERE / "deep_checks.py"), "--probe", name] if name in PROBES
            else ["-m", "sthirring.cli", *name.split()])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    digest = hashlib.sha256()

    def hashed(stream):
        for line in stream:
            digest.update(line)
            yield line

    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv],
                                stdout=subprocess.PIPE, stderr=err, env=env)
        with proc.stdout:
            problems = reader(hashed(proc.stdout))
            digest.update(proc.stdout.read())  # what it left unread
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        err.seek(0)
        stderr = err.read().decode()
    return {
        "stdout_sha256": digest.hexdigest(),
        "stderr": stderr,
        "rc": proc.returncode,
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "problems": problems,
    }


def main(args=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--record", action="store_true",
                    help="rewrite the digest file instead of checking it")
    ap.add_argument("--out", type=Path, help="also write the report here")
    ap.add_argument("--probe", choices=PROBES,
                    help="run this probe in this process instead")
    opts = ap.parse_args(args)
    if opts.probe:
        problems = PROBES[opts.probe](sys.stdout.write)
        sys.stderr.writelines(f"{p}\n" for p in problems)
        return 1 if problems else 0
    pinned = {} if opts.record else json.loads(MANIFEST.read_text())
    report = {"python": platform.python_version(), "checks": {}}
    for name, reader in CHECKS.items():
        got = run_check(name, reader)
        if not opts.record:
            want = pinned[name]
            got["problems"] += [f"{field} differs from the digest file"
                                for field in ("stdout_sha256", "stderr", "rc")
                                if got[field] != want[field]]
        got["held"] = not got["problems"]
        report["checks"][name] = got
        print(f"{name}: {'held' if got['held'] else 'FAILED'} "
              f"({got['wall_s']} s, {got['peak_rss_mb']} MB)", file=sys.stderr)
    report["held"] = all(c["held"] for c in report["checks"].values())
    if opts.record:
        MANIFEST.write_text(json.dumps(
            {name: {field: c[field] for field in ("stdout_sha256", "stderr", "rc")}
             for name, c in report["checks"].items()},
            indent=1, sort_keys=True) + "\n")
        print(f"{len(CHECKS)} entries written to {MANIFEST}", file=sys.stderr)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if opts.out is not None:
        opts.out.write_text(text)
    sys.stdout.write(text)
    return 0 if report["held"] else 1


if __name__ == "__main__":
    sys.exit(main())
