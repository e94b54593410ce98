"""Run the deep checks, the order-5 command lines that tier-1 leaves out.

    python tests/deep_checks.py [--out REPORT.json]
    python tests/deep_checks.py --record

Each check runs one command line of CHECKS in its own process, with the
package from `src/`, hashes its stdout as it streams and compares the
sha256, the stderr and the exit code with `tests/deep_manifest.json`;
the check's reader reads the same output for the invariants it names
(H_1..H_5 even with a zero residual, for `counterterms --order 5`).  The
run prints a report, and writes it to REPORT.json too, with each check's
wall time and peak RSS (the ru_maxrss of its process) and whether it
held; it exits 1 unless every check held.  `--record` rewrites the
digest file from the package as it stands instead: re-record only for a
change of output that is meant, and review the diff of the digest file
with it.  pytest does not collect this file, so the checks (about 80 s
in all, and 175 MB in the largest process) stay out of the tier-1 time.
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


# check name (its command line) -> the reader of its stdout lines, which
# returns the problems it finds
CHECKS = {
    "counterterms --order 5": counterterm_flags,
    **{f"correlate --order 5 --branches {b}": digest_only
       for b in _BRANCH_PAIRS},
}


def run_check(argv: str, reader) -> dict:
    """Run one command line in a fresh process: its stdout digest, stderr,
    exit code, wall time, peak RSS and the reader's problems."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    digest = hashlib.sha256()

    def hashed(stream):
        for line in stream:
            digest.update(line)
            yield line

    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sthirring.cli",
                                 *argv.split()],
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
    opts = ap.parse_args(args)
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
