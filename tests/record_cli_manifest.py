"""Rewrite tests/cli_manifest.json from the package as it stands.

    PYTHONPATH=src python tests/record_cli_manifest.py

The manifest maps each command line of ARGVS to the sha256 of its stdout,
its stderr and its exit code; `tests/test_cli.py` checks every entry and
never writes the file.  Re-record only for a change of output that is
meant, and review the diff of the manifest with it.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "cli_manifest.json"

_EXPAND = [f"expand --order {k}{branch} --format {fmt}"
           for k in range(6) for branch in ("", " --branch psibar")
           for fmt in ("tex", "json", "dot")]
_BRANCH_PAIRS = ("psi-psibar", "psibar-psi", "psi-psi", "psibar-psibar")

ARGVS = sorted(set(
    _EXPAND
    + [f"expect --order {k}" for k in range(7)]
    + [f"correlate --order 3 --branches {b}" for b in _BRANCH_PAIRS]
    + [f"counterterms --order {k}" for k in range(1, 5)]
    + [f"power-count --dim {d} --max-order 4" for d in (1, 2, 3)]
    + [f"gamma-check --seed {s}" for s in (1, 3, 7)]
    + [
        # the entries once pinned in test_cli.GOLDEN
        "correlate --order 2 --branches psibar-psi",
        "correlate --order 2 --format dot",
        "correlate --order 2 --format json",
        "correlate --order 3 --branches psi-psi --format dot",
        "correlate --order 3 --branches psi-psi --format json",
        "correlate --order 3 --branches psi-psibar --format dot",
        "correlate --order 3 --branches psi-psibar --format json",
        "correlate --order 3 --branches psibar-psi --format dot",
        "correlate --order 3 --branches psibar-psi --format json",
        "correlate --order 3 --branches psibar-psibar --format dot",
        "correlate --order 3 --branches psibar-psibar --format json",
        "counterterms --order 2",
        "counterterms --order 3",
        "expand --order 3 --branch psibar --format dot",
        "expand --order 3 --format dot",
        "expand --order 3 --format json",
        "expand --order 3 --format tex",
        "expand --order 4 --format json",
        "expand --order 4 --format tex",
        "expand --order 5 --branch psibar --format json",
        "expand --order 5 --format json",
        # order 6, where a wrong placement of a factor first moves bytes
        "expand --order 6 --branch psibar --format json",
        "expand --order 6 --format json",
        "expect --order 3",
        "expect --order 3 --format json",
        "expect --order 4 --branch psibar --format json",
        "gamma-check --seed 3 --trials 2 --export-rep 2",
        "gamma-check --seed 3 --trials 4 --export-rep 4",
        "gamma-check --seed 3 --trials 5",
        "power-count --dim 2 --max-order 3",
        "power-count --dim 2 --max-order 3 --format json",
        "power-count --dim 2 --max-order 4 --format json",
        # the benchmark's pinned power-count output
        "power-count --dim 2 --max-order 4 --format table",
        # the subcritical verdict at the highest accepted order
        "power-count --dim 2 --max-order 6",
        # usage errors: exit 2, one line on stderr, nothing on stdout
        "expand",
        "expand --order -1",
        "expand --order 7",
        "expect --order 7",
        "correlate --order 7",
        "power-count --dim 0 --max-order 2",
        "power-count --dim 2 --max-order 7",
        "gamma-check --trials -2",
        "kernel-check --dim 1 --mass 0",
        "kernel-check --dim 2 --mass 1e5",
        "kernel-check --dim 2 --trials 5",
        # usage errors that argparse reports: a usage block and one line
        "expand --order 2 --format xml",
        "correlate --order 1 --branches psi-chi",
        # the top-level usage line, the invalid-choice message and both
        # levels of help text
        "expand --order 2 --bogus",
        "bogus --order 1",
        "-h",
        "expand -h",
    ]))


def record(argv: str) -> dict:
    from helpers import run_argv
    rc, out, err = run_argv(argv)
    return {"stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": err, "rc": rc}


def main() -> None:
    sys.path.insert(0, str(HERE))
    manifest = {argv: record(argv) for argv in ARGVS}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"{len(manifest)} entries written to {MANIFEST}")


if __name__ == "__main__":
    main()
