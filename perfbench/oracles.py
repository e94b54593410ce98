"""Correctness checks for one CLI job's output.

Every job must exit 0.  Symbolic outputs must match, byte for byte, the
sha256 recorded for the same argv (`digests.json`).  Closed forms from the paper are checked on top of the digests.  In a
traced run the exact counters are checked against closed forms too.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb, factorial

SYMBOLIC = {"expand", "expect", "correlate", "counterterms", "power-count", "gamma-check"}


def fuss_catalan(k: int) -> int:
    """Monomials of F_k: C(3k, k) / (2k + 1)."""
    return comb(3 * k, k) // (2 * k + 1)


def maximal_graphs(k: int) -> int:
    """Maximally contracted graphs at order k: (k+1)! C(3k, k) / (2k + 1)."""
    return factorial(k + 1) * fuss_catalan(k)


def digest_key(argv: list[str]) -> str:
    return " ".join(argv)


def _flags(argv: list[str]) -> dict:
    return {a[2:]: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}


def _expand(flags, text):
    if flags.get("format", "tex") != "json":
        return
    data = json.loads(text)
    k = int(flags["order"])
    if len(data["monomials"]) != fuss_catalan(k):
        yield f"{len(data['monomials'])} monomials at order {k}, want {fuss_catalan(k)}"


def _power_count(flags, text):
    if flags.get("format", "table") != "table":
        return
    d, top = int(flags["dim"]), int(flags["max-order"])
    lines = text.splitlines()
    header = lines[0].split()
    rows = [dict(zip(header, line.split())) for line in lines[1:]]
    if [int(r["k"]) for r in rows] != list(range(top + 1)):
        yield f"orders {[r['k'] for r in rows]}, want 0..{top}"
        return
    for k, row in enumerate(rows):
        rho = Fraction((d - 3) * (2 * k + 1), 2) + Fraction(d + 1, 2)
        if (row["N"], row["L"]) != (str(2 * k + 1), str(3 * k + 1)):
            yield f"order {k}: (N, L) = ({row['N']}, {row['L']})"
        if row["rho"] != str(rho):
            yield f"order {k}: rho {row['rho']}, closed form {rho}"
        if row["graphs"] != str(maximal_graphs(k)):
            yield f"order {k}: {row['graphs']} graphs, want {maximal_graphs(k)}"


def _counterterms(flags, text):
    orders = json.loads(text)["orders"]
    top = int(flags["order"])
    if sorted(orders, key=int) != [str(k) for k in range(1, top + 1)]:
        yield f"orders {sorted(orders)}, want 1..{top}"
        return
    for k, h in orders.items():
        if not (h["even"] and h["residual_zero"]):
            yield f"H_{k}: even={h['even']} residual_zero={h['residual_zero']}"
    ops = orders["1"]["operators"]
    tags = [t[0] for op in ops for t in op["counterterm_tags"] if t[0] != "argport"]
    if len(ops) != 1 or ops[0]["coefficient"] != [1, 1] or tags != ["Ctilde"]:
        yield "H_1 is not Ctilde"


def _correlate(flags, text):
    orders = json.loads(text)["orders"]
    if sorted(orders, key=int) != [str(k) for k in range(int(flags["order"]) + 1)]:
        yield f"orders {sorted(orders)}"


def _gamma_check(flags, text):
    report = json.loads(text)
    bad = [c["name"] for c in report["checks"] if c["failures"]]
    if report["failures"] or bad:
        yield f"{report['failures']} property failures in {bad}"
    if report["seed"] != int(flags["seed"]):
        yield f"reports seed {report['seed']}"
    short = [c["name"] for c in report["checks"]
             if c["name"] != "contraction_counts" and c["trials"] != int(flags["trials"])]
    if short or not int(flags["trials"]):
        yield f"random checks {short} did not run the {flags['trials']} trials asked for"


def _kernel_check(flags, text):
    if json.loads(text)["pass"] is not True:
        yield "kernel check did not pass"


_CHECKS = {"expand": _expand, "power-count": _power_count,
           "counterterms": _counterterms, "correlate": _correlate,
           "gamma-check": _gamma_check, "kernel-check": _kernel_check}


def check_output(argv: list[str], rc: int, out: bytes, digests: dict) -> list[str]:
    """Problems with one job's result; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    command, flags = argv[0], _flags(argv)
    if command in SYMBOLIC:
        want = digests.get(digest_key(argv))
        if want is None:
            problems.append("no recorded digest for this argv")
        elif hashlib.sha256(out).hexdigest() != want:
            problems.append("output differs from the recorded digest")
    check = _CHECKS.get(command)
    if check is not None:
        try:
            problems += list(check(flags, out.decode()))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return problems


def check_counters(argv: list[str], stats: dict, counters: dict) -> list[str]:
    """Closed forms for the exact counters of one traced job."""
    flags = _flags(argv)
    top = flags.get("order", flags.get("max-order"))
    if top is None:
        return []
    top = int(top)
    problems = []
    want = 2 * sum(fuss_catalan(k) for k in range(top + 1))
    got = counters.get("perturbation.monomials", 0)
    if got != want:
        problems.append(f"perturbation.monomials {got}, want {want} (both branches)")
    if argv[0] == "power-count":
        want = sum(maximal_graphs(k) for k in range(top + 1))
        got = stats.get("power_counting.maximal_contractions", {}).get("yielded", 0)
        if got != want:
            problems.append(f"maximal_contractions.yielded {got}, want {want}")
    return problems
