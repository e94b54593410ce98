"""Command-line front end.

Subcommands: expand, expect, correlate, power-count, kernel-check,
gamma-check, counterterms.  A config file of `key = value` lines supplies
defaults to the subcommands with an option of that name; flags override
them.  The same configuration and seed give the same output bytes.  Exit
codes: 0 success, else that of the `errors` class raised: 2 usage error
(an unreadable, non-UTF-8 or malformed config file, a config value its
flag would refuse, an unwritable output file, a bad STHIRRING_THREADS, or
a resource limit: an order above the ceiling, a canonical-form search
past its budget, or a kernel-check mass past what the polar rule
resolves), 3 invariant violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import clifford
from .deformation import (
    contractions, expectation_report, extract_counterterms, two_point,
)
from .diagrams import DeformedSum, Diagram, diagram_to_json, to_dot
from .errors import Error, InvariantError, NumericalError, UsageError
from .kernels import (
    KernelParams, TestFunction, clipped_integral, dirac_kernel_2d,
    greens_identity_residual, polar_mass_limit, q_kernel_1d,
    scaling_degree_probe,
)
from .perturbation import COSPINOR, SPINOR, check_structure, expand
from .power_counting import classify, sd_propagator
from .properties import run_all
from .terms import Term, term_to_json, to_tex

THREADS_ENV = "STHIRRING_THREADS"

_BRANCH = {"psi": SPINOR, "psibar": COSPINOR}
_INF = float("inf")
_BATCH = 4096  # chunks the JSON writer holds before it writes them out


def _stream_json(obj, write) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=1, default=_json_default)
    through write, byte for byte, in batches of about _BATCH chunks.

    With `indent` set, json never uses its C encoder; it runs a chain of
    nested generators that passes every chunk through each level above it.
    This writer appends the chunks to one list in one recursive pass, and
    each container hands the list to write once it holds more than _BATCH
    chunks, so no more than a batch of the output is held at once."""
    out: list[str] = []
    _write_json(obj, 0, out, write)
    write("".join(out))


@cache
def _pads(depth: int) -> tuple[str, str, str, str, str]:
    """The bracket and separator chunks of a container at this depth:
    built once, so the chunk list holds no copy of them per container."""
    nl = "\n" + " " * depth
    inner = nl + " "
    return "[" + inner, "{" + inner, "," + inner, nl + "]", nl + "}"


def _float_json(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _key_json(k) -> str:
    """A dict key as json spells it: str keys as they are, float, bool,
    None and int keys converted first; any other key is a TypeError."""
    if isinstance(k, str):
        pass
    elif isinstance(k, float):
        k = _float_json(k)
    elif k is True:
        k = "true"
    elif k is False:
        k = "false"
    elif k is None:
        k = "null"
    elif isinstance(k, int):
        k = int.__repr__(k)
    else:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {k.__class__.__name__}")
    return _encode_str(k)


def _json_default(o):
    """json's `default`: a Term or a Diagram becomes its export dict, built
    only when the writer reaches it; anything else is a TypeError."""
    if isinstance(o, Term):
        return term_to_json(o)
    if isinstance(o, Diagram):
        return diagram_to_json(o)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


def _write_json(o, depth: int, out: list, write) -> None:
    """Append the chunks of o, a value nested `depth` containers deep, and
    pass out to write whenever a container has filled it past _BATCH.
    A module-level function, so no closure cycle keeps `out` alive."""
    if isinstance(o, str):
        out.append(_encode_str(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_json(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        sep, _, comma, close, _ = _pads(depth)
        for v in o:
            out.append(sep)
            _write_json(v, depth + 1, out, write)
            if len(out) > _BATCH:
                write("".join(out))
                out.clear()
            sep = comma
        out.append(close)
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        _, sep, comma, _, close = _pads(depth)
        for k, v in sorted(o.items()):
            out.append(sep + _key_json(k) + ": ")
            _write_json(v, depth + 1, out, write)
            if len(out) > _BATCH:
                write("".join(out))
                out.clear()
            sep = comma
        out.append(close)
    else:
        _write_json(_json_default(o), depth, out, write)


def _emit(result, path: str | None) -> None:
    """Write result, then a newline, to the file at path, or to stdout when
    there is no path.  A str result is text, written as it is; any other is
    a JSON payload, streamed by `_stream_json`.  Every payload is computed
    before this is called.  An OSError on opening the file or on any write
    is a UsageError, and the file may then hold part of the output.  A
    reader of stdout that goes away (`| head`) ends the output quietly."""
    if not path:
        try:
            _write_result(result, sys.stdout.write)
        except BrokenPipeError:
            # the rest goes to devnull, so the flush at exit cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        with open(path, "w") as fh:
            _write_result(result, fh.write)
    except OSError as exc:
        raise UsageError(
            f"cannot write output file {path!r}: {exc.strerror}")


def _write_result(result, write) -> None:
    if isinstance(result, str):
        write(result)
    else:
        _stream_json(result, write)
    write("\n")


def _read_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path!r} is not UTF-8 text: "
                         f"{exc.reason} at byte {exc.start}")
    out = {}
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"bad config line: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        out[key.replace("-", "_")] = val
    return out


def _threads() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if n < 1:
        raise UsageError(f"{THREADS_ENV} must be >= 1, got {raw!r}")
    return n


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_expand(args) -> None:
    series = expand(args.order)
    branch = _BRANCH[args.branch]
    terms = series.coefficient(args.order, branch).terms()
    check_structure(series, args.order, branch)
    if args.format == "tex":
        lines = [f"% order {args.order}, {len(terms)} monomials"]
        lines += [to_tex(t) for t in terms]
        _emit("\n".join(lines), args.output)
    elif args.format == "json":
        _emit({"order": args.order, "branch": args.branch, "monomials": terms},
              args.output)
    else:  # dot: the uncontracted diagrams, isomorphic monomials merged
        ds = DeformedSum(next(contractions(t, 0)) for t in terms)
        chunks = [to_dot(d, f"m{i}") for i, d in enumerate(ds)]
        _emit("\n".join(chunks), args.output)


def _cmd_expect(args) -> None:
    series = expand(args.order)
    ds, examined = expectation_report(series, args.order, _BRANCH[args.branch])
    if args.format == "json":
        _emit({
            "order": args.order,
            "branch": args.branch,
            "patterns_examined": examined,
            "surviving_diagrams": len(ds),
            "value": "0" if ds.is_zero() else "nonzero",
        }, args.output)
    else:
        _emit(f"0   ({examined} contraction patterns examined)", args.output)
    if not ds.is_zero():
        raise InvariantError(
            f"expectation at order {args.order} is not the empty sum")


def _cmd_correlate(args) -> None:
    series = expand(args.order)
    a, b = (_BRANCH[x] for x in args.branches.split("-"))
    tp = two_point(series, a, b, args.order)
    if args.format == "dot":
        chunks = []
        for k in range(args.order + 1):
            chunks += [to_dot(d, f"o{k}_{i}") for i, d in enumerate(tp[k])]
        _emit("\n".join(chunks), args.output)
    else:
        origin = f"two_point[{a},{b}]"
        _emit({
            "branches": args.branches,
            "orders": {str(k): {"origin": origin, "order": k,
                                "diagrams": tp[k].diagrams()}
                       for k in range(args.order + 1)},
        }, args.output)


def _cmd_power_count(args) -> None:
    series = expand(args.max_order)
    reports = classify(args.dim, args.max_order, series=series)
    rows = [r.as_row() for r in reports]
    if args.format == "json":
        _emit({"dimension": args.dim, "rows": rows}, args.output)
    else:
        header = ["k", "N", "L", "sd", "codim", "rho", "verdict", "graphs"]
        widths = [max(len(h), *(len(str(r[h])) for r in rows)) for h in header]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
        for r in rows:
            lines.append("  ".join(str(r[h]).ljust(w)
                                   for h, w in zip(header, widths)))
        _emit("\n".join(lines), args.output)


# an overflow becomes a NaN that the checks fail on; numpy's warnings
# about it would only precede the error line on stderr
@np.errstate(over="ignore", invalid="ignore")
def _cmd_kernel_check(args) -> None:
    import random
    rng = random.Random(args.seed)
    report: dict = {"dimension": args.dim, "mass": args.mass, "seed": args.seed}
    if args.dim == 1:
        params = KernelParams(1, args.mass)
        trials = []
        for _ in range(args.trials):
            center = rng.uniform(-2 * args.mass, 2 * args.mass)
            radius = rng.uniform(0.1, args.mass)
            amp = rng.uniform(0.5, 2.0)
            f = TestFunction((center,), radius, amp)
            got = q_kernel_1d(params, f).real
            want = clipped_integral(params, f)
            # relative 1e-8 floored at the absolute quadrature tolerance
            excess = abs(got - want) / max(1e-8 * abs(want), 1e-10)
            trials.append({"center": center, "radius": radius,
                           "amplitude": amp, "tolerance_fraction": excess})
        # np.max, unlike max, carries a NaN through, and NaN <= 1 fails
        worst = float(np.max([t["tolerance_fraction"] for t in trials],
                             initial=0.0))
        report["identity"] = "q_kernel == clipped integral over [-m, m]"
        report["worst_tolerance_fraction"] = worst
        report["trials"] = trials
        ok = worst <= 1.0
    else:
        params = KernelParams(2, args.mass)
        f = TestFunction((0.3, -0.2), 0.4, 1.0)
        limit = polar_mass_limit(f, f.center)
        if args.mass > limit:  # refused before any quadrature
            raise UsageError(f"mass {args.mass:g} above {limit:.3g}, the "
                             f"largest the 2d polar rule resolves")
        res = greens_identity_residual(params, f, f.center)
        # probe at r << 1/m, where the massive kernel still goes like 1/r
        x0 = np.array([1.0, 0.7]) / max(1.0, args.mass)
        probe = scaling_degree_probe(lambda x: dirac_kernel_2d(params, x), x0)
        report["greens_identity_residual"] = res
        report["dirac_scaling_degree"] = {
            "estimate": probe.sd, "ci": [probe.ci_low, probe.ci_high],
            "conclusive": probe.conclusive,
        }
        ok = bool(res <= 1e-6 and abs(probe.sd - sd_propagator(2)) <= 0.1)
    report["pass"] = ok
    _emit(report, args.output)
    if not ok:
        raise NumericalError("kernel identity check failed")


def _cmd_gamma_check(args) -> None:
    exported = None
    if args.export_rep is not None:  # a bad dimension fails before the trials
        rep = clifford.build_gamma_rep(args.export_rep)
        exported = clifford.rep_to_json(rep)
        exported["clifford_defect"] = clifford.clifford_defect(rep)
    report = run_all(args.seed, trials=args.trials)
    if exported is not None:
        report["gamma_rep"] = exported
    _emit(report, args.output)
    if report["failures"]:
        raise InvariantError(
            f"{report['failures']} deformation property failures")


def _cmd_counterterms(args) -> None:
    series = expand(args.order)
    H = extract_counterterms(series, args.order)
    payload = {"orders": {}}
    for k, h in H.items():
        payload["orders"][str(k)] = {
            "even": h.is_even(),
            "operators": h.ops.diagrams(),
            "residual_zero": h.residual.is_zero(),
        }
    _emit(payload, args.output)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    # usage wrapped at 78 columns (argparse's width when stdout is not a
    # terminal) whatever COLUMNS says, so a usage error has fixed bytes
    parser = partial(argparse.ArgumentParser, formatter_class=partial(
        argparse.HelpFormatter, width=78))
    p = parser(
        prog="sthirring",
        description="Symbolic perturbation and power counting for the "
                    "stochastic Thirring model.")
    p.add_argument("--config", help="key = value defaults file")
    sub = p.add_subparsers(dest="command", required=True, parser_class=parser)

    def common(sp):
        sp.add_argument("--output", help="write to file instead of stdout")
        sp.add_argument("--seed", type=int, default=0)
        if config:
            # a config entry is a default only where an option has its
            # name; flags still override (3.10 subparsers reparse their
            # defaults, so parent-level set_defaults would be clobbered)
            dests = {a.dest for a in sp._actions}
            sp.set_defaults(**{k: v for k, v in config.items() if k in dests})
            # argparse checks `choices` only on flags, not on defaults, so
            # main checks the config values against them
            sp.set_defaults(config_choices=[
                (a.dest, a.choices) for a in sp._actions if a.choices])

    sp = sub.add_parser("expand", help="perturbative coefficients")
    sp.add_argument("--order", type=int)
    sp.add_argument("--branch", choices=("psi", "psibar"), default="psi")
    sp.add_argument("--format", choices=("tex", "json", "dot"), default="tex")
    common(sp)
    sp.set_defaults(fn=_cmd_expand)

    sp = sub.add_parser("expect", help="expectation value at a given order")
    sp.add_argument("--order", type=int)
    sp.add_argument("--branch", choices=("psi", "psibar"), default="psi")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    common(sp)
    sp.set_defaults(fn=_cmd_expect)

    sp = sub.add_parser("correlate", help="two-point function diagrams")
    sp.add_argument("--order", type=int)
    sp.add_argument("--branches", default="psi-psibar",
                    choices=("psi-psibar", "psibar-psi", "psi-psi",
                             "psibar-psibar"))
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    common(sp)
    sp.set_defaults(fn=_cmd_correlate)

    sp = sub.add_parser("power-count", help="divergence classification")
    sp.add_argument("--dim", type=int)
    sp.add_argument("--max-order", type=int)
    sp.add_argument("--format", choices=("table", "json"), default="table")
    common(sp)
    sp.set_defaults(fn=_cmd_power_count)

    sp = sub.add_parser("kernel-check", help="numerical kernel identities")
    sp.add_argument("--dim", type=int, choices=(1, 2))
    sp.add_argument("--mass", type=float, default=1.0)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--format", choices=("json",), default="json")
    common(sp)
    sp.set_defaults(fn=_cmd_kernel_check)

    sp = sub.add_parser("gamma-check", help="deformation-map property trials")
    sp.add_argument("--trials", type=int, default=25)
    sp.add_argument("--export-rep", type=int, metavar="D",
                    help="include the Cl(D) gamma matrices as [re, im] arrays")
    sp.add_argument("--format", choices=("json",), default="json")
    common(sp)
    sp.set_defaults(fn=_cmd_gamma_check)

    sp = sub.add_parser("counterterms", help="renormalized-equation operators")
    sp.add_argument("--order", type=int)
    sp.add_argument("--format", choices=("json",), default="json")
    common(sp)
    sp.set_defaults(fn=_cmd_counterterms)

    return p


_REQUIRED = {
    "expand": ("order",),
    "expect": ("order",),
    "correlate": ("order",),
    "counterterms": ("order",),
    "power-count": ("dim", "max_order"),
    "kernel-check": ("dim",),
    "gamma-check": (),
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        # config values stay strings: argparse applies each option's `type`
        # to a string default, as it does to a flag
        config = _read_config(known.config) if known.config else None
        parser = build_parser(config)
        args = parser.parse_args(argv)
        missing = [name for name in _REQUIRED[args.command]
                   if getattr(args, name, None) is None]
        if missing:
            flags = ", ".join("--" + m.replace("_", "-") for m in missing)
            raise UsageError(
                f"{args.command} requires {flags} (flag or config entry)")
        for dest, choices in getattr(args, "config_choices", ()):
            if getattr(args, dest) not in choices:
                raise UsageError(
                    f"config value {dest} = {getattr(args, dest)!r} is not "
                    f"one of {', '.join(map(str, choices))}")
        if getattr(args, "trials", 0) < 0:
            raise UsageError("--trials must be >= 0")
        _threads()
        args.fn(args)
    except Error as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
