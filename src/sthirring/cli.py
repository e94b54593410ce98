"""Command-line front end.  It parses, runs and writes, and holds no
numerics: kernel-check's trials and verdict are `kernels.kernel_check`,
as gamma-check's are `properties.run_all`.

Subcommands: expand, expect, correlate, power-count, kernel-check,
gamma-check, counterterms; a run builds only its command's parser.  A
config file of `key = value` lines supplies defaults to the subcommands
with an option of that name; flags override them.  The same
configuration and seed give the same output bytes.  Exit codes: 0
success, else that of the `errors` class raised: 2 usage error (an
unreadable, non-UTF-8 or malformed config file, a config value its flag
would refuse, an unwritable output file, a bad STHIRRING_THREADS, a
--trials at kernel-check --dim 2, which runs one fixed bump, or a
resource limit: an order above the ceiling, a canonical-form search past
its budget, or a kernel-check mass past what the radial rule resolves),
3 invariant violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import cache, partial
from itertools import repeat
from json import JSONEncoder

from . import clifford
from .deformation import (
    expectation_report, extract_counterterms, pairing_diagram, two_point,
)
from .diagrams import DeformedSum, Diagram, diagram_json, to_dot
from .errors import Error, InvariantError, NumericalError, UsageError
from .kernels import kernel_check
from .perturbation import COSPINOR, SPINOR, check_structure, expand
from .power_counting import classify
from .properties import run_all
from .terms import Term, term_json, to_tex

# What the imports built (the interpreter's, numpy's and the package's
# objects) moves to the permanent generation: no later collection scans it,
# the ones at interpreter exit included.
gc.freeze()

THREADS_ENV = "STHIRRING_THREADS"

_BRANCH = {"psi": SPINOR, "psibar": COSPINOR}
# json's spelling of a scalar, or of a str key
_encode = JSONEncoder().encode
# Chunks the JSON writer holds before it writes them out.  A chunk is a
# scalar, a bracket, or a node or row of a Term or Diagram with the text
# before it, so one write of `expand --order 5` holds at most about 31 KB.
_BATCH = 256


def _stream_json(obj, write) -> None:
    """Write the text of json.dumps(obj, sort_keys=True, indent=1) through
    write, byte for byte, in batches of about _BATCH chunks.  A Term or a
    Diagram in obj is written as its export dict would be, straight from
    the object, by the emitter of the module that owns its grammar
    (`terms.term_json`, `diagrams.diagram_json`); any other object json
    cannot write is a TypeError.

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


def _key_json(k) -> str:
    """A dict key as json spells it: a str as it is, an int, float, bool
    or None as the string of its json value; any other key is a
    TypeError."""
    if isinstance(k, str):
        return _encode(k)
    if k is None or isinstance(k, (int, float)):
        return _encode(_encode(k))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _write_json(o, depth: int, out: list, write) -> None:
    """Append the chunks of o, a value nested `depth` containers deep, and
    pass out to write whenever a container has filled it past _BATCH.
    json spells every scalar, and raises json's TypeError for an object
    it cannot write.  A module-level function, so no closure cycle keeps
    `out` alive."""
    if isinstance(o, (list, tuple, dict)):
        if isinstance(o, dict):
            _, sep, comma, _, close = _pads(depth)
            items = ((_key_json(k) + ": ", v) for k, v in sorted(o.items()))
        else:
            sep, _, comma, close, _ = _pads(depth)
            items = zip(repeat(""), o)
        if not o:
            out.append(sep[0] + close[-1])  # "[]" or "{}"
            return
        for key, v in items:
            out.append(sep + key)
            _write_json(v, depth + 1, out, write)
            if len(out) > _BATCH:
                write("".join(out))
                out.clear()
            sep = comma
        out.append(close)
    elif isinstance(o, Term):
        term_json(o, depth, out)
    elif isinstance(o, Diagram):
        diagram_json(o, depth, out)
    else:
        out.append(_encode(o))


def _emit(result, path: str | None) -> None:
    """Write result, then a newline, to the file at path, or to stdout when
    there is no path.  A str result is text, written as it is; any other is
    a JSON payload, streamed by `_stream_json`.  Every payload is computed
    before this is called.  An OSError on opening the file or on any write
    to it or to stdout is a UsageError, and the output may then hold part
    of the result.  A reader of stdout that goes away (`| head`) ends the
    output quietly."""
    if not path:
        try:
            _write_result(result, sys.stdout.write)
            sys.stdout.flush()
        except OSError as exc:
            # the rest goes to devnull, so the flush at exit cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if not isinstance(exc, BrokenPipeError):
                raise UsageError(f"cannot write to stdout: {exc.strerror}")
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
        ds = DeformedSum(pairing_diagram(t) for t in terms)
        chunks = [to_dot(d, f"m{i}") for i, d in enumerate(ds.diagrams())]
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
            chunks += [to_dot(d, f"o{k}_{i}") for i, d in enumerate(tp[k].diagrams())]
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


def _cmd_kernel_check(args) -> None:
    if args.dim == 2 and args.trials is not None:  # one fixed bump at d = 2
        raise UsageError("--trials applies to kernel-check --dim 1 only "
                         "(flag or config entry)")
    trials = 20 if args.trials is None else args.trials
    report = kernel_check(args.dim, args.mass, trials, args.seed)
    _emit(report, args.output)
    if not report["pass"]:
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
            "even": h.even,
            "operators": h.ops.diagrams(),
            "residual_zero": h.residual.is_zero(),
        }
    _emit(payload, args.output)


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser(config: dict | None = None,
                 command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the command line, config entries as defaults.  A known
    `command` builds its subcommand alone under the same usage line, so an
    argv naming it parses as with all of them; any other builds them all."""
    # usage wrapped at 78 columns (argparse's width when stdout is not a
    # terminal) whatever COLUMNS says, so a usage error has fixed bytes
    parser = partial(argparse.ArgumentParser, formatter_class=partial(
        argparse.HelpFormatter, width=78))
    p = parser(
        prog="sthirring",
        description="Symbolic perturbation and power counting for the "
                    "stochastic Thirring model.")
    p.add_argument("--config", help="key = value defaults file")

    def opt(flag, **kwargs):
        return flag, kwargs

    def fmt(*choices):
        return opt("--format", choices=choices, default=choices[0])

    order = opt("--order", type=int)
    branch = opt("--branch", choices=("psi", "psibar"), default="psi")
    # name: help, handler, the options it cannot run without (`main` checks
    # them) and its own options, which --output and --seed follow
    commands = {
        "expand": ("perturbative coefficients", _cmd_expand, ("order",),
                   [order, branch, fmt("tex", "json", "dot")]),
        "expect": ("expectation value at a given order", _cmd_expect,
                   ("order",), [order, branch, fmt("text", "json")]),
        "correlate": ("two-point function diagrams", _cmd_correlate,
                      ("order",), [order, opt("--branches", choices=(
                          "psi-psibar", "psibar-psi", "psi-psi",
                          "psibar-psibar"), default="psi-psibar"),
                          fmt("json", "dot")]),
        "power-count": ("divergence classification", _cmd_power_count,
                        ("dim", "max_order"), [opt("--dim", type=int), opt(
                            "--max-order", type=int), fmt("table", "json")]),
        "kernel-check": ("numerical kernel identities", _cmd_kernel_check,
                         ("dim",), [opt("--dim", type=int, choices=(1, 2)),
                                    opt("--mass", type=float, default=1.0),
                                    opt("--trials", type=int), fmt("json")]),
        "gamma-check": ("deformation-map property trials", _cmd_gamma_check,
                        (), [opt("--trials", type=int, default=25), opt(
                            "--export-rep", type=int, metavar="D", help=(
                                "include the Cl(D) gamma matrices as "
                                "[re, im] arrays")), fmt("json")]),
        "counterterms": ("renormalized-equation operators", _cmd_counterterms,
                         ("order",), [order, fmt("json")]),
    }
    common = [opt("--output", help="write to file instead of stdout"),
              opt("--seed", type=int, default=0)]
    # one built subcommand still lists every name in the usage line; the
    # full build keeps the dest, `command`, as the name its errors give
    one = command in commands
    sub = p.add_subparsers(
        dest="command", required=True, parser_class=parser,
        metavar="{%s}" % ",".join(commands) if one else None)
    for name in [command] if one else commands:
        help_, fn, required, options = commands[name]
        sp = sub.add_parser(name, help=help_)
        for flag, kwargs in options + common:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(fn=fn, required=required)
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
    return p


def main(argv=None) -> int:
    """Run the command argv names and return its exit code.  The parse and
    the command run with the cyclic collector off: the engine makes no
    reference cycles (the tests check that), so a collection would find
    nothing but argparse's parsers.  The caller's collector state is put
    back on the way out, on an error and on argparse's SystemExit too."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config")
        known, rest = pre.parse_known_args(argv)
        # config values stay strings: argparse applies each option's `type`
        # to a string default, as it does to a flag
        config = _read_config(known.config) if known.config else None
        # the first token --config leaves names the command, if it is one
        args = build_parser(config, rest[0] if rest else None).parse_args(argv)
        missing = [name for name in args.required
                   if getattr(args, name) is None]
        if missing:
            flags = ", ".join("--" + m.replace("_", "-") for m in missing)
            raise UsageError(
                f"{args.command} requires {flags} (flag or config entry)")
        for dest, choices in getattr(args, "config_choices", ()):
            if getattr(args, dest) not in choices:
                raise UsageError(
                    f"config value {dest} = {getattr(args, dest)!r} is not "
                    f"one of {', '.join(map(str, choices))}")
        if (getattr(args, "trials", None) or 0) < 0:
            raise UsageError("--trials must be >= 0")
        _threads()
        args.fn(args)
    except Error as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
