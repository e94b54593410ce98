import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sthirring import cli
from sthirring.cli import build_parser, main
from sthirring.diagrams import graph_counts
from sthirring.perturbation import expand
from sthirring.properties import run_all
from sthirring.terms import grading

from helpers import run_argv, term_from_json


def run_cli(*argv):
    """Invoke the entry point in-process, capturing stdout."""
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def test_expand_tex_lists_f2_monomials():
    rc, out = run_cli("expand", "--order", "2", "--format", "tex")
    assert rc == 0
    assert "3 monomials" in out
    assert out.count(r"\circledast") >= 6  # two propagators per monomial


def test_expand_json_roundtrips():
    rc, out = run_cli("expand", "--order", "4", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert len(data["monomials"]) == 55
    # lossless: the decoded terms are the coefficient's, node for node, in order
    assert [term_from_json(td) for td in data["monomials"]] == \
        expand(4).coefficient(4).terms()


def test_expect_prints_zero():
    rc, out = run_cli("expect", "--order", "3")
    assert rc == 0
    assert out.startswith("0")
    assert "876" in out  # 12 monomials x 73 patterns each


def test_power_count_table_d2():
    rc, out = run_cli("power-count", "--dim", "2", "--max-order", "5",
                      "--format", "table")
    assert rc == 0
    rhos = [line.split()[5] for line in out.strip().splitlines()[1:]]
    assert rhos == ["1", "0", "-1", "-2", "-3", "-4"]


def test_correlate_json():
    rc, out = run_cli("correlate", "--order", "1", "--branches", "psi-psibar",
                      "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert len(data["orders"]["0"]["diagrams"]) == 1
    assert len(data["orders"]["1"]["diagrams"]) == 2
    tags = sorted(t[0] for d in data["orders"]["1"]["diagrams"]
                  for t in d["counterterm_tags"])
    assert tags == ["C", "Ctilde"]


def test_correlate_same_species_empty():
    rc, out = run_cli("correlate", "--order", "0", "--branches", "psi-psi",
                      "--format", "json")
    assert rc == 0
    assert json.loads(out)["orders"]["0"]["diagrams"] == []


def test_gamma_check_reports_zero_failures():
    rc, out = run_cli("gamma-check", "--seed", "3", "--trials", "4")
    assert rc == 0
    assert json.loads(out)["failures"] == 0


def test_kernel_check_d1():
    rc, out = run_cli("kernel-check", "--dim", "1", "--mass", "1.0",
                      "--trials", "5", "--seed", "9")
    assert rc == 0
    rep = json.loads(out)
    assert rep["pass"] and rep["worst_tolerance_fraction"] <= 1.0


def test_kernel_check_d1_at_mass_2_seed_8():
    # one of these bumps is where an oracle stopping at its default
    # accuracy fails the check's 1e-8 relative acceptance (exit 4)
    rc, out = run_cli("kernel-check", "--dim", "1", "--mass", "2.0",
                      "--trials", "20", "--seed", "8")
    assert rc == 0
    assert json.loads(out)["pass"] is True


def _loaded_after_kernel_checks(module, argvs):
    """Whether `module` is in sys.modules after `import sthirring.cli` and
    the `kernel-check` runs of argvs, in a fresh interpreter."""
    script = f"""
import io, sys
from contextlib import redirect_stdout
from sthirring.cli import main
for argv in {argvs!r}:
    with redirect_stdout(io.StringIO()):
        assert main(["kernel-check", *argv]) == 0, argv
print({module!r} in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout in ("True\n", "False\n"), proc.stdout
    return proc.stdout == "True\n"


def test_kernel_check_runs_without_scipy():
    # scipy costs most of a command's start-up; only the tests use it
    assert not _loaded_after_kernel_checks("scipy", [
        ["--dim", "1", "--seed", "7"], ["--dim", "2", "--mass", "1"],
        ["--dim", "2", "--mass", "0"]])


def test_kernel_check_runs_without_numpy_polynomial():
    # the Gauss-Legendre rules are built by Newton's method, not by
    # numpy.polynomial's eigenvalue solver; these are the benchmark's jobs
    assert not _loaded_after_kernel_checks("numpy.polynomial", [
        ["--dim", "1", "--mass", "1.0", "--trials", "20", "--seed", "3"],
        ["--dim", "2", "--mass", "1.0"], ["--dim", "2", "--mass", "0.0"]])


def test_counterterms_order_2():
    rc, out = run_cli("counterterms", "--order", "2")
    assert rc == 0
    rep = json.loads(out)
    assert rep["orders"]["1"]["residual_zero"]
    assert rep["orders"]["2"]["residual_zero"]
    assert len(rep["orders"]["1"]["operators"]) == 1


def test_byte_identical_reruns():
    a = run_cli("correlate", "--order", "1", "--format", "json")
    b = run_cli("correlate", "--order", "1", "--format", "json")
    assert a == b
    a = run_cli("gamma-check", "--seed", "11", "--trials", "3")
    b = run_cli("gamma-check", "--seed", "11", "--trials", "3")
    assert a == b


def test_output_file(tmp_path):
    path = tmp_path / "out.json"
    rc, out = run_cli("expect", "--order", "1", "--format", "json",
                      "--output", str(path))
    assert rc == 0 and out == ""
    assert json.loads(path.read_text())["value"] == "0"


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("order = 2\nformat = json\n")
    rc, out = run_cli("--config", str(cfg), "expect")
    assert rc == 0
    assert json.loads(out)["order"] == 2
    rc, out = run_cli("--config", str(cfg), "expect", "--order", "1")
    assert json.loads(out)["order"] == 1


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "sthirring.cli", "expand", "--order", "x"],
        capture_output=True)
    assert proc.returncode == 2
    proc = subprocess.run(
        [sys.executable, "-m", "sthirring.cli", "no-such-command"],
        capture_output=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", ["expand --order 2 --format xml",
                                  "correlate --order 1 --branches psi-chi"])
def test_argparse_usage_errors_do_not_depend_on_columns(argv):
    """argparse wraps its usage block at a fixed width, so the stderr of a
    bad choice is the same under any COLUMNS and is the manifest's."""
    errs = []
    for columns in ("40", "200"):
        env = dict(os.environ, COLUMNS=columns)
        proc = subprocess.run([sys.executable, "-m", "sthirring.cli",
                               *argv.split()],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (2, "")
        errs.append(proc.stderr)
    assert errs[0] == errs[1] == MANIFEST[argv]["stderr"]
    assert "invalid choice" in errs[0]


def test_dot_output_loadable_shape():
    rc, out = run_cli("correlate", "--order", "0", "--format", "dot")
    assert rc == 0
    assert out.lstrip().startswith("digraph")
    assert out.count("->") >= 2


def test_threads_env_validation(monkeypatch):
    for value in ("zero", "0", "-1"):  # a usage error, not an invariant
        monkeypatch.setenv("STHIRRING_THREADS", value)
        rc, _ = run_cli("expect", "--order", "0")
        assert rc == 2, value
    monkeypatch.setenv("STHIRRING_THREADS", "2")
    rc, _ = run_cli("expect", "--order", "0")
    assert rc == 0


def test_gamma_check_export_rep():
    rc, out = run_cli("gamma-check", "--seed", "1", "--trials", "2",
                      "--export-rep", "3")
    assert rc == 0
    rep = json.loads(out)["gamma_rep"]
    assert rep["dim_spinor"] == 2 and len(rep["gammas"]) == 3
    assert rep["clifford_defect"] == 0.0


def test_domain_errors_exit_usage():
    assert run_cli("power-count", "--dim", "0", "--max-order", "2")[0] == 2
    assert run_cli("expand", "--order", "9")[0] == 2
    assert run_cli("kernel-check", "--dim", "1", "--mass", "-1.0")[0] == 2
    # the d = 1 closed forms need m > 0, whatever the number of trials
    assert run_cli("kernel-check", "--dim", "1", "--mass", "0",
                   "--trials", "0") == (2, "")


def test_expand_dot_at_order_zero():
    rc, out = run_cli("expand", "--order", "0", "--format", "dot")
    assert rc == 0 and out.lstrip().startswith("digraph")


def test_export_rep_zero_is_a_usage_error():
    assert run_cli("gamma-check", "--trials", "1", "--export-rep", "0")[0] == 2


def test_missing_config_file_is_a_usage_error(tmp_path):
    assert run_cli("--config", str(tmp_path / "absent.cfg"),
                   "expect", "--order", "1")[0] == 2


def test_malformed_config_line_is_a_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("order = 1\nno equals sign here\n")
    assert run_cli("--config", str(cfg), "expect")[0] == 2


@pytest.mark.parametrize("line, argv", [
    ("format = xml", ("expand", "--order", "0")),
    ("dim = 3", ("kernel-check",)),
    ("order = 1.5", ("expect",)),
])
def test_config_values_are_checked_like_flags(tmp_path, line, argv):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    try:
        rc, out = run_cli("--config", str(cfg), *argv)
    except SystemExit as exc:  # argparse's own usage error
        rc, out = exc.code, ""
    assert (rc, out) == (2, "")


def test_flag_overrides_a_bad_config_value(tmp_path):
    cfg = tmp_path / "xml.cfg"
    cfg.write_text("format = xml\n")
    rc, out = run_cli("--config", str(cfg), "expand", "--order", "0",
                      "--format", "json")
    assert rc == 0 and json.loads(out)["order"] == 0


def test_negative_trials_is_a_usage_error():
    rc, out = run_cli("gamma-check", "--trials", "-2")
    assert rc == 2 and out == ""
    assert run_cli("kernel-check", "--dim", "1", "--trials", "-1")[0] == 2


# The digest manifest: for each command line, the sha256 of its stdout,
# its stderr and its exit code.  A change of canonical representative, of
# merge order or of formatting fails here; re-record the manifest with
# tests/record_cli_manifest.py only for a change that is meant, and
# re-pin the benchmark digests (perfbench/digests.json) with it.
MANIFEST = json.loads((Path(__file__).parent / "cli_manifest.json").read_text())


@pytest.mark.parametrize("argv", sorted(MANIFEST))
def test_golden_output_bytes(argv):
    rc, out, err = run_argv(argv)
    assert (rc, err) == (MANIFEST[argv]["rc"], MANIFEST[argv]["stderr"])
    assert hashlib.sha256(out.encode()).hexdigest() == \
        MANIFEST[argv]["stdout_sha256"]


def test_no_output_reads_the_order_a_sum_is_held_in(monkeypatch):
    """Sums iterate in the order they hold their entries, which is not a
    key order; only the writers list them by key.  So every manifest
    command line gives the same bytes with each sum iterated backwards."""
    from sthirring.canonical import KeyedSum
    monkeypatch.setattr(KeyedSum, "__iter__",
                        lambda self: reversed(self._data.values()))
    moved = []
    for argv in sorted(MANIFEST):
        rc, out, err = run_argv(argv)
        digest = hashlib.sha256(out.encode()).hexdigest()
        if {"rc": rc, "stderr": err, "stdout_sha256": digest} != MANIFEST[argv]:
            moved.append(argv)
    assert moved == []


def test_manifest_covers_the_recorded_command_lines():
    from record_cli_manifest import ARGVS
    assert sorted(MANIFEST) == ARGVS
    # every symbolic command, an unknown one, top-level help, and the usage
    # errors (exit 2, stdout empty)
    commands = {argv.split()[0] for argv in ARGVS}
    assert commands == {"expand", "expect", "correlate", "counterterms",
                        "power-count", "gamma-check", "kernel-check",
                        "bogus", "-h"}
    empty = hashlib.sha256(b"").hexdigest()
    errors = [e for e in MANIFEST.values() if e["rc"] != 0]
    assert len(errors) == 15
    assert all(e["rc"] == 2 and e["stdout_sha256"] == empty for e in errors)
    # 11 that main reports in one line, 4 that argparse reports
    assert sum(e["stderr"].startswith("usage error: ") for e in errors) == 11
    assert sum(e["stderr"].startswith("usage: sthirring ") for e in errors) == 4


def test_benchmark_digests_agree_with_the_manifest():
    pinned = json.loads((Path(__file__).parent.parent / "perfbench" /
                         "digests.json").read_text())
    assert pinned
    for argv, digest in pinned.items():
        assert MANIFEST[argv] == {"rc": 0, "stderr": "",
                                  "stdout_sha256": digest}


# argv through every branch of main's choice of parser: help at both
# levels, no command, an unknown or abbreviated command, an option before
# the command, --config before and after it, abbreviated options, "--",
# and arguments that the command does not take
_PARSER_ARGVS = [
    "", "-h", "--help", "expand -h", "kernel-check --dim 2 --help",
    "bogus --order 1", "exp --order 1", "expand expect --order 1",
    "--seed 3 expand --order 1", "-1 expand --order 1",
    "--config {cfg} expand", "--config={cfg} expect --format text",
    "--conf {cfg} correlate", "expand --config {cfg}",
    "expand --order 1 --config {cfg} --format tex", "--config",
    "--config {cfg}", "--config {cfg} -h", "expand --ord 1 --form json",
    "power-count --dim 2 --max 2", "gamma-check --export 2 --trials 0",
    "-- expand --order 1", "--config {cfg} -- expand", "expand -- --order 1",
    "expand --order 1 --", "expand --order 2 extra", "expand --order",
    "kernel-check --dim 3", "counterterms --order x",
]


def _echo(args):
    """A handler that writes the parsed arguments instead of running."""
    print(sorted((k, repr(v)) for k, v in vars(args).items() if k != "fn"))


@pytest.mark.parametrize("argv", sorted(MANIFEST) + _PARSER_ARGVS)
def test_one_subcommand_parser_parses_as_every_subcommand(argv, tmp_path,
                                                         monkeypatch):
    """main builds the parser of the command that argv names and no other;
    that gives the same stdout, stderr and exit code as every subcommand
    built.  Each handler writes its arguments, so a parse that differs
    writes different bytes."""
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("order = 1\nformat = json\n")
    argv = argv.replace("{cfg}", str(cfg))
    for name in dir(cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, _echo)
    one = run_argv(argv)
    monkeypatch.setattr(cli, "build_parser",
                        lambda config, command=None: build_parser(config))
    assert run_argv(argv) == one


def test_main_builds_only_the_parser_of_its_command(monkeypatch, capsys):
    """A known command costs 3 parsers: the --config pre-parser, the top
    level and that command's.  With every subcommand built it was 9."""
    import argparse
    made = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["expand", "--order", "0"]) == 0
    assert made == [None, "sthirring", "sthirring expand"]
    made.clear()
    with pytest.raises(SystemExit):  # an unknown command builds them all
        main(["bogus"])
    assert len(made) == 9


def test_deep_checks_have_one_digest_each():
    """tests/deep_checks.py, the order-5 checks that take minutes, reads
    tests/deep_manifest.json; this runs none of them."""
    from deep_checks import CHECKS, MANIFEST as DEEP
    assert sorted(CHECKS) == sorted(json.loads(DEEP.read_text()))


@pytest.mark.parametrize("argv, flags", [
    ("expand", "--order"),
    ("expect", "--order"),
    ("correlate", "--order"),
    ("counterterms", "--order"),
    ("power-count", "--dim, --max-order"),
    ("power-count --dim 2", "--max-order"),
    ("kernel-check", "--dim"),
    ("gamma-check --trials 0", None),  # needs no flag
])
def test_each_subcommand_names_its_missing_options(argv, flags):
    """A missing required option is a usage error that lists every such
    option of the subcommand, in the order its parser declares them."""
    rc, out, err = run_argv(argv)
    if flags is None:
        assert (rc, err) == (0, "")
        return
    command = argv.split()[0]
    assert (rc, out) == (2, "")
    assert err == (f"usage error: {command} requires {flags} "
                   f"(flag or config entry)\n")


# the help entries exit 0 too, from inside the parse
_JSON_ARGVS = [argv for argv in sorted(MANIFEST) if MANIFEST[argv]["rc"] == 0
               and "-h" not in argv.split()
               and build_parser().parse_args(argv.split()).format == "json"]


@pytest.mark.parametrize("argv", _JSON_ARGVS + [
    "kernel-check --dim 1 --trials 5 --seed 7",
    "kernel-check --dim 2 --mass 0.0",
])
def test_json_output_is_its_own_json_dumps(argv):
    """Each JSON output, the kernel-checks' numpy floats among them, reads
    back to a value that json.dumps writes as the same bytes."""
    rc, out, err = run_argv(argv)
    assert (rc, err) == (0, "")
    assert json.dumps(json.loads(out), sort_keys=True, indent=1) + "\n" == out


def test_permutation_budget_overflow_is_a_usage_error(monkeypatch, capsys):
    """A canonical-form search past its budget is a resource limit (exit 2),
    not an invariant violation.  counterterms --order 2 has a diagram with
    four candidate layouts, so a budget of 3 trips the diagram search, with
    the layout memo cold and after an unbudgeted run has warmed it: the
    diagram-level total is checked on every call, memoized or not."""
    from sthirring import canonical, diagrams
    try:
        for warm in (False, True):
            diagrams._layouts.cache_clear()
            if warm:
                assert run_cli("counterterms", "--order", "2")[0] == 0
            misses = diagrams._layouts.cache_info().misses
            with monkeypatch.context() as m:
                m.setattr(canonical, "_PERM_BUDGET", 3)
                rc, out = run_cli("counterterms", "--order", "2")
            assert rc == 2 and out == ""
            assert capsys.readouterr().err == \
                "usage error: canonicalization permutation budget exceeded\n"
            # warm, every layout of the run comes from the memo
            assert warm == (diagrams._layouts.cache_info().misses == misses)
    finally:
        diagrams._layouts.cache_clear()


def test_counterterms_deform_each_coefficient_once(monkeypatch):
    """Extraction and the residuals share one gamma_Q of each of F_0..F_3
    on the spinor branch, and deform no cospinor coefficient: each defect
    is the part of Gamma_Q(F_k) with a pair across two factors, and no
    pointwise cubic is built."""
    from sthirring import deformation
    calls = []
    real = deformation.gamma_Q

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(deformation, "gamma_Q", counting)
    rc, out = run_cli("counterterms", "--order", "3")
    assert rc == 0 and json.loads(out)["orders"]["3"]["residual_zero"]
    assert len(calls) == 4
    assert all(g.r == g.r_bar + 1 for s in calls for g in map(grading, s))


def test_counterterms_build_each_defect_once(monkeypatch):
    """One defect per order, each H_k read off it once: the residual of
    H_k is the defect H_k was read off, not a second build of it.  The
    order of a defect is the number of vertices of each of its diagrams."""
    from sthirring import deformation
    calls = []
    real = deformation._strip_and_mark

    def counting(defect):
        calls.append({graph_counts(d)["vertices"] for d in defect})
        return real(defect)

    monkeypatch.setattr(deformation, "_strip_and_mark", counting)
    rc, out = run_cli("counterterms", "--order", "3")
    assert rc == 0 and json.loads(out)["orders"]["3"]["residual_zero"]
    assert calls == [{1}, {2}, {3}]


def test_kernel_check_fails_closed_on_nan():
    """At this mass the propagators overflow to NaN; no check may pass on
    it, so the command exits 4 before it prints a report, and the error is
    the one line on stderr (no numpy warnings ahead of it)."""
    proc = subprocess.run(
        [sys.executable, "-m", "sthirring.cli", "kernel-check", "--dim", "1",
         "--mass", "1e300", "--trials", "2"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith("numerical failure: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("mass", ["30", "1000"])
def test_kernel_check_d2_passes_at_large_mass(mass):
    """The scaling probe samples r well inside 1/m, where the massive Dirac
    kernel still goes like 1/r."""
    rc, out = run_cli("kernel-check", "--dim", "2", "--mass", mass)
    rep = json.loads(out)
    assert rc == 0 and rep["pass"] is True
    assert rep["dirac_scaling_degree"]["conclusive"]


def test_kernel_check_d2_passes_at_mass_3e4():
    rc, out = run_cli("kernel-check", "--dim", "2", "--mass", "3e4")
    assert rc == 0 and json.loads(out)["pass"] is True


def test_kernel_check_d2_refuses_unresolvable_mass_before_work(monkeypatch,
                                                              capsys):
    """Past the polar rule's resolution the command is a usage error, and
    no quadrature runs first."""
    from sthirring import kernels
    calls = []
    monkeypatch.setattr(kernels, "greens_identity_residual",
                        lambda *a: calls.append(a))
    rc, out = run_cli("kernel-check", "--dim", "2", "--mass", "1e5")
    assert (rc, out, calls) == (2, "", [])
    assert capsys.readouterr().err.startswith("usage error: mass 100000 ")


def test_kernel_check_d2_refuses_trials_from_a_config_entry(tmp_path,
                                                          capsys):
    """The d = 2 check runs one fixed bump, so a --trials from a config
    entry is refused as the flag is; at d = 1 it sets the trials."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 3\n")
    assert run_cli("--config", str(cfg), "kernel-check", "--dim", "2") == \
        (2, "")
    assert capsys.readouterr().err == ("usage error: --trials applies to "
                                       "kernel-check --dim 1 only (flag or "
                                       "config entry)\n")
    rc, out = run_cli("--config", str(cfg), "kernel-check", "--dim", "1")
    assert rc == 0 and len(json.loads(out)["trials"]) == 3
    rc, out = run_cli("kernel-check", "--dim", "1")
    assert rc == 0 and len(json.loads(out)["trials"]) == 20


def test_kernel_check_d2_failure_reports_false(monkeypatch):
    import numpy as np
    from sthirring import kernels
    monkeypatch.setattr(kernels, "greens_identity_residual",
                        lambda params, f: np.float64(1.0))
    rc, out = run_cli("kernel-check", "--dim", "2")
    assert rc == 4
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize("mass", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("dim", ["1", "2"])
def test_non_finite_mass_is_a_usage_error(capsys, dim, mass):
    rc, out = run_cli("kernel-check", "--dim", dim, f"--mass={mass}")
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == \
        "usage error: mass must be finite and nonnegative\n"


@pytest.mark.parametrize("argv", [
    ("expand", "--order", "1"),
    ("expect", "--order", "1"),
    ("correlate", "--order", "1"),
    ("power-count", "--dim", "2", "--max-order", "1"),
    ("counterterms", "--order", "1"),
])
def test_config_entry_reaches_only_subcommands_with_that_option(tmp_path,
                                                                argv):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 5\n")
    plain = run_cli(*argv)
    assert plain[0] == 0
    assert run_cli("--config", str(cfg), *argv) == plain


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "no-such-dir" / "out.json"
    rc, out = run_cli("expect", "--order", "1", "--output", str(path))
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == (f"usage error: cannot write output "
                                       f"file {str(path)!r}: No such file "
                                       f"or directory\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["json", "tex"])
def test_failed_write_is_a_usage_error(capsys, fmt):
    """The file opens, and its writes fail (ENOSPC): exit 2, one line."""
    rc, out = run_cli("expand", "--order", "4", "--format", fmt,
                      "--output", "/dev/full")
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err == ("usage error: cannot write output "
                                       "file '/dev/full': No space left on "
                                       "device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("fmt", ["json", "tex"])
def test_failed_write_to_stdout_is_a_usage_error(fmt):
    """stdout is /dev/full: exit 2 and the one-line error, no traceback."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "sthirring.cli", "expand", "--order", "2",
             "--format", fmt],
            stdout=full, stderr=subprocess.PIPE, text=True)
    assert (proc.returncode, proc.stderr) == (
        2, "usage error: cannot write to stdout: No space left on device\n")


@pytest.mark.parametrize("read", [0, 10])
def test_closed_stdout_ends_the_output_quietly(read):
    """A reader that leaves before the first byte, or after a few (as
    `| head` does) of a 154 KB output: exit 0 and nothing on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "sthirring.cli", "expand", "--order", "4",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.read(read)
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_non_utf8_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("order = 1  # résumé\n".encode("latin-1"))
    rc, out = run_cli("--config", str(cfg), "expect")
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err.startswith("usage error: config file ")


# The benchmark's command lines, at seed 3: `main` runs each of them, and
# any other, with the cyclic collector off.
_BENCH_ARGVS = [" ".join(argv).replace("{seed}", "3")
                for jobs in json.loads((Path(__file__).parent.parent /
                                        "perfbench" / "spec.json").read_text()
                                       )["workloads"].values()
                for argv in jobs]


def _failing_trials(seed, trials):
    """run_all's report with one failure more, so gamma-check exits 3."""
    report = run_all(seed, trials=trials)
    report["failures"] += 1
    return report


def _cyclic_garbage(argv):
    """(exit code, objects the cyclic collector finds) after main(argv),
    run with the collector off."""
    gc.collect()
    gc.disable()
    try:
        rc = run_argv(argv)[0]
        return rc, gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("argv, rc", [(a, 0) for a in _BENCH_ARGVS] + [
    ("expand --order 3 --format json --output {tmp}/missing/out.json", 2),
    ("gamma-check --seed 3 --trials 4", 3),
    ("kernel-check --dim 1 --mass 1e300 --trials 2", 4),
])
def test_commands_leave_no_reference_cycles(argv, rc, tmp_path, monkeypatch):
    """A command leaves the collector no more to find than its parse does
    (argparse's parsers hold cycles): `main` runs it with the collector
    off, so a cycle it made would live until the caller's next collection,
    and in the command-line program until exit."""
    assert len(_BENCH_ARGVS) == 8
    argv = argv.format(tmp=tmp_path)
    if rc == 3:
        monkeypatch.setattr(cli, "run_all", _failing_trials)
    got = _cyclic_garbage(argv)
    for name in dir(cli):
        if name.startswith("_cmd_"):
            monkeypatch.setattr(cli, name, lambda args: None)
    parse_only = _cyclic_garbage(argv)
    assert got[0] == rc
    assert got[1] <= parse_only[1]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, rc", [
    ("expect --order 1", 0),
    ("expect --order 7", 2),  # an Error, reported by main
    ("expect --order 2 --format xml", 2),  # argparse's SystemExit
])
def test_main_restores_the_collector_state(argv, rc, enabled, monkeypatch):
    frozen = gc.get_freeze_count()
    seen = []
    monkeypatch.setattr(
        cli, "expand", lambda k: seen.append(gc.isenabled()) or expand(k))
    (gc.enable if enabled else gc.disable)()
    try:
        assert run_argv(argv)[0] == rc
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert gc.get_freeze_count() == frozen
    # the command itself ran with the collector off
    assert seen == ([] if "xml" in argv else [False])
