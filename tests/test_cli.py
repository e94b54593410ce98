import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sthirring.cli import main
from sthirring.perturbation import expand

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


def test_kernel_check_runs_without_scipy():
    # scipy costs most of a command's start-up; only the tests use it
    script = """
import io, sys
from contextlib import redirect_stdout
from sthirring.cli import main
for argv in (["--dim", "1", "--seed", "7"], ["--dim", "2", "--mass", "1"],
             ["--dim", "2", "--mass", "0"]):
    with redirect_stdout(io.StringIO()):
        assert main(["kernel-check", *argv]) == 0, argv
print("scipy" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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


def test_manifest_covers_the_recorded_command_lines():
    from record_cli_manifest import ARGVS
    assert sorted(MANIFEST) == ARGVS
    # every symbolic command, and the usage errors (exit 2, stdout empty)
    commands = {argv.split()[0] for argv in ARGVS}
    assert commands == {"expand", "expect", "correlate", "counterterms",
                        "power-count", "gamma-check", "kernel-check"}
    empty = hashlib.sha256(b"").hexdigest()
    errors = [e for e in MANIFEST.values() if e["rc"] != 0]
    assert len(errors) == 12
    assert all(e["rc"] == 2 and e["stdout_sha256"] == empty for e in errors)
    # 10 that main reports in one line, 2 that argparse reports
    assert sum(e["stderr"].startswith("usage error: ") for e in errors) == 10
    assert sum(e["stderr"].startswith("usage: sthirring ") for e in errors) == 2


def test_benchmark_digests_agree_with_the_manifest():
    pinned = json.loads((Path(__file__).parent.parent / "perfbench" /
                         "digests.json").read_text())
    assert pinned
    for argv, digest in pinned.items():
        assert MANIFEST[argv] == {"rc": 0, "stderr": "",
                                  "stdout_sha256": digest}


def test_permutation_budget_overflow_is_a_usage_error(monkeypatch, capsys):
    """A canonical-form search past its budget is a resource limit (exit 2),
    not an invariant violation.  counterterms --order 2 has a diagram with
    four candidate layouts, so a budget of 3 trips the diagram search."""
    from sthirring import canonical, diagrams
    monkeypatch.setattr(canonical, "_PERM_BUDGET", 3)
    diagrams._layouts.cache_clear()  # memoized layouts skip the budget check
    try:
        rc, out = run_cli("counterterms", "--order", "2")
    finally:
        diagrams._layouts.cache_clear()
    assert rc == 2 and out == ""
    assert capsys.readouterr().err == \
        "usage error: canonicalization permutation budget exceeded\n"


def test_counterterms_deform_each_coefficient_once(monkeypatch):
    """Extraction and the residuals share one gamma_Q of each of F_0..F_3
    on the spinor branch and of F_0..F_2 on the cospinor branch (the
    pointwise cubic reads the cospinor coefficients below the top order
    only)."""
    from sthirring import deformation
    calls = []
    real = deformation.gamma_Q

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(deformation, "gamma_Q", counting)
    rc, out = run_cli("counterterms", "--order", "3")
    assert rc == 0 and json.loads(out)["orders"]["3"]["residual_zero"]
    assert len(calls) == 7


def test_counterterms_build_each_defect_once(monkeypatch):
    """One pointwise cubic per order: the residual of H_k is the defect H_k
    was read off, not a second build of it."""
    from sthirring import deformation
    calls = []
    real = deformation._pointwise_cubic

    def counting(gf_bar, gf, k):
        calls.append(k)
        return real(gf_bar, gf, k)

    monkeypatch.setattr(deformation, "_pointwise_cubic", counting)
    rc, out = run_cli("counterterms", "--order", "3")
    assert rc == 0 and json.loads(out)["orders"]["3"]["residual_zero"]
    assert calls == [1, 2, 3]


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
    from sthirring import cli
    calls = []
    monkeypatch.setattr(cli, "greens_identity_residual",
                        lambda *a: calls.append(a))
    rc, out = run_cli("kernel-check", "--dim", "2", "--mass", "1e5")
    assert (rc, out, calls) == (2, "", [])
    assert capsys.readouterr().err.startswith("usage error: mass 100000 ")


def test_kernel_check_d2_failure_reports_false(monkeypatch):
    import numpy as np
    from sthirring import cli
    monkeypatch.setattr(cli, "greens_identity_residual",
                        lambda params, f, x: np.float64(1.0))
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
