import hashlib
import json
import subprocess
import sys

import pytest

from sthirring.cli import main


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
    from sthirring.terms import term_from_json
    rc, out = run_cli("expand", "--order", "2", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert len(data["monomials"]) == 3
    for td in data["monomials"]:
        term_from_json(td)  # lossless decode


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


# sha256 of stdout of cheap runs of every symbolic command.  A change of
# canonical representative, of merge order or of formatting fails here, not
# only in the benchmark digests (perfbench/digests.json), which must be
# re-pinned together with these.
GOLDEN = {
    "expand --order 3 --format tex":
        "e2cb6790853043515b62a6df1d23c5982e5148a3e3721dc06c2cdcf9058ab724",
    "expand --order 3 --format json":
        "06e0b99dc125018a516e125232217b04e2e7149f56b8447d8ef93b4a0e23ec70",
    "expand --order 4 --format tex":
        "356d4f8c08d5de8e06fe655f361db1644ec0583dc693f9764145f20a8958730b",
    "expand --order 4 --format json":
        "47f98cf9bc85846b04334259056b645f18133d1afa14412fa246933433abfe10",
    "correlate --order 2 --format json":
        "c4a1fe2004d61bdaafb14a85329227871067376994e6ef0abbac7bc3ec60aed9",
    "correlate --order 2 --format dot":
        "7ad2f10af7cb24c52afc29f6249ba06d781f7f82388d501ed59c15b71aa10fd8",
    "counterterms --order 2":
        "4a9cb47c51ee2b3ebdf29f6e5fdc42b898e90a7e8ef31f30bb911dbbd1528248",
    "counterterms --order 3":
        "527846394fd6bddcf9c4f0893c7e8a70f9b660a2edbcdd144946eb7c9dcbec24",
    "gamma-check --seed 3 --trials 2 --export-rep 2":
        "20d8c6113bfb16ef670ef1e3a9daf38e8699ee3f872d72ad8a17b94a6ec4a296",
    "power-count --dim 2 --max-order 3":
        "481857edf786fb208c84848d69691e3f8c1183e4849e0ef5ee25553d0b9f062b",
    "expand --order 3 --format dot":
        "25b15a6ea24755c908b6ab52ac7f19f96deed1ca808054eb2237ee30d4a8bbb3",
    "expand --order 3 --branch psibar --format dot":
        "9878d3c2951c66b91b4923c4d5824c09c743879d5f14438e0e7fca717d8340d3",
    "expect --order 3":
        "5b3ea2bb5146c8786f77afd0c2a0feaddd0244031c632d23da7f9843e1fcd586",
    "expect --order 3 --format json":
        "8e87b52f982ceebeb9f735456ed25fd8ef7fbb85d99fbfae99514546fa04c1ac",
    "power-count --dim 2 --max-order 3 --format json":
        "b9b7a8b966c36351bccf27cc8d2313ba817e013c821035eb6bf6b56f09f9140f",
    "correlate --order 2 --branches psibar-psi":
        "b7533ac6fc52de2631dac74652a26edb760c418a9ad27d5a12f6bd6383f00d05",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden_output_bytes(argv):
    rc, out = run_cli(*argv.split())
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


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
    on both branches."""
    from sthirring import deformation
    calls = []
    real = deformation.gamma_Q

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(deformation, "gamma_Q", counting)
    rc, out = run_cli("counterterms", "--order", "3")
    assert rc == 0 and json.loads(out)["orders"]["3"]["residual_zero"]
    assert len(calls) == 8


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kernel_check_fails_closed_on_nan():
    """At this mass the propagators overflow to NaN; no check may pass on
    it, so the command exits 4 before it prints a report."""
    rc, out = run_cli("kernel-check", "--dim", "1", "--mass", "1e300",
                      "--trials", "2")
    assert (rc, out) == (4, "")


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
    assert capsys.readouterr().err.startswith(
        "usage error: cannot write output file ")


def test_non_utf8_config_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("order = 1  # résumé\n".encode("latin-1"))
    rc, out = run_cli("--config", str(cfg), "expect")
    assert (rc, out) == (2, "")
    assert capsys.readouterr().err.startswith("usage error: config file ")
