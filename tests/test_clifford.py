import numpy as np
import pytest

from sthirring.clifford import (
    build_gamma_rep, clifford_defect, contract_index,
    rep_to_json, spinor_dimension, verify_clifford,
)
from sthirring.errors import UsageError


def test_d1_forced_generator():
    rep = build_gamma_rep(1)
    assert rep.dim_spinor == 1
    assert rep.gammas[0][0, 0] == 1.0 + 0.0j


def test_spinor_dimension_doubling():
    for k in range(1, 5):
        assert spinor_dimension(2 * k) == spinor_dimension(2 * k + 1) == 2 ** k


@pytest.mark.parametrize("d", range(1, 9))
def test_anticommutators(d):
    rep = build_gamma_rep(d)
    assert rep.dim_spinor == 2 ** (d // 2)
    assert verify_clifford(rep, 1e-12)


@pytest.mark.parametrize("d", range(1, 9))
def test_contract_index_gives_d_times_identity(d):
    rep = build_gamma_rep(d)
    got = contract_index(rep)
    assert np.max(np.abs(got - d * rep.identity)) <= 1e-12


def test_d4_brute_force_pairs():
    rep = build_gamma_rep(4)
    for i in range(4):
        for j in range(4):
            ac = rep.gammas[i] @ rep.gammas[j] + rep.gammas[j] @ rep.gammas[i]
            target = 2 * rep.identity if i == j else 0 * rep.identity
            assert np.array_equal(ac, target)


def test_invertibility():
    for d in range(1, 7):
        for g in build_gamma_rep(d).gammas:
            assert abs(np.linalg.det(g)) > 0.5


def test_deterministic_construction():
    a, b = build_gamma_rep(5), build_gamma_rep(5)
    for ga, gb in zip(a.gammas, b.gammas):
        assert np.array_equal(ga, gb)


def test_broken_rep_fails_verification():
    rep = build_gamma_rep(2)
    broken = type(rep)(2, 2, (np.zeros((2, 2), dtype=complex), rep.gammas[1]),
                       rep.identity)
    assert not verify_clifford(broken, 1e-12)
    assert clifford_defect(broken) >= 2.0


def test_dimension_domain_errors():
    with pytest.raises(UsageError):
        build_gamma_rep(0)
    with pytest.raises(UsageError):
        build_gamma_rep(13)


def test_json_export_shape():
    rep = build_gamma_rep(3)
    data = rep_to_json(rep)
    assert data["dim_spinor"] == 2
    assert len(data["gammas"]) == 3
    assert data["gammas"][0][0][1] == [1.0, 0.0]  # sigma1 entry
