"""The CLI's one-pass JSON writer against json.dumps(sort_keys, indent=1)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sthirring import cli
from sthirring.cli import _dumps, main


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


def _assert_same(obj):
    """Equal bytes, or a TypeError from both."""
    try:
        want = _reference(obj)
    except TypeError:
        with pytest.raises(TypeError):
            _dumps(obj)
        return
    assert _dumps(obj) == want


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                     1e-310, 1e300, 0.1]),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
_strings = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é\U0001f600ab'),
)
_scalars = st.one_of(
    st.none(), st.booleans(), _floats, _strings,
    st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
)
_keys = st.one_of(_strings, st.integers(), st.floats(), st.booleans(),
                  st.none())
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_strings, inner, max_size=4),
        st.dictionaries(_keys, inner, max_size=3),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(_values)
def test_writer_matches_json_dumps(obj):
    _assert_same(obj)


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}}, [[]], {"b": [], "a": [{}]},
    {2: "x", 2.5: "y", -3: "z", True: "t", False: "f"}, {None: "z"},
    {"nan": float("nan"), "inf": [float("inf"), -float("inf"), -0.0]},
    [np.float64(0.1), np.float64("nan"), 10 ** 40, -(10 ** 40)],
])
def test_writer_edge_cases(obj):
    assert _dumps(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [
    {1, 2}, [np.int64(3)], {"a": {(1, 2): 0}}, {"k": object()},
    {1: 0, "a": 1},  # keys that cannot be sorted together
])
def test_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        _reference(obj)
    with pytest.raises(TypeError):
        _dumps(obj)


SUBCOMMANDS = [
    ("expand", "--order", "3", "--format", "json"),
    ("expand", "--order", "2", "--branch", "psibar", "--format", "json"),
    ("expect", "--order", "2", "--format", "json"),
    ("correlate", "--order", "2", "--format", "json"),
    ("power-count", "--dim", "2", "--max-order", "3", "--format", "json"),
    ("kernel-check", "--dim", "1", "--trials", "3", "--seed", "5"),
    ("kernel-check", "--dim", "2", "--mass", "1.0"),
    ("gamma-check", "--seed", "3", "--trials", "2", "--export-rep", "3"),
    ("counterterms", "--order", "2"),
]


def test_every_subcommand_payload_matches_json_dumps(monkeypatch, capsys):
    payloads = []

    def recording(obj):
        payloads.append(obj)
        return _dumps(obj)

    monkeypatch.setattr(cli, "_dumps", recording)
    for argv in SUBCOMMANDS:
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    assert len(payloads) == len(SUBCOMMANDS)
    for obj in payloads:
        assert _dumps(obj) == _reference(obj)
    # kernel-check reports numpy floats, which json writes as floats
    d2 = payloads[SUBCOMMANDS.index(("kernel-check", "--dim", "2",
                                     "--mass", "1.0"))]
    assert type(d2["greens_identity_residual"]) is np.float64
