"""The CLI's streaming JSON writer against
json.dumps(sort_keys=True, indent=1, default=cli._json_default)."""

import hashlib
import io
import json
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sthirring import cli
from sthirring.cli import _json_default, _stream_json, main
from sthirring.deformation import extract_counterterms, gamma_Q, two_point
from sthirring.perturbation import COSPINOR, SPINOR, expand
from sthirring.terms import TermSum

from helpers import deformedsum_to_json, termsum_to_json


def _reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1, default=_json_default)


def _streamed(obj) -> str:
    buf = io.StringIO()
    _stream_json(obj, buf.write)
    return buf.getvalue()


def _assert_same(obj):
    """Equal bytes, or a TypeError from both."""
    try:
        want = _reference(obj)
    except TypeError:
        with pytest.raises(TypeError):
            _streamed(obj)
        return
    assert _streamed(obj) == want


# real objects that the converter exports: monomials of both branches,
# deformed diagrams, two-point diagrams and counterterm operators
_SERIES = expand(3)
_TERMS = [t for k in range(4) for b in (SPINOR, COSPINOR)
          for t in _SERIES.coefficient(k, b)]
_DIAGRAMS = (gamma_Q(_SERIES.coefficient(2)).diagrams()
             + two_point(_SERIES, SPINOR, COSPINOR, 1)[1].diagrams()
             + extract_counterterms(_SERIES, 2)[2].ops.diagrams())

_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                     1e-310, 1e300, 0.1]),
).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
_strings = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f é\U0001f600ab'),
)
_scalars = st.one_of(
    st.none(), st.booleans(), _floats, _strings,
    st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.sampled_from(_TERMS), st.sampled_from(_DIAGRAMS),
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
@given(_values, st.integers(min_value=0, max_value=40))
def test_writer_matches_json_dumps(obj, batch):
    """Any batch size, down to a write after every item, gives the bytes."""
    saved = cli._BATCH
    cli._BATCH = batch
    try:
        _assert_same(obj)
    finally:
        cli._BATCH = saved


@pytest.mark.parametrize("obj", [
    {}, [], (), {"a": {}}, [[]], {"b": [], "a": [{}]},
    {2: "x", 2.5: "y", -3: "z", True: "t", False: "f"}, {None: "z"},
    {"nan": float("nan"), "inf": [float("inf"), -float("inf"), -0.0]},
    [np.float64(0.1), np.float64("nan"), 10 ** 40, -(10 ** 40)],
    _TERMS[-1], [_DIAGRAMS[-1]], {"t": (_TERMS[0],), "d": {"x": _DIAGRAMS[0]}},
])
def test_writer_edge_cases(obj):
    assert _streamed(obj) == _reference(obj)


@pytest.mark.parametrize("obj", [
    {1, 2}, [np.int64(3)], {"a": {(1, 2): 0}}, {"k": object()},
    {1: 0, "a": 1},  # keys that cannot be sorted together
    [Fraction(1, 3)], {"sum": TermSum(_TERMS[:2])},  # no converter for these
    {_TERMS[0]: 1},  # an object is converted as a value, never as a key
])
def test_writer_rejects_what_json_rejects(obj):
    with pytest.raises(TypeError):
        _reference(obj)
    with pytest.raises(TypeError):
        _streamed(obj)


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

    def recording(obj, write):
        payloads.append(obj)
        real(obj, write)

    real = cli._stream_json
    monkeypatch.setattr(cli, "_stream_json", recording)
    for argv in SUBCOMMANDS:
        assert main(list(argv)) == 0, argv
    out = capsys.readouterr().out
    assert len(payloads) == len(SUBCOMMANDS)
    assert out == "".join(_reference(obj) + "\n" for obj in payloads)
    # kernel-check reports numpy floats, which json writes as floats
    d2 = payloads[SUBCOMMANDS.index(("kernel-check", "--dim", "2",
                                     "--mass", "1.0"))]
    assert type(d2["greens_identity_residual"]) is np.float64
    # the objects export as the dicts that were built up front before
    series = expand(3)
    assert json.loads(_reference(payloads[0]))["monomials"] == \
        termsum_to_json(series.coefficient(3))
    orders = json.loads(_reference(payloads[3]))["orders"]
    tp = two_point(series, SPINOR, COSPINOR, 2)
    assert orders == {str(k): deformedsum_to_json(
        tp[k], "two_point[spinor,cospinor]", k) for k in range(3)}


TEXT_SUBCOMMANDS = [
    ("expand", "--order", "2"),
    ("expand", "--order", "2", "--format", "dot"),
    ("expect", "--order", "2"),
    ("correlate", "--order", "1", "--format", "dot"),
    ("power-count", "--dim", "2", "--max-order", "2"),
]


@pytest.mark.parametrize("argv", SUBCOMMANDS + TEXT_SUBCOMMANDS)
def test_output_file_holds_the_stdout_bytes(argv, tmp_path, capsys):
    assert main(list(argv)) == 0
    want = capsys.readouterr().out
    path = tmp_path / "out"
    assert main([*argv, "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == want.encode()


class _Sink:
    """A stdout that keeps only the sha256 and the length of its bytes."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.size = 0

    def write(self, s: str) -> None:
        b = s.encode()
        self.sha.update(b)
        self.size += len(b)


def test_writing_order_5_holds_less_than_its_output(monkeypatch):
    """The writing phase of `expand --order 5 --format json` (0.99 MB)
    peaks below the size of what it writes: no chunk list, joined text or
    monomial dicts of the whole output are held at once."""
    argv = "expand --order 5 --format json"
    manifest = json.loads(
        (Path(__file__).parent / "cli_manifest.json").read_text())
    payload = {"order": 5, "branch": "psi",
               "monomials": expand(5).coefficient(5).terms()}
    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        cli._emit(payload, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.sha.hexdigest() == manifest[argv]["stdout_sha256"]
    assert peak < sink.size
