"""The term and diagram grammar is exactly what the commands build.

Every node class of `terms.Node` occurs in the recursion's coefficients or
in the terms the property checks draw, and every diagram child kind occurs
in what the deformation maps make of them; no other class or kind does.
Every such diagram survives its JSON export.
"""

import json
import random
import typing

import pytest

from sthirring import properties, terms
from sthirring.deformation import extract_counterterms, gamma_Q, two_point
from sthirring.perturbation import COSPINOR, SPINOR, expand
from sthirring.terms import Conv, Prod, TermSum, canonicalize

from helpers import (
    diagram_from_json, diagram_to_json, iter_children, wrapped,
)

CHILD_KINDS = {"free", "pair", "qloop", "ctloop", "argport", "conv"}
BRANCHES = (SPINOR, COSPINOR)


def _node_classes(node) -> set:
    if isinstance(node, Conv):
        return {Conv} | _node_classes(node.inner)
    if isinstance(node, Prod):
        return {Prod}.union(*map(_node_classes, node.children))
    return {type(node)}


@pytest.fixture(scope="module")
def built_terms():
    series = expand(4)
    out = [t for k in range(5) for b in BRANCHES
           for t in series.coefficient(k, b)]
    rng = random.Random(2024)
    draws = [properties.random_term(rng) for _ in range(40)]
    convolved = [canonicalize(w) for w in map(wrapped, draws)
                 if w is not None]
    assert len(convolved) > 10
    return out + draws + convolved


@pytest.fixture(scope="module")
def built_diagrams(built_terms):
    out = [d for t in built_terms for d in gamma_Q(TermSum([t]))]
    series = expand(3)
    out += [d for a in BRANCHES for b in BRANCHES
            for ds in two_point(series, a, b, 3).values() for d in ds]
    out += [d for h in extract_counterterms(series, 3).values()
            for ds in (h.ops, h.residual) for d in ds]
    return out


def test_built_terms_use_every_node_class_and_no_other(built_terms):
    seen = set().union(*(_node_classes(t.node) for t in built_terms))
    assert seen == set(typing.get_args(terms.Node))


def test_built_diagrams_use_every_child_kind_and_no_other(built_diagrams):
    seen = {ch[0] for d in built_diagrams for ch, _ in iter_children(d)}
    assert seen == CHILD_KINDS


def test_built_diagrams_round_trip_through_json(built_diagrams):
    for d in built_diagrams:
        assert diagram_from_json(json.loads(json.dumps(diagram_to_json(d)))) == d
