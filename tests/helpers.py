"""Oracles that tests check the package's output against.

No command needs these, so they live with the tests: `mirror` maps a term
of one solution branch onto the other, the JSON readers invert the
writers of `terms` and `diagrams` (so a test can show an export is
lossless), and `canonical_key` spells a diagram's canonical form.
"""

from fractions import Fraction

from sthirring import diagrams
from sthirring.diagrams import DeformedSum, Diagram
from sthirring.terms import (
    GPSI, GPSIBAR, PHI, PHIBAR, Const, Conv, Gamma, Leaf, Node, Prod, Term,
    Unit,
)


def mirror(t: Term) -> Term:
    """Phi <-> PhiBar, G_psi <-> G_psibar; relates the two solution branches."""

    def go(node):
        if isinstance(node, Leaf):
            return Leaf(PHI if node.species == PHIBAR else PHIBAR, node.index)
        if isinstance(node, Gamma):
            return Gamma(node.mu, node.col, node.row)
        if isinstance(node, Const):
            return Const(node.name, node.order, node.col, node.row)
        if isinstance(node, Conv):
            return Conv(GPSI if node.kind == GPSIBAR else GPSIBAR,
                        node.out_index, node.in_index, go(node.inner))
        if isinstance(node, Prod):
            return Prod(tuple(go(c) for c in node.children))
        return node

    return Term(t.coeff, go(t.node))


def node_from_json(d: dict) -> Node:
    k = d["kind"]
    if k == "unit":
        return Unit()
    if k == "leaf":
        return Leaf(d["species"], int(d["index"]))
    if k == "gamma":
        return Gamma(int(d["mu"]), int(d["row"]), int(d["col"]))
    if k == "const":
        return Const(d["name"], d["order"], int(d["row"]), int(d["col"]))
    if k == "conv":
        return Conv(d["propagator"], int(d["out"]), int(d["in"]),
                    node_from_json(d["inner"]))
    if k == "prod":
        return Prod(tuple(node_from_json(c) for c in d["children"]))
    raise ValueError(f"unknown node kind {k!r}")


def term_from_json(d: dict) -> Term:
    num, den = d["coefficient"]
    return Term(Fraction(num, den), node_from_json(d["node"]))


def _skeleton_from_json(data):
    def dec(children):
        out = []
        for ch in children:
            if ch[0] == "conv":
                out.append(("conv", ch[1], dec(ch[2])))
            elif ch[0] == "pair":
                out.append(("pair", int(ch[1]), ch[2], ch[3]))
            else:
                out.append(tuple(ch))
        return tuple(out)

    return tuple(dec(body) for body in data)


def diagram_from_json(d: dict) -> Diagram:
    num, den = d["coefficient"]
    return Diagram(_skeleton_from_json(d["skeleton"]), Fraction(num, den))


def deformedsum_from_json(d: dict) -> DeformedSum:
    return DeformedSum((diagram_from_json(x) for x in d["diagrams"]),
                       origin=d.get("origin", ""), order=d.get("order"))


def canonical_key(diag: Diagram) -> str:
    """The serialization of the canonical form; equal exactly for
    isomorphic diagrams."""
    return diagrams._serialize(diagrams.canonicalize(diag).slots, {})
