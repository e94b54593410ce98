"""Oracles that tests check the package's output against.

No command needs these, so they live with the tests: `mirror` maps a term
of one solution branch onto the other, the JSON readers invert the
writers of `terms` and `diagrams` (so a test can show an export is
lossless), `canonical_key` spells a diagram's canonical form,
`bullet_cross` is the reference two-point construction (it pairs the free
leaves of two already-deformed diagrams across their tensor slots), and
`expand_eager` builds both branches of the series order by order, the
reference for the series that builds each coefficient on first read.
"""

from fractions import Fraction

from sthirring import diagrams
from sthirring.deformation import partial_matchings
from sthirring.diagrams import (
    DeformedSum, Diagram, free_leaves, max_pair_id, rename_pair_ids,
    replace_at,
)
from sthirring.perturbation import vertex_term
from sthirring.terms import (
    GPSI, GPSIBAR, PHI, PHIBAR, Conv, Gamma, Leaf, Node, Prod, Term, TermSum,
    phi, phibar,
)


def mirror(t: Term) -> Term:
    """Phi <-> PhiBar, G_psi <-> G_psibar; relates the two solution branches."""

    def go(node):
        if isinstance(node, Leaf):
            return Leaf(PHI if node.species == PHIBAR else PHIBAR, node.index)
        if isinstance(node, Gamma):
            return Gamma(node.mu, node.col, node.row)
        if isinstance(node, Conv):
            return Conv(GPSI if node.kind == GPSIBAR else GPSIBAR,
                        node.out_index, node.in_index, go(node.inner))
        return Prod(tuple(go(c) for c in node.children))

    return Term(t.coeff, go(t.node))


def node_from_json(d: dict) -> Node:
    k = d["kind"]
    if k == "leaf":
        return Leaf(d["species"], int(d["index"]))
    if k == "gamma":
        return Gamma(int(d["mu"]), int(d["row"]), int(d["col"]))
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


def tensor(a: Diagram, b: Diagram) -> Diagram:
    off = max_pair_id(a) + 1
    return Diagram(a.slots + tuple(rename_pair_ids(s, lambda p: p + off)
                                   for s in b.slots),
                   a.coeff * b.coeff)


def bullet_cross(da: Diagram, db: Diagram) -> list[Diagram]:
    """All cross-contraction completions of the tensor product da (x) db.

    Factors are already deformed, so only pairs straddling the two factors
    are formed; the left factor's species fixes Q versus Q_tilde and no
    diagonal marker appears.
    """
    base = tensor(da, db)
    n_a = len(da.slots)
    frees = free_leaves(base)
    a_phi = [p for sp, p in frees if sp == PHI and p[0] < n_a]
    a_bar = [p for sp, p in frees if sp == PHIBAR and p[0] < n_a]
    b_phi = [p for sp, p in frees if sp == PHI and p[0] >= n_a]
    b_bar = [p for sp, p in frees if sp == PHIBAR and p[0] >= n_a]
    out = []
    pid0 = max_pair_id(base) + 1
    for m1 in partial_matchings(a_phi, b_bar):
        for m2 in partial_matchings(a_bar, b_phi):
            d = base
            pid = pid0
            for pa, pb in m1:  # Phi on the left: Q
                d = replace_at(d, pa, ("pair", pid, PHI, "Q"))
                d = replace_at(d, pb, ("pair", pid, PHIBAR, "Q"))
                pid += 1
            for pa, pb in m2:  # PhiBar on the left: Q_tilde
                d = replace_at(d, pa, ("pair", pid, PHIBAR, "Qt"))
                d = replace_at(d, pb, ("pair", pid, PHI, "Qt"))
                pid += 1
            out.append(d)
    return out


def expand_eager(K: int) -> tuple[dict[int, TermSum], dict[int, TermSum]]:
    """(spinor, cospinor) coefficients F_0..F_K, both branches built order
    by order in one double loop."""
    spinor = {0: TermSum([phi(0)])}
    cospinor = {0: TermSum([phibar(0)])}
    for k in range(1, K + 1):
        fs, fc = TermSum(), TermSum()
        for k1 in range(k):
            for k2 in range(k - k1):
                k3 = k - 1 - k1 - k2
                for ta in cospinor[k1]:
                    for tb in spinor[k2]:
                        for tc in spinor[k3]:
                            fs.add(vertex_term(ta, tb, tc, GPSI))
                        for tc in cospinor[k3]:
                            fc.add(vertex_term(ta, tb, tc, GPSIBAR))
        spinor[k] = fs
        cospinor[k] = fc
    return spinor, cospinor
