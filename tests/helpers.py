"""Oracles that tests check the package's output against.

No command needs these, so they live with the tests: `mirror` maps a term
of one solution branch onto the other, `term_to_json` and
`diagram_to_json` build the export dicts whose json.dumps text the JSON
writers of `terms` and `diagrams` emit straight from the objects
(`json_default` hands them to json.dumps), the JSON readers invert them
(so a test can show an export is lossless), `termsum_to_json` and
`deformedsum_to_json` build a sum's export dicts up front,
`canonical_key` spells a diagram's canonical form, `max_pair_id` is the
largest pair id of a diagram (a graft or tensor product shifts the other
diagram's ids past it),
`bullet_cross` is the reference two-point construction (it pairs the free
leaves of two already-deformed diagrams across their tensor slots),
`pointwise_cubic` joins the already-deformed coefficients of the cubic
recursion at a new vertex (`vertex_join`), with no pair across the
factors (the reference for the part of Gamma_Q(F_k) that
`extract_counterterms` leaves out of the order-k defect),
`expand_eager` builds both branches of the series order by order from
`ref_vertex_term` and `TermSum.add`, the reference for the series that
builds each coefficient on first read and each monomial in canonical
form,
`partial_matchings` and `all_contractions` enumerate every partial
pairing (of two leaf lists, and of a term as unmerged diagrams: the
references for the one pairing per orbit of `gamma_Q`), `contractions`
every pairing of one size of a term,
`maximal_diagrams` builds the Diagram of every graph that power counting
counts from its census, and `iter_children` lists every child of a
diagram with its path.

The `ref_*` functions are the walk-per-question forms of fast paths in
the package, kept as their oracles: `ref_canonicalize` re-emits a
product child's subtree for each shape and candidate serialization and
renames the ordered tree in a second pass, `ref_graph_counts`
counts the skeleton's children over `iter_children` (the check of the
graph view that `graph_counts` counts), `ref_diagram_for_matching`
halves the coefficient once per tagged coincident pair,
`ref_gamma_Q`, `ref_expectation_report` and `ref_two_point` walk the
orbits of each term or monomial pair on its own (`per_term_walk`), the
references for the walk once per leaf census, and `ref_canonical` is the
brute-force canonicalizer, which recomputes every subtree shape for each
layout combination (`ref_layouts`) and serializes every candidate.
`ref_vertex_term` is the raw builder of a recursion monomial, which
shifts the factors' index ranges apart and wires in the gamma pair,
asking each renamed factor for its top and free indices walk by walk:
its `canonicalize` is the oracle of `terms.vertex_term`, which joins the
canonical monomial from the canonical factors.  `run_argv` runs one
command line in-process, for the digest manifest.  `bump_laplacian` is
the analytic Laplacian of a `kernels.TestFunction` bump, written term by
term from g(s) = exp(-1/(1-s)) and its derivatives: the oracle of the
one-pass source (-Laplace + m^2) f of the d = 2 Green identity.
`ref_polar_integral` is that identity's polar rule point by point, at
any point x: it builds every node y, takes the source from
`bump_laplacian` and f(y) and the distance by hypot.  At the bump's
centre it is the oracle of the radial rule `kernels._radial_integral`;
off the centre the tests check the identity by it alone.
`ref_q_kernel_rules` and `ref_tanh_sinh_rules` are the 1-D rule pairs of
`kernels.q_kernel_1d` and `kernels.clipped_integral` with each rule on
its own evaluation of the integrand: the oracles of the one evaluation
that each pair shares.
"""

from fractions import Fraction
from itertools import combinations, groupby, permutations, product as iproduct
from math import prod

import numpy as np

from sthirring import diagrams, kernels
from sthirring.deformation import (
    _diagram_for_matching, _halvings, contraction_count, leaf_runs,
    orbit_matchings, term_census,
)
from sthirring.diagrams import (
    DeformedSum, Diagram, free_leaves, pair_ids, rename_pair_ids, replace_at,
    to_graph,
)
from sthirring.canonical import tie_orders
from sthirring.errors import InvariantError
from sthirring.perturbation import SPINOR
from sthirring.terms import (
    DOWN, GPSI, GPSIBAR, PHI, PHIBAR, UP,
    Conv, Gamma, Leaf, Node, Prod, Term, TermSum,
    convolve, grading, index_census, max_index, phi, phibar,
    rename_indices, sole_free_index,
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
    return DeformedSum(diagram_from_json(x) for x in d["diagrams"])


def node_to_json(node: Node) -> dict:
    if isinstance(node, Leaf):
        return {"kind": "leaf", "species": node.species, "index": str(node.index)}
    if isinstance(node, Gamma):
        return {"kind": "gamma", "mu": str(node.mu),
                "row": str(node.row), "col": str(node.col)}
    if isinstance(node, Conv):
        return {"kind": "conv", "propagator": node.kind,
                "out": str(node.out_index), "in": str(node.in_index),
                "inner": node_to_json(node.inner)}
    if isinstance(node, Prod):
        return {"kind": "prod", "children": [node_to_json(c) for c in node.children]}
    raise TypeError(node)


def term_to_json(t: Term) -> dict:
    return {"coefficient": [t.coeff.numerator, t.coeff.denominator],
            "node": node_to_json(t.node)}


def diagram_to_json(diag: Diagram) -> dict:
    g = to_graph(diag)
    return {
        "coefficient": [diag.coeff.numerator, diag.coeff.denominator],
        "sites": [list(s) for s in g["sites"]],
        "edges": [list(e) for e in g["edges"]],
        "counterterm_tags": [list(t) for t in g["tags"]],
        "free_leaves": [list(f) for f in g["frees"]],
        "skeleton": [_skeleton_json(body) for body in diag.slots],
    }


def _skeleton_json(children) -> list:
    out = []
    for ch in children:
        if ch[0] == "conv":
            out.append(["conv", ch[1], _skeleton_json(ch[2])])
        else:
            out.append([str(x) for x in ch])
    return out


def json_default(o):
    """json's `default` for the CLI's payloads: a Term or a Diagram becomes
    its export dict; anything else is a TypeError."""
    if isinstance(o, Term):
        return term_to_json(o)
    if isinstance(o, Diagram):
        return diagram_to_json(o)
    raise TypeError(f"Object of type {o.__class__.__name__} "
                    f"is not JSON serializable")


def termsum_to_json(s: TermSum) -> list:
    """The monomial dicts of `expand --format json`, built up front."""
    return [term_to_json(t) for t in s.terms()]


def deformedsum_to_json(ds: DeformedSum, origin: str, order: int) -> dict:
    """One order of `correlate --format json`, its diagram dicts built up
    front."""
    return {
        "origin": origin,
        "order": order,
        "diagrams": [diagram_to_json(d) for d in ds.diagrams()],
    }


def canonical_key(diag: Diagram) -> str:
    """The serialization of the canonical form; equal exactly for
    isomorphic diagrams."""
    return diagrams._serialize(diagrams.canonicalize(diag).slots)


def partial_matchings(phis, phibars):
    """All injective partial matchings of the two leaf lists, by size."""
    for k in range(min(len(phis), len(phibars)) + 1):
        for ps in combinations(phis, k):
            for qs in permutations(phibars, k):
                yield tuple(zip(ps, qs))


def contractions(t: Term, size: int):
    """The unmerged Diagram of every pairing of `size` of a canonical
    term's Phi leaves with as many of its PhiBar leaves: each choice of
    Phi leaves, in order, times each arrangement of PhiBar leaves, the
    order of `power_counting.maximal_contractions`."""
    templates, leaves = term_census(t)
    halvings = _halvings(t.coeff, leaves)
    phis = [l.pos for l in leaves if l.species == PHI]
    bars = [l.pos for l in leaves if l.species == PHIBAR]
    for ps in combinations(phis, size):
        for qs in permutations(bars, size):
            yield _diagram_for_matching(halvings, templates, leaves,
                                        tuple(zip(ps, qs)), 1)


def all_contractions(t: Term):
    """The unmerged Diagram of every partial pairing of a canonical term's
    Phi leaves with its PhiBar leaves, by size."""
    g = grading(t)
    for size in range(min(g.r, g.r_bar) + 1):
        yield from contractions(t, size)


def maximal_diagrams(series, k: int):
    """The unmerged Diagram of every maximal pairing of the order-k spinor
    coefficient, in the order of `power_counting.maximal_contractions`."""
    for t in series.coefficient(k, SPINOR):
        g = grading(t)
        yield from contractions(t, min(g.r, g.r_bar))


def iter_children(diag: Diagram) -> list:
    """(child, path) of every child, path = (slot, i0, i1, ...) descending
    into convs, in pre-order."""
    out = []

    def walk(children, path):
        for i, ch in enumerate(children):
            out.append((ch, path + (i,)))
            if ch[0] == "conv":
                walk(ch[2], path + (i,))

    for s, body in enumerate(diag.slots):
        walk(body, (s,))
    return out


def max_pair_id(diag: Diagram) -> int:
    return max((p for body in diag.slots for p in pair_ids(body)), default=-1)


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


def vertex_join(kind: str, parts) -> Diagram:
    """Pointwise product of single-slot diagrams at a new vertex, wrapped
    in the branch propagator.  No cross contractions are introduced."""
    kids = []
    coeff = Fraction(1)
    for d in parts:
        if len(d.slots) != 1:
            raise InvariantError("vertex join needs single-slot diagrams")
        off = max(pair_ids(kids), default=-1) + 1
        kids.extend(rename_pair_ids(d.slots[0], lambda p: p + off))
        coeff *= d.coeff
    return Diagram(((("conv", kind, tuple(kids)),),), coeff)


def pointwise_cubic(gf_bar, gf, k: int) -> DeformedSum:
    """Order-k part of G_psi * [(PsiBar g Psi) g Psi] with pointwise products
    of the already-deformed coefficients (no cross contractions)."""
    ds = DeformedSum()
    for k1 in range(k):
        for k2 in range(k - k1):
            k3 = k - 1 - k1 - k2
            for da in gf_bar[k1]:
                for db in gf[k2]:
                    for dc in gf[k3]:
                        ds.add(vertex_join(GPSI, [da, db, dc]))
    return ds


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
                            fs.add(ref_vertex_term(ta, tb, tc, GPSI))
                        for tc in cospinor[k3]:
                            fc.add(ref_vertex_term(ta, tb, tc, GPSIBAR))
        spinor[k] = fs
        cospinor[k] = fc
    return spinor, cospinor


def run_argv(argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of the command line argv, run in-process;
    a usage error that argparse reports exits through SystemExit."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from sthirring.cli import main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv.split())
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def free_indices(node: Node) -> dict:
    """Map free index -> (polarity, kind)."""
    return {idx: occ[0] for idx, occ in index_census(node).items()
            if len(occ) == 1}


def wrapped(t: Term) -> Term | None:
    """t inside the propagator that fits its rank, or None if none does."""
    spinor = [pol for pol, kind in free_indices(t.node).values()
              if kind == "spinor"]
    kind = {(UP,): GPSI, (DOWN,): GPSIBAR}.get(tuple(spinor))
    return None if kind is None else convolve(kind, t)


# --------------------------------------------------------------------------
# reference term canonicalizer
# --------------------------------------------------------------------------

def ref_index_occurrences(node: Node):
    """(index, polarity, kind) in pre-order, by recursion."""
    if isinstance(node, Leaf):
        yield node.index, (UP if node.species == PHI else DOWN), "spinor"
    elif isinstance(node, Gamma):
        yield node.mu, 0, "vector"
        yield node.row, UP, "spinor"
        yield node.col, DOWN, "spinor"
    elif isinstance(node, Conv):
        up_out = node.kind == GPSI
        yield node.out_index, (UP if up_out else DOWN), "spinor"
        yield node.in_index, (DOWN if up_out else UP), "spinor"
        yield from ref_index_occurrences(node.inner)
    elif isinstance(node, Prod):
        for c in node.children:
            yield from ref_index_occurrences(c)


def _ref_validate(node: Node) -> None:
    census = {}
    for idx, pol, kind in ref_index_occurrences(node):
        census.setdefault(idx, []).append((pol, kind))
    for idx, occ in census.items():
        if len(occ) > 2:
            raise InvariantError(f"index {idx} occurs {len(occ)} times")
        kinds = {k for _, k in occ}
        if len(kinds) > 1:
            raise InvariantError(f"index {idx} mixes vector and spinor slots")
        if len(occ) == 2 and "spinor" in kinds:
            if occ[0][0] + occ[1][0] != 0:
                raise InvariantError(f"index {idx} contracted with equal polarity")


def _ref_children(node: Node):
    if isinstance(node, Conv):
        return (node.inner,)
    if isinstance(node, Prod):
        return node.children
    return ()


def _ref_flatten(children):
    out = []
    for c in children:
        if isinstance(c, Prod):
            out.extend(c.children)
        else:
            out.append(c)
    return tuple(out)


def _ref_emit(node: Node, name, tokens: list) -> None:
    if isinstance(node, Leaf):
        tokens.append(f"L[{node.species},{name(node.index)}]")
    elif isinstance(node, Gamma):
        tokens.append(f"g[{name(node.mu)},{name(node.row)},{name(node.col)}]")
    elif isinstance(node, Conv):
        tokens.append(f"C[{node.kind},{name(node.out_index)},{name(node.in_index)}](")
        _ref_emit(node.inner, name, tokens)
        tokens.append(")")
    elif isinstance(node, Prod):
        tokens.append("P(")
        for c in node.children:
            _ref_emit(c, name, tokens)
            tokens.append(",")
        tokens.append(")")
    else:
        raise TypeError(node)


def _ref_namer(naming: dict):
    def name(idx):
        if idx not in naming:
            naming[idx] = f"i{len(naming)}"
        return naming[idx]

    return name


def _ref_occurrences(node: Node):
    where: dict = {}
    span: dict = {}
    count = 0

    def visit(n):
        nonlocal count
        lo = count
        if isinstance(n, Conv):
            own = (n.out_index, n.in_index)
        elif isinstance(n, Prod):
            own = ()
        else:
            own = [i for i, _, _ in ref_index_occurrences(n)]
        for i in own:
            where.setdefault(i, []).append(count)
            count += 1
        for c in _ref_children(n):
            visit(c)
        span[id(n)] = (lo, count)

    visit(node)
    return where, span


def _ref_child_shape(child: Node, occ, prenamed: dict) -> str:
    where, span = occ
    lo, hi = span[id(child)]
    local = {}

    def name(idx):
        if idx in prenamed:
            return "@" + prenamed[idx]
        at = where[idx]
        inside = sum(lo <= p < hi for p in at)
        if inside == 2:
            if idx not in local:
                local[idx] = f"l{len(local)}"
            return local[idx]
        return "*LINK*" if len(at) > inside else "*FREE*"

    tokens: list = []
    _ref_emit(child, name, tokens)
    return "".join(tokens)


def _ref_order_prod(node: Prod, naming: dict, occ) -> tuple:
    kids = node.children
    orders = tie_orders(kids, [_ref_child_shape(c, occ, naming) for c in kids],
                        "*LINK*")
    if len(orders) == 1:
        return orders[0]

    def serialization(cand):
        name = _ref_namer(dict(naming))
        tokens: list = []
        for c in cand:
            _ref_emit(c, name, tokens)
            tokens.append(",")
        return "".join(tokens)

    return min(orders, key=serialization)


def _ref_canon_node(node: Node, naming: dict, occ) -> Node:
    name = _ref_namer(naming)
    if isinstance(node, (Leaf, Gamma)):
        for idx, _, _ in ref_index_occurrences(node):
            name(idx)
        return node
    if isinstance(node, Conv):
        name(node.out_index)
        name(node.in_index)
        inner = _ref_canon_node(node.inner, naming, occ)
        return Conv(node.kind, node.out_index, node.in_index, inner)
    if isinstance(node, Prod):
        flat = Prod(_ref_flatten(node.children))
        ordered = _ref_order_prod(flat, naming, occ)
        return Prod(tuple(_ref_canon_node(c, naming, occ) for c in ordered))
    raise TypeError(node)


def ref_canonicalize(t: Term) -> Term:
    """The canonical form, by the walk-per-question reference; the result
    carries its serialization as `_key`."""
    _ref_validate(t.node)
    ordered = _ref_canon_node(t.node, {}, _ref_occurrences(t.node))
    first_seen: dict = {}
    tokens: list = []
    _ref_emit(ordered, _ref_namer(first_seen), tokens)
    rank = {old: r for r, old in enumerate(first_seen)}
    out = Term(t.coeff, rename_indices(ordered, rank.__getitem__))
    object.__setattr__(out, "_key", "".join(tokens))
    return out


# --------------------------------------------------------------------------
# reference vertex, graph counts and matching diagram
# --------------------------------------------------------------------------

def ref_vertex_term(ta: Term, tb: Term, tc: Term, kind: str = GPSI) -> Term:
    """One cubic interaction monomial, raw: the factors' index ranges are
    shifted apart, the gamma pair is wired in and the whole product is
    wrapped in the branch propagator.  Each renamed factor is asked for
    its top and sole free index by a walk of its own."""

    def free(node, pol):
        return sole_free_index(index_census(node), pol)

    na = ta.node
    off_b = max_index(na) + 1
    nb = rename_indices(tb.node, lambda i: i + off_b)
    off_c = max(max_index(na), max_index(nb)) + 1
    nc = rename_indices(tc.node, lambda i: i + off_c)

    a = free(na, DOWN)
    b = free(nb, UP)
    top = max(max_index(na), max_index(nb), max_index(nc)) + 1
    mu, rho1, out = top, top + 1, top + 2
    if kind == GPSI:
        c = free(nc, UP)
        g2 = Gamma(mu, rho1, c)
    elif kind == GPSIBAR:
        c = free(nc, DOWN)
        g2 = Gamma(mu, c, rho1)
    else:
        raise InvariantError(f"unknown branch propagator {kind!r}")
    body = Prod((na, Gamma(mu, a, b), nb, g2, nc))
    return Term(ta.coeff * tb.coeff * tc.coeff, Conv(kind, out, rho1, body))


def ref_graph_counts(diag: Diagram) -> dict:
    """`diagrams.graph_counts` over `iter_children`: each conv a vertex
    and a trunk, each pair id or coincident loop a point and two stems,
    each free leaf a point and a stem."""
    vertices = frees = loops = 0
    seen_pairs = set()
    for ch, _ in iter_children(diag):
        if ch[0] == "conv":
            vertices += 1
        elif ch[0] == "pair":
            seen_pairs.add(ch[1])
        elif ch[0] in ("qloop", "ctloop"):
            loops += 1
        elif ch[0] == "free":
            frees += 1
    pairs = len(seen_pairs) + loops
    return {"vertices": vertices, "pair_points": pairs, "free_points": frees,
            "N": vertices + pairs + frees, "L": vertices + 2 * pairs + frees}


def _ref_instantiate(template, roles):
    out = []
    for entry in template:
        if entry[0] == "conv":
            out.append(("conv", entry[1], _ref_instantiate(entry[2], roles)))
        elif (role := roles[entry[1]]) is not None:  # a leafref
            out.append(role)
    return tuple(out)


def ref_diagram_for_matching(coeff, templates, leaves, matching) -> Diagram:
    """`deformation._diagram_for_matching` with a role for every leaf up
    front and one halving of the weight per tagged coincident pair."""
    roles = {i: ("free", leaves[i].species) for i in range(len(leaves))}
    weight = Fraction(1)
    pid = 0
    for li, lj in matching:
        a, b = leaves[li], leaves[lj]
        first, second = (a, b) if a.pos < b.pos else (b, a)
        qt = "Q" if first.species == PHI else "Qt"
        if a.vertex == b.vertex:
            if a.taggable:
                roles[first.pos] = ("ctloop", a.tag)
                weight /= 2
            else:
                roles[first.pos] = ("qloop", qt)
            roles[second.pos] = None
        else:
            roles[a.pos] = ("pair", pid, a.species, qt)
            roles[b.pos] = ("pair", pid, b.species, qt)
            pid += 1
    return Diagram(tuple(_ref_instantiate(tpl, roles) for tpl in templates),
                   coeff * weight)


def per_term_walk(*slots: Term, complete=False):
    """The orbit walk of the census of one canonical term per tensor slot
    on its own, with the product of their coefficients: the diagrams the
    sums handed to `DeformedSum.add` before the terms that share a census
    were walked together.  With `complete`, only the pairings of every
    leaf."""
    templates, leaves = term_census(*slots)
    runs = leaf_runs(leaves, PHI), leaf_runs(leaves, PHIBAR)
    if complete and sum(map(len, runs[0])) != sum(map(len, runs[1])):
        return
    halvings = _halvings(prod(t.coeff for t in slots), leaves)
    for matching, size in orbit_matchings(*runs, complete):
        yield _diagram_for_matching(halvings, templates, leaves, matching,
                                    size)


def ref_gamma_Q(s: TermSum) -> DeformedSum:
    """`deformation.gamma_Q` with one orbit walk per term."""
    return DeformedSum(d for t in s for d in per_term_walk(t))


def ref_expectation_report(series, k: int, branch: str):
    """`deformation.expectation_report` with one orbit walk per monomial."""
    ds = DeformedSum()
    examined = 0
    for t in series.coefficient(k, branch):
        g = grading(t)
        examined += sum(contraction_count(g.r, g.r_bar, j)
                        for j in range(min(g.r, g.r_bar) + 1))
        for d in per_term_walk(t, complete=True):
            ds.add(d)
    return ds, examined


def ref_two_point(series, branch_a: str, branch_b: str, K: int) -> dict:
    """`deformation.two_point` with one orbit walk per monomial pair."""
    out = {}
    for k in range(K + 1):
        ds = DeformedSum()
        for k1 in range(k + 1):
            for ta in series.coefficient(k1, branch_a):
                for tb in series.coefficient(k - k1, branch_b):
                    for d in per_term_walk(ta, tb, complete=True):
                        ds.add(d)
        out[k] = ds
    return out


# the brute-force reference canonicalizer: every subtree shape recomputed
# for every layout combination, and every candidate serialized

def _ref_shape(ch):
    if ch[0] == "pair":
        return f"x[{ch[2]},{ch[3]}]"
    if ch[0] == "conv":
        inner = ",".join(sorted(_ref_shape(k) for k in ch[2]))
        return f"T[{ch[1]}]({inner})"
    return repr(ch)


def _ref_tie_orders(items, shapes):
    order = sorted(range(len(items)), key=shapes.__getitem__)
    options = []
    for shape, run in groupby(order, key=shapes.__getitem__):
        run = [items[i] for i in run]
        options.append(list(permutations(run)) if len(run) > 1 and "x[" in shape
                       else [run])
    return [tuple(x for run in combo for x in run) for combo in iproduct(*options)]


def ref_layouts(children):
    """Every candidate layout of a vertex's children, nested convs too."""
    expanded = []
    for ch in children:
        if ch[0] == "conv":
            expanded.append([("conv", ch[1], lay) for lay in ref_layouts(ch[2])])
        else:
            expanded.append([ch])
    out = []
    for kids in iproduct(*expanded):
        out.extend(_ref_tie_orders(kids, [_ref_shape(c) for c in kids]))
    return out


def _ref_serialize(slots, naming):
    tokens = []

    def emit(children):
        for ch in children:
            if ch[0] == "pair":
                naming.setdefault(ch[1], f"p{len(naming)}")
                tokens.append(f"x[{naming[ch[1]]},{ch[2]},{ch[3]}]")
            elif ch[0] == "conv":
                tokens.append(f"T[{ch[1]}](")
                emit(ch[2])
                tokens.append(")")
            else:
                tokens.append(repr(ch))
            tokens.append(",")

    for body in slots:
        emit(body)
        tokens.append(";")
    return "".join(tokens)


def ref_canonical(diag: Diagram) -> tuple[str, tuple]:
    """(key, slots) of the minimal serialization over every layout."""
    best = None
    for slots in iproduct(*[ref_layouts(body) for body in diag.slots]):
        naming = {}
        key = _ref_serialize(slots, naming)
        if best is None or key < best[0]:
            best = (key, slots, naming)
    key, slots, naming = best
    rank = {old: r for r, old in enumerate(naming)}
    return key, tuple(rename_pair_ids(b, rank.__getitem__) for b in slots)


def bump_laplacian(f, x):
    """Analytic Laplacian of the bump f; g(s) = exp(-1/(1-s)) in s = t^2
    gives Lap f = A * (4 s g'' + 2 dim g') / r^2."""
    raw = f._t2(np.asarray(x, dtype=float))
    scalar_input = np.asarray(raw).ndim == 0
    t2 = np.atleast_1d(raw)
    out = np.zeros_like(t2)
    inside = t2 < 1.0
    s = t2[inside]
    g = np.exp(-1.0 / (1.0 - s))
    gp = -g / (1.0 - s) ** 2
    gpp = g * (1.0 / (1.0 - s) ** 4 - 2.0 / (1.0 - s) ** 3)
    out[inside] = f.amplitude * (4.0 * s * gpp + 2.0 * f.dim * gp) \
        / f.radius ** 2
    return float(out[0]) if scalar_input else out


def ref_polar_integral(params, f, x, n_r, n_theta):
    """int G(x-y) (-Lap + m^2) f(y) dy by a polar rule over the bump's
    support disk, at every node y = o + r e(theta), r = R(theta) u^2 with
    R(theta) where the ray leaves the disk: Gauss-Legendre in u, n_r nodes,
    and the periodic trapezoid rule in theta, n_theta angles.  The origin o
    is x inside the support disk and the centre outside it; the source is
    -bump_laplacian + m^2 f at y.  At the centre every angle gives the
    radial rule of `kernels.greens_identity_residual`."""
    x = np.asarray(x, dtype=float)
    centre = np.asarray(f.center)
    origin, d = x, x - centre
    gap = f.radius ** 2 - float(d @ d)
    if gap <= 0.0:
        origin, d, gap = centre, np.zeros(2), f.radius ** 2
    offset = x - origin
    u, w = kernels._gauss_legendre(n_r)
    theta = (2.0 * np.pi / n_theta) * np.arange(n_theta)
    e = np.stack((np.cos(theta), np.sin(theta)), axis=-1)
    b = e @ d
    root = np.sqrt(b * b + gap)
    R = np.where(b > 0.0, gap / (root + b), root - b)[:, None]
    r = R * u ** 2
    y = origin + r[..., None] * e[:, None, :]
    src = params.m ** 2 * f(y) - bump_laplacian(f, y)
    dist = np.hypot(offset[0] - r * e[:, :1], offset[1] - r * e[:, 1:])
    jacobian = 2.0 * R * R * u ** 3  # r dr = 2 R^2 u^3 du
    total = np.sum(kernels._radial_green(params.m, dist) * src * jacobian * w)
    return total * (2.0 * np.pi / n_theta)


def ref_q_kernel_rules(params, f) -> tuple[float, float]:
    """The Gauss-Legendre sums of `kernels.q_kernel_1d` at
    Q_KERNEL_1D_NODES and at twice as many, each rule on its own nodes."""
    (lo,), (hi,) = f.support()
    m = params.m
    cuts = np.array([lo, *sorted(p for p in (-m, m) if lo < p < hi), hi])
    starts, widths = cuts[:-1, None], np.diff(cuts)[:, None]

    def rule(n):
        u, w = kernels._gauss_legendre(n)
        x = starts + widths * u  # one row of nodes per subinterval
        g, gbar = kernels.propagator_1d(params, x)
        return float(np.sum((g * gbar).real * f(x) * widths * w))

    n = kernels.Q_KERNEL_1D_NODES
    return rule(n), rule(2 * n)


def ref_tanh_sinh_rules(params, f) -> tuple[float, float] | None:
    """The tanh-sinh sums of `kernels.clipped_integral` at TANH_SINH_STEP
    and at half of it, each rule on its own nodes; None where supp f
    misses [-m, m]."""
    (lo,), (hi,) = f.support()
    a, b = max(lo, -params.m), min(hi, params.m)
    if a >= b:
        return None
    mid, half = (a + b) / 2.0, (b - a) / 2.0

    def rule(h):
        n = np.ceil(kernels._TANH_SINH_T / h)
        t = h * np.arange(-n, n + 1)
        s = 0.5 * np.pi * np.sinh(t)
        w = 0.5 * np.pi * np.cosh(t) / np.cosh(s) ** 2
        return float(half * h * np.sum(w * f(mid + half * np.tanh(s))))

    return rule(kernels.TANH_SINH_STEP), rule(kernels.TANH_SINH_STEP / 2.0)
