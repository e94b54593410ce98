"""Oracles that tests check the package's output against.

No command needs these, so they live with the tests: `mirror` maps a term
of one solution branch onto the other, the JSON readers invert the
writers of `terms` and `diagrams` (so a test can show an export is
lossless), `termsum_to_json` and `deformedsum_to_json` build a sum's
export dicts up front (the CLI hands the objects to its streaming
writer instead), `canonical_key` spells a diagram's canonical form,
`bullet_cross` is the reference two-point construction (it pairs the free
leaves of two already-deformed diagrams across their tensor slots),
`expand_eager` builds both branches of the series order by order, the
reference for the series that builds each coefficient on first read,
`partial_matchings` and `all_contractions` enumerate every partial
pairing (of two leaf lists, and of a term as unmerged diagrams: the
references for the one pairing per orbit of `gamma_Q`), and
`iter_children` lists every child of a diagram with its path.

The `ref_*` functions are the walk-per-question forms of fast paths in
the package, kept as their oracles: `ref_canonicalize` re-emits a
product child's subtree for each shape and candidate serialization and
renames the ordered tree in a second pass, `ref_vertex_term` asks each
factor for its top and free indices walk by walk, `ref_graph_counts`
counts over `iter_children`, and `ref_diagram_for_matching` halves the
coefficient once per tagged coincident pair.  `run_argv` runs one
command line in-process, for the digest manifest.
"""

from fractions import Fraction
from itertools import combinations, permutations

from sthirring import diagrams
from sthirring.deformation import contractions
from sthirring.diagrams import (
    DeformedSum, Diagram, diagram_to_json, free_leaves, max_pair_id,
    rename_pair_ids, replace_at,
)
from sthirring.canonical import tie_orders
from sthirring.errors import InvariantError
from sthirring.perturbation import vertex_term
from sthirring.terms import (
    DOWN, GPSI, GPSIBAR, PHI, PHIBAR, UP,
    Conv, Gamma, Leaf, Node, Prod, Term, TermSum,
    convolve, grading, index_census, max_index, phi, phibar,
    rename_indices, sole_free_index, term_to_json,
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
    return diagrams._serialize(diagrams.canonicalize(diag).slots, {})


def partial_matchings(phis, phibars):
    """All injective partial matchings of the two leaf lists, by size."""
    for k in range(min(len(phis), len(phibars)) + 1):
        for ps in combinations(phis, k):
            for qs in permutations(phibars, k):
                yield tuple(zip(ps, qs))


def all_contractions(t: Term):
    """The unmerged Diagram of every partial pairing of a canonical term's
    Phi leaves with its PhiBar leaves, by size."""
    g = grading(t)
    for size in range(min(g.r, g.r_bar) + 1):
        yield from contractions(t, size)


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
    """`perturbation.vertex_term`, asking each renamed factor for its top
    and sole free index by a walk of its own."""

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
    """`diagrams.graph_counts` over `iter_children`."""
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
