"""Noise-encoding deformation maps as contraction combinatorics.

The local map acts on a canonical term by summing over all injective
partial pairings of Phi leaves with PhiBar leaves.  A pairing between
leaves at distinct vertices inserts a covariance edge: Q when the Phi
factor stands to the left of the PhiBar factor, Q_tilde (which carries the
sign of its kernel) for the opposite orientation.  A pairing between two
leaves of the same pointwise vertex is a coincident-point product: if the
pair is wired through the vertex's gamma insertions the ill-defined kernel
is replaced by a named counterterm tag, otherwise the diagonal kernel is
kept as an explicit Q/Q_tilde loop with a DeltaDiag marker.

`contractions(t, size)` enumerates every pairing of `size` pairs as an
unmerged diagram; the maximal graphs of power counting and the DOT export
(size 0) take theirs from it.  The sums (the local map `gamma_Q` of a
`TermSum`, expectation values and two-point functions) deform one pairing
per orbit of the leaf permutations that stay inside a run (leaves of one
species at one vertex, adjacent in the canonical tree), scaled by the
orbit size (`orbit_matchings`).  A `TermSum` holds each term in canonical
form, where the Phi leaves of a vertex are adjacent siblings, and so are
its PhiBar leaves, since the children of a product are sorted by shape.
Such a permutation therefore keeps which end of every pair comes first,
and with it the Q/Q_tilde label, the vertex, the tag and the 1/2 weight.
The diagrams of one orbit differ only in sibling order, which
canonicalization forgets.  Swapping identical convolved subtrees would
flip Q and Q_tilde, so those stay apart.

Counterterm naming follows the branch structure of the cubic vertex: a
vertex whose factors carry a majority of spinor lines tags as Ctilde, a
cospinor-majority vertex tags as C.  Each tagged pairing carries weight
1/2 because the named constant denotes the lump of the two pairings of a
cubic vertex; this normalization is what makes the first renormalized
coefficient equal exactly Ctilde and the renormalized equation close at
higher orders.

Expectation values and two-point functions are evaluations at the zero
field configuration, so only complete pairings survive.  They are the
complete pairings of one census: of one monomial for an expectation, of
a monomial pair t_a (x) t_b, one term per tensor slot, for a two-point
function.  The slots never share a vertex, so a pair across them is
never coincident: it carries no diagonal marker, and it is Q when its
slot-0 end is Phi.  A census with unequal Phi and PhiBar counts (every
F_k monomial, and every same-branch pair) has no complete pairing, and
no orbit of it is walked; an expectation counts its partial pairings
from each monomial's grading.

H_k is read off the order-k defect of the renormalized equation; that
same sum, less H_k's insertion on F_0, is kept as H_k's residual.  So a
zero residual mostly checks the strip-and-graft round trip.  The content
is that every defect diagram has operator form (InvariantError
otherwise), that H_k is even, and that H_1 = Ctilde.  Each tag names one
fixed extension of its coincident kernel; the renormalization freedom to
shift that choice is not represented.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, factorial, prod

from .diagrams import (
    DeformedSum, Diagram, convolved, free_leaves, max_pair_id, rename_pair_ids,
    replace_at, vertex_join,
)
from .errors import InvariantError, UsageError
from .perturbation import COSPINOR, SPINOR, PerturbativeSeries
from .terms import (
    GPSI, PHI, PHIBAR,
    Conv, Gamma, Leaf, Prod, Term, TermSum, grading,
)

CTILDE = "Ctilde"
C = "C"


# --------------------------------------------------------------------------
# leaf census of a term
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LeafInfo:
    pos: int            # order of appearance in the canonical tree
    species: str
    vertex: tuple       # path of the enclosing pointwise vertex
    taggable: bool      # gamma-wired vertex: coincident pairs become tags
    tag: str            # counterterm name used if a coincident pair is tagged


def _vertex_profile(children):
    """(has_gamma, tag name) from the factor polarities at one vertex."""
    has_gamma = any(isinstance(c, Gamma) for c in children)
    up = down = 0
    for c in children:
        if isinstance(c, Leaf):
            up, down = (up + 1, down) if c.species == PHI else (up, down + 1)
        elif isinstance(c, Conv):
            up, down = (up + 1, down) if c.kind == GPSI else (up, down + 1)
    return has_gamma, (CTILDE if up >= down else C)


def _collect(node, path, vertex, taggable, tag, template, leaves):
    """Build the skeleton template and the leaf census in one pass."""
    if isinstance(node, Leaf):
        ref = len(leaves)
        leaves.append(LeafInfo(ref, node.species, vertex, taggable, tag))
        template.append(("leafref", ref, ("free", node.species)))
    elif isinstance(node, Gamma):
        pass
    elif isinstance(node, Conv):
        sub: list = []
        inner_vertex = path + ("c",)
        if isinstance(node.inner, Prod):
            has_gamma, name = _vertex_profile(node.inner.children)
            _collect(node.inner, inner_vertex, inner_vertex, has_gamma, name,
                     sub, leaves)
        else:
            _collect(node.inner, inner_vertex, inner_vertex, False, CTILDE,
                     sub, leaves)
        template.append(("conv", node.kind, tuple(sub)))
    elif isinstance(node, Prod):
        for i, c in enumerate(node.children):
            _collect(c, path + (i,), vertex, taggable, tag, template, leaves)
    else:  # pragma: no cover
        raise TypeError(node)


def term_census(*slots: Term):
    """(templates, leaves) of canonical terms, one per tensor slot: a
    template per slot, and one census whose vertex paths start with the
    slot index and whose `pos` runs on across the slots."""
    templates = []
    leaves: list = []
    for s, t in enumerate(slots):
        template: list = []
        has_gamma, name = (_vertex_profile(t.node.children)
                           if isinstance(t.node, Prod) else (False, CTILDE))
        _collect(t.node, (s,), (s,), has_gamma, name, template, leaves)
        templates.append(tuple(template))
    return tuple(templates), leaves


# --------------------------------------------------------------------------
# pairings
# --------------------------------------------------------------------------

def contraction_count(r: int, r_bar: int, k: int) -> int:
    """Number of k-pair matchings of r Phi with r_bar PhiBar leaves."""
    if k < 0 or k > min(r, r_bar):
        raise UsageError(f"k={k} outside 0..min({r},{r_bar})")
    return factorial(k) * comb(r, k) * comb(r_bar, k)


def brute_force_contractions(r: int, r_bar: int, k: int) -> int:
    """Independent oracle: enumerate the k-pair matchings, a choice of k
    Phi leaves times an arrangement of k PhiBar leaves, and count them."""
    return sum(1 for _ in combinations(range(r), k)
               for _ in permutations(range(r_bar), k))


def leaf_runs(leaves, species):
    """The positions of a census's `species` leaves, in maximal runs of
    leaves adjacent in `pos` order that share that species and a vertex."""
    runs: list = []
    prev = None
    for l in leaves:
        here = (l.species, l.vertex)
        if l.species == species:
            if here == prev:
                runs[-1].append(l.pos)
            else:
                runs.append([l.pos])
        prev = here
    return runs


def orbit_matchings(phi_runs, bar_runs, complete=False):
    """(matching, orbit size): one partial matching per orbit of the leaf
    permutations that stay inside a run; with `complete`, only the
    matchings that pair every Phi leaf.

    An orbit is fixed by its table n[u][w], the number of pairs between
    Phi run u and PhiBar run w.  The representative pairs the leaves of
    each run in `pos` order, and the orbit has
    prod_u r_u!/((r_u - row_u)! prod_w n_uw!) * prod_w rb_w!/(rb_w - col_w)!
    members (which leaves of run u pair into each column, times the
    injections of each column's Phi leaves into run w).  Tables come in
    lexicographic order; a cell whose row or column is full holds 0 and
    is passed over, and a complete table fills each row by its last
    column."""
    cells = [(u, w) for u in range(len(phi_runs)) for w in range(len(bar_runs))]
    row_left = [len(r) for r in phi_runs]
    col_left = [len(r) for r in bar_runs]
    table = [0] * len(cells)
    full = 1
    for r in phi_runs + bar_runs:
        full *= factorial(len(r))
    for _ in _orbit_tables(0, cells, table, row_left, col_left, complete):
        matching = []
        taken_u = [0] * len(phi_runs)
        taken_w = [0] * len(bar_runs)
        drop = 1
        for (u, w), n in zip(cells, table):
            if n:
                pu, pw = taken_u[u], taken_w[w]
                matching += zip(phi_runs[u][pu:pu + n], bar_runs[w][pw:pw + n])
                taken_u[u], taken_w[w] = pu + n, pw + n
                drop *= factorial(n)
        for left in row_left + col_left:
            drop *= factorial(left)
        yield tuple(matching), full // drop


def _orbit_tables(i, cells, table, row_left, col_left, complete):
    """Yield once for each table of `orbit_matchings` that extends
    table[:i], with table, row_left and col_left set to it while it is
    yielded.  A module-level generator, so no closure cycle keeps the
    tables alive after the walk."""
    while i < len(cells) and not (row_left[cells[i][0]] and
                                  col_left[cells[i][1]]):
        i += 1
    if i == len(cells):
        if not (complete and any(row_left)):
            yield
        return
    u, w = cells[i]
    last = complete and w == len(col_left) - 1
    for n in range(row_left[u] if last else 0,
                   min(row_left[u], col_left[w]) + 1):
        table[i] = n
        row_left[u] -= n
        col_left[w] -= n
        yield from _orbit_tables(i + 1, cells, table, row_left, col_left,
                                 complete)
        row_left[u] += n
        col_left[w] += n
    table[i] = 0


# --------------------------------------------------------------------------
# the local deformation map
# --------------------------------------------------------------------------

def _instantiate(template, roles):
    """The slot of a template; a leaf without a role in roles stays free."""
    out = []
    for entry in template:
        if entry[0] == "conv":
            out.append(("conv", entry[1], _instantiate(entry[2], roles)))
        elif (role := roles.get(entry[1], entry[2])) is not None:  # a leafref
            out.append(role)
    return tuple(out)


def _diagram_for_matching(coeff, templates, leaves, matching):
    """The diagram of one matching of census positions; each tagged
    coincident pair halves the coefficient, in one division."""
    roles: dict = {}
    halvings = 0
    pid = 0
    for li, lj in matching:
        a, b = leaves[li], leaves[lj]
        first, second = (a, b) if a.pos < b.pos else (b, a)
        qt = "Q" if first.species == PHI else "Qt"
        if a.vertex == b.vertex:
            if a.taggable:
                roles[first.pos] = ("ctloop", a.tag)
                halvings += 1
            else:
                roles[first.pos] = ("qloop", qt)
            roles[second.pos] = None
        else:
            roles[a.pos] = ("pair", pid, a.species, qt)
            roles[b.pos] = ("pair", pid, b.species, qt)
            pid += 1
    return Diagram(tuple(_instantiate(tpl, roles) for tpl in templates),
                   coeff / (1 << halvings) if halvings else coeff)


def contractions(t: Term, size: int):
    """The unmerged Diagram of every pairing of `size` of a canonical
    term's Phi leaves with as many of its PhiBar leaves: each choice of
    Phi leaves, in order, times each arrangement of PhiBar leaves.  Power
    counting takes the maximal pairings and the DOT export the empty one;
    the sums take one pairing per orbit instead."""
    templates, leaves = term_census(t)
    phis = [l.pos for l in leaves if l.species == PHI]
    bars = [l.pos for l in leaves if l.species == PHIBAR]
    for ps in combinations(phis, size):
        for qs in permutations(bars, size):
            yield _diagram_for_matching(t.coeff, templates, leaves,
                                        tuple(zip(ps, qs)))


def _orbit_contractions(*slots: Term, complete=False):
    """One Diagram per orbit of the pairings of the census of `slots` (one
    canonical term per tensor slot) under the leaf permutations inside
    each run, scaled by the orbit size.  With `complete`, only the
    pairings of every leaf: none, and no orbit walked, unless the census
    has as many Phi leaves as PhiBar leaves."""
    templates, leaves = term_census(*slots)
    runs = leaf_runs(leaves, PHI), leaf_runs(leaves, PHIBAR)
    if complete and sum(map(len, runs[0])) != sum(map(len, runs[1])):
        return
    coeff = prod(t.coeff for t in slots)
    for matching, size in orbit_matchings(*runs, complete):
        yield _diagram_for_matching(coeff, templates, leaves,
                                    matching).scaled(size)


def gamma_Q(s: TermSum) -> DeformedSum:
    """Local deformation: the sum over all partial leaf pairings of each
    term of s, in the canonical form the sum holds it in."""
    return DeformedSum(d for t in s for d in _orbit_contractions(t))


def gamma_Q_convolved(kind: str, s: TermSum) -> DeformedSum:
    """convolve(G, .) pushed through the deformation, diagram by diagram."""
    return DeformedSum(convolved(kind, d) for d in gamma_Q(s))


# --------------------------------------------------------------------------
# expectation values and two-point functions
# --------------------------------------------------------------------------

def expectation_report(series: PerturbativeSeries, k: int,
                       branch: str = SPINOR) -> tuple[DeformedSum, int]:
    """(surviving diagrams, number of contraction patterns examined); only
    complete pairings are built, the others are counted from the grading."""
    ds = DeformedSum()
    examined = 0
    for t in series.coefficient(k, branch):
        g = grading(t)
        examined += sum(contraction_count(g.r, g.r_bar, j)
                        for j in range(min(g.r, g.r_bar) + 1))
        for d in _orbit_contractions(t, complete=True):
            ds.add(d)
    return ds, examined


def two_point(series: PerturbativeSeries, branch_a: str, branch_b: str,
              K: int) -> dict[int, DeformedSum]:
    """Order by order, the complete pairings of the two-slot census of
    every monomial pair t_a (x) t_b, t_a in F^a_k1 and t_b in F^b_(k-k1)."""
    out = {}
    for k in range(K + 1):
        ds = DeformedSum()
        for k1 in range(k + 1):
            for ta in series.coefficient(k1, branch_a):
                for tb in series.coefficient(k - k1, branch_b):
                    for d in _orbit_contractions(ta, tb, complete=True):
                        ds.add(d)
        out[k] = ds
    return out


# --------------------------------------------------------------------------
# counterterm extraction and the renormalized equation
# --------------------------------------------------------------------------

@dataclass
class CountertermOperator:
    """H_k: operator diagrams with one marked argument slot each, and the
    order-k defect of the renormalized equation with H_1..H_k inserted."""

    ops: DeformedSum
    residual: DeformedSum

    def is_even(self) -> bool:
        """Even polynomial field degree: all odd derivatives vanish at zero."""
        return all(len(free_leaves(d)) % 2 == 0 for d in self.ops)


def apply_operator(op_diag: Diagram, u: Diagram) -> Diagram:
    """Graft u into the operator's argument slot (operator composition):
    one pass over the operator splices u's children, their pair ids moved
    past the operator's, in place of the argument port."""
    if len(u.slots) != 1:
        raise InvariantError("operator argument must be single-slot")
    off = max_pair_id(op_diag) + 1
    shifted = rename_pair_ids(u.slots[0], lambda p: p + off)
    grafts = [_graft(body, shifted) for body in op_diag.slots]
    if not any(found for _, found in grafts):
        raise InvariantError("operator diagram has no argument slot")
    return Diagram(tuple(body for body, _ in grafts), op_diag.coeff * u.coeff)


def _graft(children, shifted) -> tuple[tuple, bool]:
    """(children with each argument port replaced by the children shifted,
    whether there was a port)."""
    out = []
    grafted = False
    for ch in children:
        if ch[0] == "argport":
            out += shifted
            grafted = True
        elif ch[0] == "conv":
            inner, found = _graft(ch[2], shifted)
            out.append(("conv", ch[1], inner))
            grafted = grafted or found
        else:
            out.append(ch)
    return tuple(out), grafted


def _designate(d: Diagram) -> Diagram:
    """Replace the first free Phi leaf by an argument port.  Every diagram
    of a defect has one more free Phi than free PhiBar, so one exists."""
    phis = [p for sp, p in free_leaves(d) if sp == PHI]
    if not phis:
        raise InvariantError("residual diagram with no free Phi leaf")
    return replace_at(d, phis[0], ("argport", PHI))


def _strip_and_mark(defect: DeformedSum) -> DeformedSum:
    """Unwrap each defect diagram and mark a free leaf as the argument."""
    ops = DeformedSum()
    for d in defect:
        if len(d.slots) != 1 or len(d.slots[0]) != 1 or \
                d.slots[0][0][0] != "conv" or d.slots[0][0][1] != GPSI:
            raise InvariantError("residual not wrapped in the branch propagator")
        inner = Diagram((d.slots[0][0][2],), d.coeff)
        ops.add(_designate(inner))
    return ops


def _pointwise_cubic(gf_bar, gf, k: int) -> DeformedSum:
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


def extract_counterterms(series: PerturbativeSeries, K: int) -> dict[int, CountertermOperator]:
    """The operators H_k making the renormalized equation hold through K,
    each read off the order-k defect (Gamma(F_k) minus the pointwise cubic
    and the H_1..H_{k-1} insertions) that becomes its residual."""
    if K > series.max_order:
        raise UsageError("K above series order")
    gf = {k: gamma_Q(series.coefficient(k, SPINOR)) for k in range(K + 1)}
    gf_bar = {k: gamma_Q(series.coefficient(k, COSPINOR)) for k in range(K)}
    H: dict[int, CountertermOperator] = {}
    for k in range(1, K + 1):
        defect = DeformedSum()
        defect.extend(gf[k])
        defect.extend(_pointwise_cubic(gf_bar, gf, k), scale=-1)
        for j in range(1, k):
            _subtract_insertions(defect, H[j].ops, gf[k - j])
        H[k] = CountertermOperator(_strip_and_mark(defect), defect)
        if not H[k].is_even():
            raise InvariantError(f"H_{k} has odd field degree")
        # in place: the defect becomes H[k].residual
        _subtract_insertions(defect, H[k].ops, gf[0])
    return H


def _subtract_insertions(defect: DeformedSum, ops: DeformedSum,
                         u: DeformedSum) -> None:
    """defect -= G_psi * (op du) for every operator diagram op and every
    spinor-branch diagram du of u (each op's argument port is a Phi)."""
    for h in ops:
        for du in u:
            defect.add(convolved(GPSI, apply_operator(h, du)).scaled(-1))
