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

Counterterm naming follows the branch structure of the cubic vertex: a
vertex whose factors carry a majority of spinor lines tags as Ctilde, a
cospinor-majority vertex tags as C.  Each tagged pairing carries weight
1/2 because the named constant denotes the lump of the two pairings of a
cubic vertex; this normalization is what makes the first renormalized
coefficient equal exactly Ctilde and the renormalized equation close at
higher orders.

The multilocal product deforms tensor products of already-deformed
factors: cross contractions between the tensor slots insert Q/Q_tilde with
no diagonal marker, and same-slot leaves are never re-contracted.
Expectation values are evaluations at the zero field configuration, i.e.
only fully contracted diagrams survive; an odd leaf count makes every
such sum empty.

H_k is read off the order-k defect of the renormalized equation; that
same sum, less H_k's insertion on F_0, is kept as H_k's residual.  So a
zero residual mostly checks the strip-and-graft round trip.  The content
is that every defect diagram has operator form (InvariantError
otherwise), that H_k is even, and that H_1 = Ctilde.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

from .diagrams import (
    DeformedSum, Diagram, convolved, free_leaves, iter_children, max_pair_id,
    rename_pair_ids, replace_at, tensor, vertex_join,
)
from .errors import InvariantError, UsageError
from .perturbation import COSPINOR, SPINOR, PerturbativeSeries
from .terms import (
    GPSI, PHI, PHIBAR,
    Conv, Const, Gamma, Leaf, Prod, Term, TermSum, Unit,
    canonical_key, canonicalize, grading,
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
    if isinstance(node, Unit):
        return
    if isinstance(node, Leaf):
        ref = len(leaves)
        leaves.append(LeafInfo(ref, node.species, vertex, taggable, tag))
        template.append(("leafref", ref))
    elif isinstance(node, Gamma):
        pass
    elif isinstance(node, Const):
        template.append(("const", node.name))
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


def term_census(t: Term):
    """(template, leaves) of a canonical term."""
    template: list = []
    leaves: list = []
    node = t.node
    if isinstance(node, Prod):
        has_gamma, name = _vertex_profile(node.children)
        _collect(node, (), (), has_gamma, name, template, leaves)
    else:
        _collect(node, (), (), False, CTILDE, template, leaves)
    return tuple(template), leaves


# --------------------------------------------------------------------------
# pairings
# --------------------------------------------------------------------------

def matchings_of_size(phis, phibars, k):
    """The injective matchings of exactly k Phi leaves with k PhiBar leaves."""
    for ps in combinations(phis, k):
        for qs in permutations(phibars, k):
            yield tuple(zip(ps, qs))


def partial_matchings(phis, phibars):
    """All injective partial matchings of the two leaf lists, by size."""
    for k in range(min(len(phis), len(phibars)) + 1):
        yield from matchings_of_size(phis, phibars, k)


def term_pairings(t: Term, size: int | None = None):
    """(template, leaves, matchings) of a canonical term, where matchings
    runs over every partial pairing of its Phi leaves with its PhiBar leaves,
    or, given a size, over the pairings of exactly that many pairs."""
    template, leaves = term_census(t)
    phis = [l.pos for l in leaves if l.species == PHI]
    bars = [l.pos for l in leaves if l.species == PHIBAR]
    if size is None:
        return template, leaves, partial_matchings(phis, bars)
    return template, leaves, matchings_of_size(phis, bars, size)


def contraction_count(r: int, r_bar: int, k: int) -> int:
    """Number of k-pair matchings of r Phi with r_bar PhiBar leaves."""
    if k < 0 or k > min(r, r_bar):
        raise UsageError(f"k={k} outside 0..min({r},{r_bar})")
    return factorial(k) * comb(r, k) * comb(r_bar, k)


def brute_force_contractions(r: int, r_bar: int, k: int) -> int:
    """Independent oracle: enumerate the matchings and count them."""
    return sum(1 for m in partial_matchings(range(r), range(r_bar))
               if len(m) == k)


# --------------------------------------------------------------------------
# the local deformation map
# --------------------------------------------------------------------------

def _instantiate(template, roles):
    out = []
    for entry in template:
        if entry[0] == "leafref":
            role = roles[entry[1]]
            if role is not None:
                out.append(role)
        elif entry[0] == "conv":
            out.append(("conv", entry[1], _instantiate(entry[2], roles)))
        else:
            out.append(entry)
    return tuple(out)


def _diagram_for_matching(t, template, leaves, matching):
    roles: dict = {i: ("free", leaves[i].species) for i in range(len(leaves))}
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
    body = _instantiate(template, roles)
    return Diagram((body,), t.coeff * weight)


def _require_canonical(t: Term) -> Term:
    if canonicalize(t).node != t.node:
        raise InvariantError("gamma_Q requires canonicalized input")
    return t


def gamma_Q(x: Term | TermSum) -> DeformedSum:
    """Local deformation: sum over all partial leaf pairings of each term."""
    terms = x.terms() if isinstance(x, TermSum) else [_require_canonical(x)]
    ds = DeformedSum(origin="gamma_Q")
    for t in terms:
        template, leaves, matchings = term_pairings(t)
        for matching in matchings:
            ds.add(_diagram_for_matching(t, template, leaves, matching))
    return ds


def deformed_coefficient(series: PerturbativeSeries, k: int,
                         branch: str = SPINOR) -> DeformedSum:
    """gamma_Q of one coefficient of the series, computed once per series
    and shared by every consumer; callers must not modify it."""
    ds = series._deformed.get((branch, k))
    if ds is None:
        ds = series._deformed[branch, k] = gamma_Q(series.coefficient(k, branch))
    return ds


def gamma_Q_convolved(kind: str, x: Term | TermSum) -> DeformedSum:
    """convolve(G, .) pushed through the deformation, diagram by diagram."""
    inner = gamma_Q(x)
    ds = DeformedSum(origin=inner.origin)
    for d in inner:
        ds.add(convolved(kind, d))
    return ds


# --------------------------------------------------------------------------
# multilocal cross contractions
# --------------------------------------------------------------------------

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


# --------------------------------------------------------------------------
# renormalization freedom
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RenormalizationShift:
    """Additive redefinition of one extension choice.

    Two admissible deformation maps differ by grading-indexed linear maps;
    the (j, j_bar) map annihilates every module of polynomial degree
    (r, r_bar) with r <= j+1 or r_bar <= j_bar+1.  A shift is recorded as a
    fresh named constant, never evaluated.
    """

    target: str      # counterterm id being shifted (e.g. Ctilde)
    j: int
    j_bar: int
    label: str       # fresh symbol for the shifted extension

    def vanishes_on(self, r: int, r_bar: int) -> bool:
        return r <= self.j + 1 or r_bar <= self.j_bar + 1


def shifted_gamma_Q(x: Term | TermSum, shift: RenormalizationShift) -> DeformedSum:
    """Deformation by the shifted map: on terms where the shift does not
    vanish, every tagged loop named `shift.target` additionally contributes
    a diagram retagged with the shift label."""
    terms = x.terms() if isinstance(x, TermSum) else [_require_canonical(x)]
    ds = DeformedSum(origin=f"gamma_Q+{shift.label}")
    for t in terms:
        g = grading(t)
        shifted = not shift.vanishes_on(g.r, g.r_bar)
        template, leaves, matchings = term_pairings(t)
        for matching in matchings:
            d = _diagram_for_matching(t, template, leaves, matching)
            ds.add(d)
            for ch, p in iter_children(d) if shifted else ():
                if ch == ("ctloop", shift.target):
                    ds.add(replace_at(d, p, ("ctloop", shift.label)))
    return ds


# --------------------------------------------------------------------------
# expectation values and two-point functions
# --------------------------------------------------------------------------

def expectation(series: PerturbativeSeries, k: int,
                branch: str = SPINOR) -> DeformedSum:
    """Deformed coefficient at the zero configuration; empty by leaf parity."""
    ds, _ = expectation_report(series, k, branch)
    return ds


def expectation_report(series: PerturbativeSeries, k: int,
                       branch: str = SPINOR) -> tuple[DeformedSum, int]:
    """(surviving diagrams, number of contraction patterns examined)."""
    ds = DeformedSum(origin=f"expectation[{branch}]", order=k)
    examined = 0
    for t in series.coefficient(k, branch):
        template, leaves, matchings = term_pairings(t)
        for matching in matchings:
            examined += 1
            if 2 * len(matching) == len(leaves):
                ds.add(_diagram_for_matching(t, template, leaves, matching))
    return ds, examined


def two_point(series: PerturbativeSeries, branch_a: str, branch_b: str,
              K: int) -> dict[int, DeformedSum]:
    """Order-by-order cross-deformed tensor product at zero configuration."""
    ga = {k: deformed_coefficient(series, k, branch_a) for k in range(K + 1)}
    gb = {k: deformed_coefficient(series, k, branch_b) for k in range(K + 1)}
    out = {}
    for k in range(K + 1):
        ds = DeformedSum(origin=f"two_point[{branch_a},{branch_b}]", order=k)
        for k1 in range(k + 1):
            for da in ga[k1]:
                for db in gb[k - k1]:
                    for d in bullet_cross(da, db):
                        if not free_leaves(d):
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

    order: int
    ops: DeformedSum
    residual: DeformedSum

    def is_even(self) -> bool:
        """Even polynomial field degree: all odd derivatives vanish at zero."""
        return all(len(free_leaves(d)) % 2 == 0 for d in self.ops)

    def as_term(self) -> Term:
        """Multiplication-operator form, available when no propagator or
        free leaf remains (e.g. H_1 = Ctilde)."""
        total = None
        for d in self.ops:
            kinds = sorted(ch[0] for ch, _ in iter_children(d))
            names = [ch[1] for ch, _ in iter_children(d) if ch[0] in ("ctloop", "const")]
            if any(k in ("free", "pair", "qloop", "conv") for k in kinds):
                raise InvariantError("operator is not a pointwise multiplication")
            if len(names) != 1:
                raise InvariantError("composite multiplication operator")
            t = Term(d.coeff, Const(names[0], self.order, 0, 1))
            total = t if total is None else _term_add(total, t)
        if total is None:
            raise InvariantError("empty operator")
        return total


def _term_add(a: Term, b: Term) -> Term:
    if canonical_key(a) != canonical_key(b):
        raise InvariantError("operator is a sum of distinct terms")
    return Term(a.coeff + b.coeff, a.node)


def _argport(op_diag: Diagram) -> tuple[str, tuple]:
    """(species, path) of the operator's one argument port."""
    for ch, p in iter_children(op_diag):
        if ch[0] == "argport":
            return ch[1], p
    raise InvariantError("operator diagram has no argument slot")


def apply_operator(op_diag: Diagram, u: Diagram) -> Diagram:
    """Graft u into the operator's argument slot (operator composition)."""
    if len(u.slots) != 1:
        raise InvariantError("operator argument must be single-slot")
    off = max_pair_id(op_diag) + 1
    shifted = rename_pair_ids(u.slots[0], lambda p: p + off)
    grafted = replace_at(op_diag, _argport(op_diag)[1], list(shifted))
    return Diagram(grafted.slots, grafted.coeff * u.coeff)


def _designate(d: Diagram) -> Diagram:
    """Replace the first free Phi leaf by an argument port.  Every diagram
    of a defect has one more free Phi than free PhiBar, so one exists."""
    phis = [p for sp, p in free_leaves(d) if sp == PHI]
    if not phis:
        raise InvariantError("residual diagram with no free Phi leaf")
    return replace_at(d, phis[0], ("argport", PHI))


def _strip_and_mark(defect: DeformedSum, order: int) -> DeformedSum:
    """Unwrap each defect diagram and mark a free leaf as the argument."""
    ops = DeformedSum(origin=f"H_{order}", order=order)
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
    ds = DeformedSum(order=k)
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
    gf = {k: deformed_coefficient(series, k, SPINOR) for k in range(K + 1)}
    gf_bar = {k: deformed_coefficient(series, k, COSPINOR) for k in range(K + 1)}
    H: dict[int, CountertermOperator] = {}
    for k in range(1, K + 1):
        defect = DeformedSum(order=k)
        defect.extend(gf[k])
        defect.extend(_pointwise_cubic(gf_bar, gf, k), scale=-1)
        for j in range(1, k):
            _subtract_insertions(defect, H[j].ops, gf[k - j])
        H[k] = CountertermOperator(k, _strip_and_mark(defect, k), defect)
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
