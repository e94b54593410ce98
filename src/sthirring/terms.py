"""Symbolic functional-valued vector distributions.

A term is a tree built from the generators Phi (spinor) and PhiBar
(cospinor), pointwise products, propagator convolutions G_psi / G_psibar,
symbolic gamma-matrix elements and named counterterm constants, together
with an exact rational coefficient.  Abstract spinor indices wire the tree:
an index id occurring twice is contracted (once with upper, once with lower
polarity), an id occurring once is free and determines the external rank.
Vector indices only ever pair two gamma insertions.  A tree that breaks
these wiring rules, or a rank mismatch at a propagator, is an
`InvariantError`: the recursion never builds one.

Smearing functions and field configurations are never materialized; the
noise content is handled downstream by the deformation machinery, which
only needs the leaf structure, the vertex layout and the grading exposed
here.  Coefficients are kept as exact fractions because the contraction
combinatorics (factorials times binomials) must merge exactly.

Canonical forms: two terms that agree as abstract functionals up to
commutativity of the pointwise product and renaming of abstract indices
canonicalize to the identical tree.  Product children are sorted by a
shape key; groups of children that remain tied *and* are coupled through
shared indices are resolved by brute-force permutation, taking the
lexicographically smallest serialization.  Tied groups in this model are
tiny (at most a few identical branches), so the search is cheap.  A
child's shape counts each index's occurrences inside the child from one
table of occurrence positions built per canonicalization.  The canonical
tree has its indices renamed 0, 1, 2, ... in order of first occurrence, so
the walk that assigns those names spells its serialization, which is its
key: `canonicalize` records it on the returned term and `TermSum.add`
merges under it, with no second search and no second walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .canonical import KeyedSum, tie_orders
from .errors import InvariantError

PHI = "phi"
PHIBAR = "phibar"
GPSI = "G_psi"
GPSIBAR = "G_psi_bar"

UP = 1
DOWN = -1

# --------------------------------------------------------------------------
# node types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Unit:
    pass


@dataclass(frozen=True)
class Leaf:
    species: str  # PHI | PHIBAR
    index: int


@dataclass(frozen=True)
class Gamma:
    """(gamma^mu)^row_col as a symbolic matrix element."""

    mu: int
    row: int
    col: int


@dataclass(frozen=True)
class Const:
    """Named counterterm matrix (C)^row_col; never numerically evaluated."""

    name: str
    order: int
    row: int
    col: int


@dataclass(frozen=True)
class Conv:
    """(G)^out_in convolved against the inner term's free index."""

    kind: str  # GPSI | GPSIBAR
    out_index: int
    in_index: int
    inner: "Node"


@dataclass(frozen=True)
class Prod:
    children: tuple


Node = Unit | Leaf | Gamma | Const | Conv | Prod


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    node: Node

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    def scaled(self, c) -> "Term":
        return Term(self.coeff * Fraction(c), self.node)


ZERO = Term(Fraction(0), Unit())


def phi(index: int = 0) -> Term:
    return Term(Fraction(1), Leaf(PHI, index))


def phibar(index: int = 0) -> Term:
    return Term(Fraction(1), Leaf(PHIBAR, index))


def is_zero(t: Term) -> bool:
    return t.coeff == 0


# --------------------------------------------------------------------------
# traversal
# --------------------------------------------------------------------------

def _children(node: Node):
    if isinstance(node, Conv):
        return (node.inner,)
    if isinstance(node, Prod):
        return node.children
    return ()


def index_occurrences(node: Node):
    """Yields (index, polarity, kind) with kind 'spinor' or 'vector'."""
    if isinstance(node, Leaf):
        yield node.index, (UP if node.species == PHI else DOWN), "spinor"
    elif isinstance(node, Gamma):
        yield node.mu, 0, "vector"
        yield node.row, UP, "spinor"
        yield node.col, DOWN, "spinor"
    elif isinstance(node, Const):
        yield node.row, UP, "spinor"
        yield node.col, DOWN, "spinor"
    elif isinstance(node, Conv):
        up_out = node.kind == GPSI
        yield node.out_index, (UP if up_out else DOWN), "spinor"
        yield node.in_index, (DOWN if up_out else UP), "spinor"
        yield from index_occurrences(node.inner)
    elif isinstance(node, Prod):
        for c in node.children:
            yield from index_occurrences(c)


def index_census(node: Node) -> dict:
    census = {}
    for idx, pol, kind in index_occurrences(node):
        census.setdefault(idx, []).append((pol, kind))
    return census


def free_indices(node: Node) -> dict:
    """Map free index -> (polarity, kind)."""
    return {
        idx: occ[0]
        for idx, occ in index_census(node).items()
        if len(occ) == 1
    }


def validate(node: Node) -> None:
    for idx, occ in index_census(node).items():
        if len(occ) > 2:
            raise InvariantError(f"index {idx} occurs {len(occ)} times")
        kinds = {k for _, k in occ}
        if len(kinds) > 1:
            raise InvariantError(f"index {idx} mixes vector and spinor slots")
        if len(occ) == 2 and "spinor" in kinds:
            if occ[0][0] + occ[1][0] != 0:
                raise InvariantError(f"index {idx} contracted with equal polarity")


def sole_free_index(node: Node, pol: int) -> int:
    """The one free spinor index of polarity pol; InvariantError unless
    there is exactly one."""
    slots = [idx for idx, (p, kind) in free_indices(node).items()
             if kind == "spinor" and p == pol]
    if len(slots) != 1:
        raise InvariantError(
            f"expected exactly one free {'upper' if pol == UP else 'lower'} "
            f"spinor index, found {len(slots)}")
    return slots[0]


def external_rank(node: Node) -> tuple[int, int]:
    """(free upper spinor indices, free lower spinor indices)."""
    up = down = 0
    for pol, kind in free_indices(node).values():
        if kind != "spinor":
            continue
        if pol == UP:
            up += 1
        else:
            down += 1
    return up, down


def max_index(node: Node) -> int:
    return max((idx for idx, _, _ in index_occurrences(node)), default=-1)


def rename_indices(node: Node, f) -> Node:
    """The same tree with every index id i replaced by f(i)."""
    if isinstance(node, Unit):
        return node
    if isinstance(node, Leaf):
        return Leaf(node.species, f(node.index))
    if isinstance(node, Gamma):
        return Gamma(f(node.mu), f(node.row), f(node.col))
    if isinstance(node, Const):
        return Const(node.name, node.order, f(node.row), f(node.col))
    if isinstance(node, Conv):
        return Conv(node.kind, f(node.out_index), f(node.in_index),
                    rename_indices(node.inner, f))
    return Prod(tuple(rename_indices(c, f) for c in node.children))


# --------------------------------------------------------------------------
# grading
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Grading:
    r: int
    r_bar: int
    l: int
    l_bar: int

    def __add__(self, other: "Grading") -> "Grading":
        return Grading(self.r + other.r, self.r_bar + other.r_bar,
                       self.l + other.l, self.l_bar + other.l_bar)

    def as_tuple(self):
        return (self.r, self.r_bar, self.l, self.l_bar)


def grading(t: Term | Node) -> Grading:
    node = t.node if isinstance(t, Term) else t
    r = r_bar = l = l_bar = 0
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Leaf):
            if n.species == PHI:
                r += 1
            else:
                r_bar += 1
        elif isinstance(n, Conv):
            if n.kind == GPSI:
                l += 1
            else:
                l_bar += 1
        stack.extend(_children(n))
    return Grading(r, r_bar, l, l_bar)


# --------------------------------------------------------------------------
# algebra operations
# --------------------------------------------------------------------------

def _flatten(children):
    out = []
    for c in children:
        if isinstance(c, Unit):
            continue
        if isinstance(c, Prod):
            out.extend(c.children)
        else:
            out.append(c)
    return tuple(out)


def product(a: Term, b: Term) -> Term:
    """Pointwise product.  Unit is the identity, the zero term absorbs.
    The indices of b are shifted into a fresh range above those of a."""
    if is_zero(a) or is_zero(b):
        return ZERO
    off = max_index(a.node) + 1
    node_b = rename_indices(b.node, lambda i: i + off)
    if isinstance(a.node, Unit):
        return Term(a.coeff * b.coeff, node_b)
    if isinstance(node_b, Unit):
        return Term(a.coeff * b.coeff, a.node)
    return Term(a.coeff * b.coeff, Prod(_flatten((a.node, node_b))))


def convolve(kind: str, t: Term) -> Term:
    """Wrap t in a propagator convolution, contracting its unique free index.

    G_psi acts on spinor rank (one free upper index), G_psibar on cospinor
    rank (one free lower index); anything else is a rank mismatch.
    """
    if kind not in (GPSI, GPSIBAR):
        raise InvariantError(f"unknown propagator kind {kind!r}")
    if is_zero(t):
        return ZERO
    slot = sole_free_index(t.node, UP if kind == GPSI else DOWN)
    out = max_index(t.node) + 1
    return Term(t.coeff, Conv(kind, out, slot, t.node))


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


# --------------------------------------------------------------------------
# canonical form
# --------------------------------------------------------------------------

def _emit(node: Node, name, tokens: list) -> None:
    """Append the serialization tokens of node; name(idx) spells an index."""
    if isinstance(node, Unit):
        tokens.append("1")
    elif isinstance(node, Leaf):
        tokens.append(f"L[{node.species},{name(node.index)}]")
    elif isinstance(node, Gamma):
        tokens.append(f"g[{name(node.mu)},{name(node.row)},{name(node.col)}]")
    elif isinstance(node, Const):
        tokens.append(f"K[{node.name},{node.order},{name(node.row)},{name(node.col)}]")
    elif isinstance(node, Conv):
        tokens.append(f"C[{node.kind},{name(node.out_index)},{name(node.in_index)}](")
        _emit(node.inner, name, tokens)
        tokens.append(")")
    elif isinstance(node, Prod):
        tokens.append("P(")
        for c in node.children:
            _emit(c, name, tokens)
            tokens.append(",")
        tokens.append(")")
    else:  # pragma: no cover
        raise TypeError(node)


def _namer(naming: dict):
    """Index namer that assigns i0, i1, ... on first encounter into naming."""

    def name(idx):
        if idx not in naming:
            naming[idx] = f"i{len(naming)}"
        return naming[idx]

    return name


def _occurrences(node: Node):
    """(where, span) from one walk in `index_occurrences` order: where[i]
    lists the positions of index i, span[id(n)] is the half-open range of
    positions inside subtree n."""
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
            own = [i for i, _, _ in index_occurrences(n)]
        for i in own:
            where.setdefault(i, []).append(count)
            count += 1
        for c in _children(n):
            visit(c)
        span[id(n)] = (lo, count)

    visit(node)
    return where, span


def _child_shape(child: Node, occ, prenamed: dict) -> str:
    """Order key for a product child.

    Indices already named in the enclosing context keep their names; indices
    local to the child get positional names; indices linking to siblings
    (or free elsewhere) are reduced to link/free markers so that the key is
    independent of sibling identity.  occ is the `_occurrences` table of
    the whole term, so counting an index inside the child walks nothing.
    """
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
    _emit(child, name, tokens)
    return "".join(tokens)


def _order_prod(node: Prod, naming: dict, occ) -> tuple:
    """Canonical child order for a product under the current naming."""
    kids = node.children
    orders = tie_orders(kids, [_child_shape(c, occ, naming) for c in kids],
                        "*LINK*")
    if len(orders) == 1:
        return orders[0]

    def serialization(cand):
        name = _namer(dict(naming))
        tokens: list = []
        for c in cand:
            _emit(c, name, tokens)
            tokens.append(",")
        return "".join(tokens)

    return min(orders, key=serialization)


def _canon_node(node: Node, naming: dict, occ) -> Node:
    name = _namer(naming)
    if isinstance(node, (Unit, Leaf, Gamma, Const)):
        for idx, _, _ in index_occurrences(node):
            name(idx)
        return node
    if isinstance(node, Conv):
        name(node.out_index)
        name(node.in_index)
        inner = _canon_node(node.inner, naming, occ)
        return Conv(node.kind, node.out_index, node.in_index, inner)
    if isinstance(node, Prod):
        flat = Prod(_flatten(node.children))
        if not flat.children:
            return Unit()
        ordered = _order_prod(flat, naming, occ)
        out = tuple(_canon_node(c, naming, occ) for c in ordered)
        return Prod(out)
    raise TypeError(node)  # pragma: no cover


def canonicalize(t: Term) -> Term:
    """Canonical representative: sorted products, indices renamed 0,1,2,...
    in order of first occurrence.  The returned term carries its
    serialization as `_key`: the tokens that name the indices by first
    occurrence spell the renamed tree."""
    if is_zero(t):
        return ZERO
    validate(t.node)
    ordered = _canon_node(t.node, {}, _occurrences(t.node))
    first_seen: dict = {}
    tokens: list = []
    _emit(ordered, _namer(first_seen), tokens)
    rank = {old: r for r, old in enumerate(first_seen)}
    out = Term(t.coeff, rename_indices(ordered, rank.__getitem__))
    object.__setattr__(out, "_key", "".join(tokens))
    return out


def canonical_key(t: Term | Node) -> str:
    node = t.node if isinstance(t, Term) else t
    return canonicalize(Term(Fraction(1), node))._key


# --------------------------------------------------------------------------
# sums of terms
# --------------------------------------------------------------------------

class TermSum(KeyedSum):
    """Formal sum of terms with exact coefficients, merged by canonical form."""

    def add(self, t: Term) -> None:
        if is_zero(t):
            return
        ct = canonicalize(t)
        self._merge(ct._key, ct)

    terms = KeyedSum.entries

    def map(self, fn) -> "TermSum":
        return TermSum(fn(t) for t in self.terms())


# --------------------------------------------------------------------------
# TeX and JSON
# --------------------------------------------------------------------------

_TEX_SPECIES = {PHI: r"\Phi^{%s}", PHIBAR: r"\bar{\Phi}_{%s}"}


def _idx_tex(i: int) -> str:
    return f"\\rho_{{{i}}}"


def to_tex(t: Term | Node) -> str:
    node = t.node if isinstance(t, Term) else t
    prefix = ""
    if isinstance(t, Term) and t.coeff != 1:
        prefix = (f"{t.coeff.numerator}" if t.coeff.denominator == 1
                  else f"\\tfrac{{{t.coeff.numerator}}}{{{t.coeff.denominator}}}") + r"\,"
    return prefix + _node_tex(node)


def _node_tex(node: Node) -> str:
    if isinstance(node, Unit):
        return r"\mathbf{1}"
    if isinstance(node, Leaf):
        return _TEX_SPECIES[node.species] % _idx_tex(node.index)
    if isinstance(node, Gamma):
        return (rf"(\gamma^{{\mu_{{{node.mu}}}}})"
                rf"^{{{_idx_tex(node.row)}}}_{{{_idx_tex(node.col)}}}")
    if isinstance(node, Const):
        sym = r"\widetilde{C}" if node.name == "Ctilde" else node.name
        return rf"{sym}^{{{_idx_tex(node.row)}}}_{{{_idx_tex(node.col)}}}"
    if isinstance(node, Conv):
        g = r"G_{\psi}" if node.kind == GPSI else r"G_{\bar\psi}"
        return (rf"({g})^{{{_idx_tex(node.out_index)}}}_{{{_idx_tex(node.in_index)}}}"
                rf"\circledast\!\left[{_node_tex(node.inner)}\right]")
    if isinstance(node, Prod):
        return r"\,".join(_node_tex(c) for c in node.children)
    raise TypeError(node)  # pragma: no cover


def node_to_json(node: Node) -> dict:
    if isinstance(node, Unit):
        return {"kind": "unit"}
    if isinstance(node, Leaf):
        return {"kind": "leaf", "species": node.species, "index": str(node.index)}
    if isinstance(node, Gamma):
        return {"kind": "gamma", "mu": str(node.mu),
                "row": str(node.row), "col": str(node.col)}
    if isinstance(node, Const):
        return {"kind": "const", "name": node.name, "order": node.order,
                "row": str(node.row), "col": str(node.col)}
    if isinstance(node, Conv):
        return {"kind": "conv", "propagator": node.kind,
                "out": str(node.out_index), "in": str(node.in_index),
                "inner": node_to_json(node.inner)}
    if isinstance(node, Prod):
        return {"kind": "prod", "children": [node_to_json(c) for c in node.children]}
    raise TypeError(node)  # pragma: no cover


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
    raise InvariantError(f"unknown node kind {k!r}")


def term_to_json(t: Term) -> dict:
    return {"coefficient": [t.coeff.numerator, t.coeff.denominator],
            "node": node_to_json(t.node)}


def term_from_json(d: dict) -> Term:
    num, den = d["coefficient"]
    return Term(Fraction(num, den), node_from_json(d["node"]))


def termsum_to_json(s: TermSum) -> list:
    return [term_to_json(t) for t in s.terms()]
