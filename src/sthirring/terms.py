"""Symbolic functional-valued vector distributions.

A term is a tree built from the generators Phi (spinor) and PhiBar
(cospinor), pointwise products, propagator convolutions G_psi / G_psibar and
symbolic gamma-matrix elements, together with an exact rational
coefficient; these are the only nodes the recursion builds (counterterms
live on diagrams, as tags).  Abstract spinor indices wire the tree:
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
tiny (at most a few identical branches), so the search is cheap.  One walk
of the input tree spells its serialization as pieces, with each index left
unnamed, and records each subtree's span of pieces and each index's
positions.  A child's shape and a candidate order's serialization render
slices of those pieces under their own namings, so no subtree is walked
again.  The canonical tree has its indices renamed 0, 1, 2, ... in order
of first occurrence, so the pass that orders the products also assigns
those names, builds the renamed tree and spells its serialization, which
is its key: `canonicalize` records it on the returned term and
`TermSum.add` merges under it, with no second search and no second
serialization.  `index_occurrences` is the one table of each index slot's polarity and
kind, and `canonicalize` validates the `index_census` it gives.

The recursion puts every lower-order monomial, as a factor G * [...],
into many higher-order ones.  Such a factor is sealed: each of its
indices but the propagator's outer one occurs only inside it, so its
canonical form in a product depends only on its shape (its text with
the outer index unnamed and the others local) and on how many indices
are named before it.  `vertex_term` joins each monomial from its three
factors with no raw tree and keeps the placed result on it: its tree,
text and size, and its parts, the factors as they sit inside it.
Placing a factor behind n names looks up (n, shape) in one memo and, on
a miss, joins the factor's own parts there, so each factor is ordered
once per offset and the monomials share its tree; a factor that no join
built (a leaf, or `canonicalize` of a monomial) is ordered by
`_canon_node`.  The recursion alone fills the memo; `canonicalize` keeps
none.  A second `canonicalize` pass moves a few monomials of order 5 and
up, so the series merges each under the key the join returns.

Precondition: the form is canonical only when every product nested
below the outermost one already has its children in canonical order: a
child's shape and the tie-break serialize its subtree in input order.
Terms that `product` and `convolve` build from canonical terms meet it,
and so does every monomial `vertex_term` returns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

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

@dataclass(frozen=True, slots=True)
class Leaf:
    species: str  # PHI | PHIBAR
    index: int


@dataclass(frozen=True, slots=True)
class Gamma:
    """(gamma^mu)^row_col as a symbolic matrix element."""

    mu: int
    row: int
    col: int


@dataclass(frozen=True, slots=True)
class Conv:
    """(G)^out_in convolved against the inner term's free index."""

    kind: str  # GPSI | GPSIBAR
    out_index: int
    in_index: int
    inner: "Node"


@dataclass(frozen=True, slots=True)
class Prod:
    children: tuple


Node = Leaf | Gamma | Conv | Prod


@dataclass(frozen=True)
class Term:
    coeff: Fraction
    node: Node

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))

    def scaled(self, c) -> "Term":
        return Term(self.coeff * Fraction(c), self.node)


def phi(index: int = 0) -> Term:
    return Term(Fraction(1), Leaf(PHI, index))


def phibar(index: int = 0) -> Term:
    return Term(Fraction(1), Leaf(PHIBAR, index))


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
    """Yields (index, polarity, kind) with kind 'spinor' or 'vector', in
    pre-order: a node's own indices, then its children's, left to right."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Leaf):
            yield n.index, (UP if n.species == PHI else DOWN), "spinor"
        elif isinstance(n, Gamma):
            yield n.mu, 0, "vector"
            yield n.row, UP, "spinor"
            yield n.col, DOWN, "spinor"
        elif isinstance(n, Conv):
            up_out = n.kind == GPSI
            yield n.out_index, (UP if up_out else DOWN), "spinor"
            yield n.in_index, (DOWN if up_out else UP), "spinor"
            stack.append(n.inner)
        elif isinstance(n, Prod):
            stack.extend(reversed(n.children))


def index_census(node: Node) -> dict:
    """Map index -> [(polarity, kind), ...], one entry per occurrence;
    indices in order of first occurrence."""
    census = {}
    for idx, pol, kind in index_occurrences(node):
        census.setdefault(idx, []).append((pol, kind))
    return census


def validate(census: dict) -> None:
    """InvariantError unless every index of an `index_census` occurs at
    most twice, in slots of one kind, and a contracted spinor index once
    upper and once lower."""
    for idx, occ in census.items():
        if len(occ) > 2:
            raise InvariantError(f"index {idx} occurs {len(occ)} times")
        kinds = {k for _, k in occ}
        if len(kinds) > 1:
            raise InvariantError(f"index {idx} mixes vector and spinor slots")
        if len(occ) == 2 and "spinor" in kinds:
            if occ[0][0] + occ[1][0] != 0:
                raise InvariantError(f"index {idx} contracted with equal polarity")


def sole_free_index(census: dict, pol: int) -> int:
    """The one free spinor index of polarity pol in an `index_census`;
    InvariantError unless there is exactly one."""
    slots = [idx for idx, occ in census.items() if occ == [(pol, "spinor")]]
    if len(slots) != 1:
        raise InvariantError(
            f"expected exactly one free {'upper' if pol == UP else 'lower'} "
            f"spinor index, found {len(slots)}")
    return slots[0]


def max_index(node: Node) -> int:
    return max((idx for idx, _, _ in index_occurrences(node)), default=-1)


def rename_indices(node: Node, f) -> Node:
    """The same tree with every index id i replaced by f(i)."""
    if isinstance(node, Leaf):
        return Leaf(node.species, f(node.index))
    if isinstance(node, Gamma):
        return Gamma(f(node.mu), f(node.row), f(node.col))
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


def grading(t: Term) -> Grading:
    r = r_bar = l = l_bar = 0
    stack = [t.node]
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
        if isinstance(c, Prod):
            out.extend(c.children)
        else:
            out.append(c)
    return tuple(out)


def product(a: Term, b: Term) -> Term:
    """Pointwise product, with nested products flattened into one.  The
    indices of b are shifted into a fresh range above those of a."""
    off = max_index(a.node) + 1
    node_b = rename_indices(b.node, lambda i: i + off)
    return Term(a.coeff * b.coeff, Prod(_flatten((a.node, node_b))))


def convolve(kind: str, t: Term) -> Term:
    """Wrap t in a propagator convolution, contracting its unique free index.

    G_psi acts on spinor rank (one free upper index), G_psibar on cospinor
    rank (one free lower index); anything else is a rank mismatch.
    """
    if kind not in (GPSI, GPSIBAR):
        raise InvariantError(f"unknown propagator kind {kind!r}")
    census = index_census(t.node)
    slot = sole_free_index(census, UP if kind == GPSI else DOWN)
    out = max(census, default=-1) + 1
    return Term(t.coeff, Conv(kind, out, slot, t.node))


# --------------------------------------------------------------------------
# canonical form
# --------------------------------------------------------------------------

def _walk(node: Node):
    """(pieces, span, where) from one pre-order walk of node.

    pieces spell node's serialization with each index left as the index
    itself (every other piece is a str); span[id(n)] is the half-open
    range of the pieces of subtree n, and where[i] lists the pieces that
    hold index i."""
    table = pieces, span, where = [], {}, {}
    _walk_node(node, pieces, span, where)
    return table


def _walk_index(i, pieces, where) -> None:
    where.setdefault(i, []).append(len(pieces))
    pieces.append(i)


def _walk_node(n, pieces, span, where) -> None:
    """One step of `_walk`: a module-level function, so no closure cycle
    keeps the walk's tables alive after it returns."""
    lo = len(pieces)
    if isinstance(n, Leaf):
        pieces.append(f"L[{n.species},")
        _walk_index(n.index, pieces, where)
        pieces.append("]")
    elif isinstance(n, Gamma):
        pieces.append("g[")
        _walk_index(n.mu, pieces, where)
        pieces.append(",")
        _walk_index(n.row, pieces, where)
        pieces.append(",")
        _walk_index(n.col, pieces, where)
        pieces.append("]")
    elif isinstance(n, Conv):
        pieces.append(f"C[{n.kind},")
        _walk_index(n.out_index, pieces, where)
        pieces.append(",")
        _walk_index(n.in_index, pieces, where)
        pieces.append("](")
        _walk_node(n.inner, pieces, span, where)
        pieces.append(")")
    elif isinstance(n, Prod):
        pieces.append("P(")
        for c in n.children:
            _walk_node(c, pieces, span, where)
            pieces.append(",")
        pieces.append(")")
    else:
        raise TypeError(n)
    span[id(n)] = (lo, len(pieces))


def _render(table, node: Node, name) -> str:
    """The serialization of a subtree of the walked term, in its input
    order, with each index spelled name(index)."""
    pieces, span, _ = table
    lo, hi = span[id(node)]
    return "".join([p if p.__class__ is str else name(p)
                    for p in pieces[lo:hi]])


def _child_shape(child: Node, table, naming: dict) -> str:
    """The order key for a product child.

    Indices already named in the enclosing context keep their names; indices
    local to the child get positional names; indices linking to siblings
    (or free elsewhere) are reduced to link/free markers so that the key is
    independent of sibling identity.  Whether an index is local is read
    off the positions of its pieces, so naming the child walks nothing.
    """
    where = table[2]
    lo, hi = table[1][id(child)]
    local = {}

    def name(idx):
        r = naming.get(idx)
        if r is not None:
            return f"@i{r}"
        at = where[idx]
        if len(at) == 2:
            p, q = at
            if lo <= p < hi and lo <= q < hi:
                if idx not in local:
                    local[idx] = f"l{len(local)}"
                return local[idx]
        return "*FREE*" if len(at) == 1 else "*LINK*"

    return _render(table, child, name)


def _order_prod(kids: tuple, naming: dict, table) -> tuple:
    """Canonical order of a product's children under the current naming."""
    orders = tie_orders(kids, [_child_shape(c, table, naming) for c in kids],
                        "*LINK*")
    if len(orders) == 1:
        return orders[0]

    def serialization(cand):
        names = dict(naming)

        def name(idx):
            return f"i{_rank(names, idx)}"

        return "".join([_render(table, c, name) + "," for c in cand])

    return min(orders, key=serialization)


def _rank(naming: dict, idx) -> int:
    """idx's canonical name, the next free one on first encounter."""
    r = naming.get(idx)
    if r is None:
        r = naming[idx] = len(naming)
    return r


def _canon_node(node: Node, naming: dict, key: list, table) -> Node:
    """node with its products ordered and its indices renamed by first
    occurrence into naming; appends the serialization of the result to
    key."""
    if isinstance(node, Leaf):
        i = _rank(naming, node.index)
        key.append(f"L[{node.species},i{i}]")
        return Leaf(node.species, i)
    if isinstance(node, Gamma):
        mu = _rank(naming, node.mu)
        row = _rank(naming, node.row)
        col = _rank(naming, node.col)
        key.append(f"g[i{mu},i{row},i{col}]")
        return Gamma(mu, row, col)
    if isinstance(node, Conv):
        out = _rank(naming, node.out_index)
        inn = _rank(naming, node.in_index)
        key.append(f"C[{node.kind},i{out},i{inn}](")
        inner = _canon_node(node.inner, naming, key, table)
        key.append(")")
        return Conv(node.kind, out, inn, inner)
    if isinstance(node, Prod):
        key.append("P(")
        kids = []
        for c in _order_prod(_flatten(node.children), naming, table):
            kids.append(_canon_node(c, naming, key, table))
            key.append(",")
        key.append(")")
        return Prod(tuple(kids))
    raise TypeError(node)  # pragma: no cover


def canonicalize(t: Term) -> Term:
    """Canonical representative: sorted products, indices renamed 0,1,2,...
    in order of first occurrence, once its `index_census` validates.  One
    walk of the input tree spells it as pieces; each product's child shapes
    and tie-break serializations render slices of those pieces, and one
    pass over the ordered tree names the indices, builds the renamed tree
    and records its serialization as `_key`.  Nested products must already
    be in canonical child order (see the module docstring)."""
    table = _walk(t.node)
    validate(index_census(t.node))
    key: list = []
    node = _canon_node(t.node, {}, key, table)
    out = Term(t.coeff, node)
    object.__setattr__(out, "_key", "".join(key))
    return out


def canonical_key(t: Term) -> str:
    return canonicalize(t)._key


class _Placed:
    """A recursion factor in canonical form, its indices named from its out
    index n on: its `node`, its serialization `text`, its index count
    `size`, and `parts`, the (kind, a, b, c) of the `_join` that built it
    (each factor as placed inside it), or None.  `shape` is its
    `_child_shape` in a product: its text with i{n} spelled *LINK* and
    i{n+1+j} l{j}."""

    __slots__ = ("node", "text", "size", "parts", "_shape")

    def __init__(self, node: Node, text: str, size: int, parts=None):
        self.node, self.text, self.size, self.parts = node, text, size, parts
        self._shape = None

    @property
    def shape(self) -> str:
        if self._shape is None:
            n = next(index_occurrences(self.node))[0]
            self._shape = re.sub(r"i(\d+)", lambda m: "*LINK*" if int(m[1]) == n
                                 else f"l{int(m[1]) - n - 1}", self.text)
        return self._shape


# (n, shape) -> the `_Placed` form of a factor of that shape whose indices
# are named from n on; the recursion alone fills it, and `ORDER_CEILING`
# bounds it (1,121 entries once F_6 of both branches is built)
_sealed: dict = {}


def _place(f: _Placed, n: int) -> _Placed:
    """f as a factor of a product, its indices named from n on (its out
    index first: the gamma naming it comes later), kept in `_sealed` under
    (n, shape): `_join` of f's parts, or, if no join built f, `_canon_node`
    of f under n placeholder names (negative, so none is an index of f)."""
    key = n, f.shape
    got = _sealed.get(key)
    if got is None:
        if f.parts is not None:
            got = _join(f.parts, n)
        else:
            text: list = []
            got = _Placed(_canon_node(f.node, dict(zip(range(-n, 0), range(n))),
                                      text, _walk(f.node)), "".join(text), f.size)
        _sealed[key] = got
    return got


def _join(parts: tuple, base: int) -> _Placed:
    """The monomial G * [(a g_mu b) g^mu c] of parts = (kind, a, b, c), three
    placed factors, as `_canon_node` forms it with its out index named base:
    `tie_orders` puts the factors before the gammas, and each factor is
    placed by `_place`, with names running on from base + 2."""
    kind, a, b, c = parts
    fs = a, None, b, None, c
    # the gammas' shapes: (g_mu)^a_b, and (g^mu)^rho'_c or (g^mu)^c_rho'
    rho = base + 1
    shapes = [a.shape, "g[*LINK*,*LINK*,*LINK*]", b.shape,
              f"g[*LINK*,@i{rho},*LINK*]" if kind == GPSI
              else f"g[*LINK*,*LINK*,@i{rho}]", c.shape]
    layouts = []
    for order in tie_orders(range(5), shapes, "*LINK*"):
        first, n = {}, base + 2
        for i in order[:3]:
            first[i], n = n, n + fs[i].size
        g = (n, first[0], first[2]) + ((n, rho, first[4]) if kind == GPSI
                                       else (n, first[4], rho))
        # factors of one shape are spelled alike, so two orders'
        # serializations differ only in the gammas that follow the factors
        layouts.append(("g[i%d,i%d,i%d],g[i%d,i%d,i%d]," % g, order, first, g))
    text, order, first, g = min(layouts, key=lambda layout: layout[0])
    placed = {i: _place(fs[i], first[i]) for i in order[:3]}
    node = Conv(kind, base, rho, Prod((*[p.node for p in placed.values()],
                                       Gamma(*g[:3]), Gamma(*g[3:]))))
    text = "".join([f"C[{kind},i{base},i{rho}](P("]
                   + [p.text + "," for p in placed.values()] + [text, "))"])
    return _Placed(node, text, g[0] + 1 - base,
                   (kind, placed[0], placed[2], placed[4]))


def _factor(t: Term, pol: int) -> _Placed | None:
    """t's `_Placed` form at base 0, kept on t: the one `vertex_term` left
    on it, else one made from t's canonical form; None unless t is a leaf
    or a convolution whose one free index is its out.  InvariantError
    unless t has exactly one free spinor index, of polarity pol."""
    got = t.__dict__.get("_factor")
    if got is None:
        c = t if hasattr(t, "_key") else canonicalize(t)
        census = index_census(c.node)
        if (c.node.__class__ in (Leaf, Conv)
                and [i for i, occ in census.items() if len(occ) == 1] == [0]):
            got = _Placed(c.node, c._key, len(census))
            object.__setattr__(t, "_factor", got)
    if got is None or next(index_occurrences(got.node))[1] != pol:
        sole_free_index(index_census(t.node), pol)
    return got


def vertex_term(ta: Term, tb: Term, tc: Term, kind: str = GPSI) -> Term:
    """One cubic interaction monomial G * [(ta g_mu tb) g^mu tc] in canonical
    form, carrying its `_key`: ta is a cospinor-branch term, tb a spinor one
    and tc spinor for G_psi, cospinor for G_psi_bar.  It is `canonicalize` of
    the raw product, joined from the factors' placed forms by `_join` at
    base 0 with no raw tree; the result keeps its own in `_factor`."""
    a, b = _factor(ta, DOWN), _factor(tb, UP)
    if kind not in (GPSI, GPSIBAR):
        raise InvariantError(f"unknown branch propagator {kind!r}")
    c = _factor(tc, UP if kind == GPSI else DOWN)
    if None in (a, b, c):
        raise InvariantError("a recursion factor must be a leaf or a "
                             "convolution whose one free index is its out")
    got = _join((kind, a, b, c), 0)
    out = Term(ta.coeff * tb.coeff * tc.coeff, got.node)
    object.__setattr__(out, "_key", got.text)
    object.__setattr__(out, "_factor", got)
    return out


# --------------------------------------------------------------------------
# sums of terms
# --------------------------------------------------------------------------

class TermSum(KeyedSum):
    """Formal sum of terms with exact coefficients, merged by canonical form."""

    def add(self, t: Term) -> None:
        if t.coeff == 0:
            return
        ct = canonicalize(t)
        self._merge(ct._key, ct)

    def add_keyed(self, t: Term) -> None:
        """Add t, as `canonicalize` or `vertex_term` returned it, as is."""
        self._merge(t._key, t)

    terms = KeyedSum.entries


# --------------------------------------------------------------------------
# TeX and JSON
# --------------------------------------------------------------------------

_TEX_SPECIES = {PHI: r"\Phi^{%s}", PHIBAR: r"\bar{\Phi}_{%s}"}


def _idx_tex(i: int) -> str:
    return f"\\rho_{{{i}}}"


def to_tex(t: Term) -> str:
    prefix = ""
    if t.coeff != 1:
        prefix = (f"{t.coeff.numerator}" if t.coeff.denominator == 1
                  else f"\\tfrac{{{t.coeff.numerator}}}{{{t.coeff.denominator}}}") + r"\,"
    return prefix + _node_tex(t.node)


def _node_tex(node: Node) -> str:
    if isinstance(node, Leaf):
        return _TEX_SPECIES[node.species] % _idx_tex(node.index)
    if isinstance(node, Gamma):
        return (rf"(\gamma^{{\mu_{{{node.mu}}}}})"
                rf"^{{{_idx_tex(node.row)}}}_{{{_idx_tex(node.col)}}}")
    if isinstance(node, Conv):
        g = r"G_{\psi}" if node.kind == GPSI else r"G_{\bar\psi}"
        return (rf"({g})^{{{_idx_tex(node.out_index)}}}_{{{_idx_tex(node.in_index)}}}"
                rf"\circledast\!\left[{_node_tex(node.inner)}\right]")
    if isinstance(node, Prod):
        return r"\,".join(_node_tex(c) for c in node.children)
    raise TypeError(node)  # pragma: no cover


# The JSON emitters here and in `diagrams` format with %s, as fast as
# f-strings: compiling as many f-string fields (Python 3.11, no bytecode
# cache) raised the peak RSS of a CLI process by about 0.15 MB.
def term_json(t: Term, depth: int, out: list) -> None:
    """Append the text json.dumps(indent=1, sort_keys=True) gives t's
    export dict ({"coefficient": [num, den], "node": ...}, every index a
    string) nested `depth` containers deep: a chunk per leaf and gamma,
    holding the text before it, and one per closing conv and prod."""
    nl = "\n" + " " * depth
    k = nl + " "
    c = k + " "
    q = t.coeff
    _node_json(t.node, k, out, '{%s"coefficient": [%s%s,%s%s%s],%s"node": '
               % (k, c, q.numerator, c, q.denominator, k, k))
    out.append(nl + "}")


def _node_json(node: Node, nl: str, out: list, pre: str) -> None:
    """Append pre and node's dict, whose closing brace starts the line nl;
    pre is the text before the node, so each chunk opens with it."""
    k = nl + " "
    if isinstance(node, Leaf):
        out.append('%s{%s"index": "%s",%s"kind": "leaf",%s"species": %s%s}'
                   % (pre, k, node.index, k, k, _encode_str(node.species), nl))
    elif isinstance(node, Gamma):
        out.append('%s{%s"col": "%s",%s"kind": "gamma",%s"mu": "%s",'
                   '%s"row": "%s"%s}' % (pre, k, node.col, k, k, node.mu,
                                         k, node.row, nl))
    elif isinstance(node, Conv):
        _node_json(node.inner, k, out, '%s{%s"in": "%s",%s"inner": '
                   % (pre, k, node.in_index, k))
        out.append(',%s"kind": "conv",%s"out": "%s",%s"propagator": %s%s}'
                   % (k, k, node.out_index, k, _encode_str(node.kind), nl))
    elif isinstance(node, Prod):
        c = k + " "
        sep = '%s{%s"children": [%s' % (pre, k, c)
        for ch in node.children:
            _node_json(ch, c, out, sep)
            sep = "," + c
        out.append('%s],%s"kind": "prod"%s}' % (k, k, nl) if node.children
                   else '%s{%s"children": [],%s"kind": "prod"%s}'
                   % (pre, k, k, nl))
    else:  # pragma: no cover
        raise TypeError(node)
