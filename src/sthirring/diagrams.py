"""Contracted diagrams and their canonical forms.

A diagram records what is left of a term after a set of noise contractions:
the nested vertex structure (gamma insertions erased, since they never
affect contraction combinatorics or power counting), the surviving free
leaves, the contraction pattern and any counterterm tags.  Diagrams are
stored as nested tuples per tensor slot:

    ('free', species)            uncontracted leaf: endpoint + stem
    ('pair', pid, species, qt)   half of a contraction between two vertices
    ('qloop', qt)                coincident untagged pair at this vertex
                                 (both stems here, plus a diagonal marker)
    ('ctloop', name)             coincident pair replaced by a counterterm tag;
                                 the collapse point and its two stems remain
    ('argport', species)         argument slot of an operator diagram
    ('conv', kind, (child, ...)) trunk propagator to a nested vertex

The root point of each tensor slot is never counted as a vertex.  Each
contracted pair collapses its two leaf endpoints to a single point carrying
one stem per side, which is exactly the accounting that makes a maximally
contracted order-k graph have 2k+1 points and 3k+1 propagator edges.  That
is the rule `to_graph` implements, and power counting reads its counts off
that graph (`graph_counts`).

Canonical forms sort vertex children by shape, resolve runs that stay tied
through shared pair ids (`tie_orders` decides which runs those are) by a
small permutation search for the layout with the smallest serialization,
then renumber pair ids by first occurrence with `rename_pair_ids`; two
contraction outcomes merge exactly when the typed multigraphs are
isomorphic slot by slot.  Shapes are built once per subtree, bottom-up, and
a subtree's layouts are memoized on its value, since subtrees repeat across
the matchings of a term.  Most diagrams have one layout, since none of
their vertices holds a tied run: each vertex then gives its children sorted
by shape, with no candidates built, and the diagram is not serialized
before its pair ids are renumbered.  `DeformedSum.add`
canonicalizes once and merges under the canonical slots, which are equal
exactly when the keys (serializations) are; a sum iterates as it is held,
and only the diagrams a writer lists are serialized, to sort them by key.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import count, product as iproduct
from json.encoder import encode_basestring_ascii as _encode_str
from math import prod

from .canonical import KeyedSum, tie_orders, within_budget
from .errors import InvariantError
from .terms import GPSI, GPSIBAR, PHI

Q = "Q"
QT = "Q_tilde"


@dataclass(frozen=True)
class Diagram:
    """One contraction outcome; `slots` has one child tuple per smearing slot."""

    slots: tuple
    coeff: Fraction

    def scaled(self, c) -> "Diagram":
        return Diagram(self.slots, self.coeff * Fraction(c))


def free_leaves(diag: Diagram) -> list:
    """[(species, path)] in breadth-first order, shallow children first;
    path = (slot, i0, i1, ...) descends into convs."""
    frees = []
    stack = [(body, (s,)) for s, body in enumerate(diag.slots)]
    while stack:
        children, path = stack.pop()
        for i, ch in enumerate(children):
            if ch[0] == "free":
                frees.append((ch[1], path + (i,)))
            elif ch[0] == "conv":
                stack.append((ch[2], path + (i,)))
    frees.sort(key=lambda sp: (len(sp[1]), sp[1]))
    return frees


def replace_at(diag: Diagram, path: tuple, repl) -> Diagram:
    """The diagram with the child at path replaced by the child repl."""
    slot, rest = path[0], path[1:]
    slots = list(diag.slots)
    slots[slot] = _replace_in(slots[slot], rest, repl)
    return Diagram(tuple(slots), diag.coeff)


def _replace_in(children, rest, repl) -> tuple:
    i, rest = rest[0], rest[1:]
    out = list(children)
    ch = out[i]
    out[i] = (ch[0], ch[1], _replace_in(ch[2], rest, repl)) if rest else repl
    return tuple(out)


def rename_pair_ids(children, f):
    """The same children with every pair id p replaced by f(p)."""
    out = []
    for ch in children:
        if ch[0] == "pair":
            out.append(("pair", f(ch[1]), ch[2], ch[3]))
        elif ch[0] == "conv":
            out.append(("conv", ch[1], rename_pair_ids(ch[2], f)))
        else:
            out.append(ch)
    return tuple(out)


def pair_ids(children) -> list:
    """The pair id of every pair end among children, convs descended."""
    ids = []
    for ch in children:
        if ch[0] == "pair":
            ids.append(ch[1])
        elif ch[0] == "conv":
            ids.extend(pair_ids(ch[2]))
    return ids


def convolved(kind: str, diag: Diagram) -> Diagram:
    if len(diag.slots) != 1:
        raise InvariantError("convolution applies to single-slot diagrams")
    return Diagram(((("conv", kind, diag.slots[0]),),), diag.coeff)


# --------------------------------------------------------------------------
# canonical form
# --------------------------------------------------------------------------

def _serialize(slots) -> str:
    """Left-to-right serialization; pair names assigned on first occurrence."""
    tokens: list = []
    naming: dict = {}
    for body in slots:
        _tokens(body, naming, tokens)
        tokens.append(";")
    return "".join(tokens)


def _tokens(children, naming: dict, tokens: list) -> None:
    for ch in children:
        if ch[0] == "pair":
            if (name := naming.get(ch[1])) is None:
                name = naming[ch[1]] = f"p{len(naming)}"
            tokens.append(f"x[{name},{ch[2]},{ch[3]}],")
        elif ch[0] == "conv":
            tokens.append(f"T[{ch[1]}](")
            _tokens(ch[2], naming, tokens)
            tokens.append("),")
        else:
            tokens.append(_leaf_text(ch) + ",")


# the repr of a child that is neither a pair nor a conv; there are few
_leaf_text = cache(repr)


# 256 entries: over the adds of `counterterms --order 3`, an unbounded memo
# finds 12 more hits in 1,431 lookups, and over those of order 4 it holds
# 15,557 entries and runs slower; no memo runs about 10% slower at both.
@lru_cache(maxsize=256)
def _layouts(children) -> tuple[str, tuple]:
    """(shape, layouts) of the children of one vertex.

    The shape is an order-insensitive isomorphism invariant: the sorted
    multiset of the children's shapes, where a pair reduces to its
    species/type decoration, a conv to its kind and its interior's shape,
    and any other child to itself.  Isomorphic subtrees share a shape, so
    restricting reorderings to equal-shape runs loses no isomorphisms.

    The layouts are the child orders sorted by shape, with every permutation
    of each equal-shape run that carries pair ids (a pair-free run holds
    identical subtrees, so its one order is fixed), and with each conv
    interior in each of its own layouts.  A vertex with no such run whose
    children have one layout each has one layout, its children sorted by
    shape, and builds no candidates.
    """
    shapes = []
    options = []
    for ch in children:
        if ch[0] == "conv":
            inner, lays = _layouts(ch[2])
            shapes.append(f"T[{ch[1]}]({inner})")
            options.append([("conv", ch[1], lay) for lay in lays])
        else:
            shapes.append(f"x[{ch[2]},{ch[3]}]" if ch[0] == "pair"
                          else _leaf_text(ch))
            options.append((ch,))
    orders = tie_orders(range(len(shapes)), shapes, "x[")
    shape = ",".join([shapes[i] for i in orders[0]])
    n = len(orders) * prod(map(len, options))
    if n == 1:
        return shape, (tuple(options[i][0] for i in orders[0]),)
    within_budget(n)
    return shape, tuple(tuple(kids[i] for i in o)
                        for kids in iproduct(*options) for o in orders)


def canonicalize(diag: Diagram) -> Diagram:
    """Minimal-serialization layout with pair ids renumbered 0,1,2,... in
    the order the serialization names them.  A diagram whose slots have one
    layout each is not serialized."""
    per_slot = [_layouts(body)[1] for body in diag.slots]
    if (n := prod(map(len, per_slot))) == 1:
        slots = [lays[0] for lays in per_slot]
    else:
        within_budget(n)
        slots = min(iproduct(*per_slot), key=_serialize)
    rank = defaultdict(count().__next__).__getitem__  # p's first-seen rank
    return Diagram(tuple(rename_pair_ids(b, rank) for b in slots), diag.coeff)


# --------------------------------------------------------------------------
# sums of diagrams
# --------------------------------------------------------------------------

class DeformedSum(KeyedSum):
    """Diagrams with exact coefficients, merged under their canonical slots
    (equal exactly when the canonical keys are); `diagrams` lists by key."""

    def add(self, d: Diagram) -> None:
        if d.coeff == 0:
            return
        c = canonicalize(d)
        self._merge(c.slots, c)

    _serial = staticmethod(_serialize)

    def extend(self, other: "DeformedSum", scale=1) -> None:
        """Add scale * other.  Every entry of other is already canonical
        under its key, so none is canonicalized again."""
        if scale == 0:
            return
        for key, d in list(other._data.items()):
            self._merge(key, d.scaled(scale))

    def part(self, keep) -> "DeformedSum":
        """The entries that keep accepts, held under their keys here, so
        none is canonicalized again and none is sorted."""
        out = DeformedSum()
        out._data = {key: d for key, d in self._data.items() if keep(d)}
        return out

    diagrams = KeyedSum.entries

    def is_zero(self) -> bool:
        return not self._data


# --------------------------------------------------------------------------
# explicit graph view, its counts, DOT and JSON export
# --------------------------------------------------------------------------

def to_graph(diag: Diagram) -> dict:
    """Edge-list view: sites, typed edges, tags and free leaves.

    Contractions appear both structurally (two stems into the collapse
    point) and as a dashed Q/Q_tilde marker edge between the parent sites.
    """
    g = {"sites": [], "edges": [], "tags": [], "frees": []}
    pairs: dict = {}  # pair id -> (its pair point, first parent site, label)
    for body in diag.slots:
        _graph_children(body, _new_site(g["sites"], "root"), g, pairs)
    return g


def _new_site(sites: list, kind: str) -> str:
    sid = f"{kind[0]}{len(sites)}"
    sites.append((sid, kind))
    return sid


def _graph_children(children, here: str, g: dict, pairs: dict) -> None:
    """Add the sites and edges of children, hung from the site here.  A
    module-level function, so no closure cycle keeps the tables alive."""
    sites, edges = g["sites"], g["edges"]
    for ch in children:
        kind = ch[0]
        if kind == "conv":
            v = _new_site(sites, "vertex")
            edges.append((ch[1], here, v))
            _graph_children(ch[2], v, g, pairs)
        elif kind == "free":
            p = _new_site(sites, "leafpoint")
            edges.append((GPSI if ch[1] == PHI else GPSIBAR, here, p))
            g["frees"].append((ch[1], p))
        elif kind == "qloop":
            p = _new_site(sites, "pairpoint")
            edges.append((GPSI, here, p))
            edges.append((GPSIBAR, here, p))
            edges.append((QT if ch[1] == "Qt" else Q, here, here))
            edges.append(("DeltaDiag", here, p))
        elif kind == "ctloop":
            p = _new_site(sites, "pairpoint")
            edges.append((GPSI, here, p))
            edges.append((GPSIBAR, here, p))
            g["tags"].append((ch[1], p))
        elif kind == "pair":
            pid = ch[1]
            if pid not in pairs:
                p = _new_site(sites, "pairpoint")
                pairs[pid] = (p, here, ch[3])
            else:
                p, a, qt = pairs[pid]
                edges.append((QT if qt == "Qt" else Q, a, here))
            edges.append((GPSI if ch[2] == PHI else GPSIBAR, here, p))
        elif kind == "argport":
            g["tags"].append(("argport", here))
        else:  # pragma: no cover
            raise InvariantError(f"unknown child kind {kind!r}")


def graph_counts(diag: Diagram) -> dict:
    """Site and propagator-edge counts of `to_graph`'s view of diag.

    vertices, pair_points and free_points count its vertex, pairpoint
    and leafpoint sites, N all three (roots are not counted); L counts
    its G_psi and G_psi_bar edges, trunks and stems (the Q, Q_tilde and
    DeltaDiag markers are not propagators).
    """
    g = to_graph(diag)
    kinds = [kind for _, kind in g["sites"]]
    counts = {"vertices": kinds.count("vertex"),
              "pair_points": kinds.count("pairpoint"),
              "free_points": kinds.count("leafpoint")}
    counts["N"] = sum(counts.values())
    counts["L"] = sum(typ in (GPSI, GPSIBAR) for typ, _, _ in g["edges"])
    return counts


_DOT_STYLE = {
    GPSI: 'color=black',
    GPSIBAR: 'color=red',
    Q: 'color=black, style=dashed, constraint=false',
    QT: 'color=red, style=dashed, constraint=false',
    "DeltaDiag": 'color=gray, style=dotted, constraint=false',
}


def to_dot(diag: Diagram, name: str = "diagram") -> str:
    g = to_graph(diag)
    lines = [f"digraph {name} {{"]
    tagmap: dict = {}
    for t, s in g["tags"]:
        tagmap.setdefault(s, []).append(t)
    for sid, kind in g["sites"]:
        shape = {"root": "box", "vertex": "circle",
                 "pairpoint": "point", "leafpoint": "plaintext"}[kind]
        label = sid
        if sid in tagmap:
            label += ":" + "+".join(sorted(tagmap[sid]))
        lines.append(f'  "{sid}" [shape={shape}, label="{label}"];')
    for typ, a, b in g["edges"]:
        lines.append(f'  "{a}" -> "{b}" [{_DOT_STYLE[typ]}, label="{typ}"];')
    lines.append("}")
    return "\n".join(lines)


def diagram_json(diag: Diagram, depth: int, out: list) -> None:
    """Append the text json.dumps(indent=1, sort_keys=True) gives diag's
    export dict nested `depth` containers deep: its coefficient, the rows
    of `to_graph` (one chunk per row) and its skeleton, the slots as lists
    with every field of a child a string but a conv child's child list."""
    g = to_graph(diag)
    nl = "\n" + " " * depth
    k = nl + " "
    r = k + " "
    v = r + " "
    joint = "," + v
    q = diag.coeff
    pre = '{%s"coefficient": [%s%s,%s%s%s],' % (k, r, q.numerator, r,
                                                q.denominator, k)
    for name, rows in (("counterterm_tags", g["tags"]), ("edges", g["edges"]),
                       ("free_leaves", g["frees"]), ("sites", g["sites"])):
        sep = '%s%s"%s": [%s' % (pre, k, name, r)
        for row in rows:
            out.append('%s[%s%s%s]'
                       % (sep, v, joint.join(map(_encode_str, row)), r))
            sep = "," + r
        pre = k + "]," if rows else '%s%s"%s": [],' % (pre, k, name)
    sep = '%s%s"skeleton": [%s' % (pre, k, r)
    for body in diag.slots:
        _children_json(body, r, out, sep)
        sep = "," + r
    out.append(k + "]" + nl + "}" if diag.slots
               else '%s%s"skeleton": []%s}' % (pre, k, nl))


def _children_json(children, nl: str, out: list, pre: str) -> None:
    """Append pre and the list of children, whose closing bracket starts
    the line nl."""
    if not children:
        out.append(pre + "[]")
        return
    c = nl + " "
    e = c + " "
    joint = "," + e
    sep = pre + "[" + c
    for ch in children:
        if ch[0] == "conv":
            _children_json(ch[2], e, out, '%s[%s"conv",%s%s,%s'
                           % (sep, e, e, _encode_str(ch[1]), e))
            out.append(c + "]")
        else:
            out.append('%s[%s%s%s]' % (sep, e, joint.join(
                map(_encode_str, map(str, ch))), c))
        sep = "," + c
    out.append(nl + "]")
