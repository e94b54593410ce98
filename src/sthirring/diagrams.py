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
contracted order-k graph have 2k+1 points and 3k+1 propagator edges.

Canonical forms sort vertex children by shape, resolve runs that stay tied
through shared pair ids by a small permutation search for the layout with
the smallest serialization, then renumber pair ids by first occurrence; two
contraction outcomes merge exactly when the typed multigraphs are
isomorphic slot by slot.  Shapes are built once per subtree, bottom-up, and
a subtree's layouts are memoized on its value, since subtrees repeat across
the matchings of a term.  A diagram with one layout is not serialized at
all while it is canonicalized.  `DeformedSum.add` canonicalizes once and
merges under the canonical slots, which are equal exactly when the keys
(serializations) are; only the diagrams it keeps are serialized, to list
them in key order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

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


def _pair_ids(children):
    ids = []
    for ch in children:
        if ch[0] == "pair":
            ids.append(ch[1])
        elif ch[0] == "conv":
            ids.extend(_pair_ids(ch[2]))
    return ids


def max_pair_id(diag: Diagram) -> int:
    return max((p for body in diag.slots for p in _pair_ids(body)), default=-1)


def convolved(kind: str, diag: Diagram) -> Diagram:
    if len(diag.slots) != 1:
        raise InvariantError("convolution applies to single-slot diagrams")
    return Diagram(((("conv", kind, diag.slots[0]),),), diag.coeff)


def vertex_join(kind: str, parts) -> Diagram:
    """Pointwise product of single-slot diagrams at a new vertex, wrapped
    in the branch propagator.  No cross contractions are introduced."""
    kids = []
    coeff = Fraction(1)
    for d in parts:
        if len(d.slots) != 1:
            raise InvariantError("vertex join needs single-slot diagrams")
        off = max(_pair_ids(kids), default=-1) + 1
        kids.extend(rename_pair_ids(d.slots[0], lambda p: p + off))
        coeff *= d.coeff
    return Diagram(((("conv", kind, tuple(kids)),),), coeff)


# --------------------------------------------------------------------------
# counting (power-counting view)
# --------------------------------------------------------------------------

def graph_counts(diag: Diagram) -> dict:
    """Site and propagator-edge counts with the root(s) excluded.

    vertices: nested interaction points; points: collapse points of
    contracted pairs plus free-leaf endpoints; edges: trunk propagators
    plus two stems per contracted pair and one per free leaf.
    """
    vertices = frees = loops = 0
    seen_pairs = set()
    stack = list(diag.slots)
    while stack:
        for ch in stack.pop():
            tag = ch[0]
            if tag == "conv":
                vertices += 1
                stack.append(ch[2])
            elif tag == "pair":
                seen_pairs.add(ch[1])
            elif tag == "qloop" or tag == "ctloop":
                loops += 1
            elif tag == "free":
                frees += 1
    pairs = len(seen_pairs) + loops
    return {
        "vertices": vertices,
        "pair_points": pairs,
        "free_points": frees,
        "N": vertices + pairs + frees,
        "L": vertices + 2 * pairs + frees,
    }


# --------------------------------------------------------------------------
# canonical form
# --------------------------------------------------------------------------

def _serialize(slots, naming: dict) -> str:
    """Left-to-right serialization; pair names assigned on first occurrence."""
    tokens: list = []
    for body in slots:
        _serialize_children(body, naming, tokens)
        tokens.append(";")
    return "".join(tokens)


def _serialize_children(children, naming: dict, tokens: list) -> None:
    for ch in children:
        if ch[0] == "pair":
            pid = ch[1]
            if pid not in naming:
                naming[pid] = f"p{len(naming)}"
            tokens.append(f"x[{naming[pid]},{ch[2]},{ch[3]}]")
        elif ch[0] == "conv":
            tokens.append(f"T[{ch[1]}](")
            _serialize_children(ch[2], naming, tokens)
            tokens.append(")")
        else:
            tokens.append(repr(ch))
        tokens.append(",")


_LAYOUT_MEMO = 256


@lru_cache(maxsize=_LAYOUT_MEMO)
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
    interior in each of its own layouts.  Shapes are built bottom-up from
    the interiors' shapes, once per call; calls are memoized on the
    children tuple, since subtrees repeat across the matchings of a term.
    """
    shapes = []
    options = []
    for ch in children:
        if ch[0] == "conv":
            inner, lays = _layouts(ch[2])
            shapes.append(f"T[{ch[1]}]({inner})")
            options.append([("conv", ch[1], lay) for lay in lays])
        else:
            shapes.append(f"x[{ch[2]},{ch[3]}]" if ch[0] == "pair" else repr(ch))
            options.append((ch,))
    bound = 1
    for opts in options:
        bound = within_budget(bound * len(opts))
    order = sorted(range(len(children)), key=shapes.__getitem__)
    if any(shapes[a] == shapes[b] and "x[" in shapes[a]
           for a, b in zip(order, order[1:])):
        orders = tie_orders(range(len(children)), shapes, "x[")
        within_budget(bound * len(orders))
    else:
        orders = [order]
    layouts = tuple(tuple(kids[i] for i in o)
                    for kids in iproduct(*options) for o in orders)
    return ",".join(shapes[i] for i in order), layouts


def canonicalize(diag: Diagram) -> Diagram:
    """Minimal-serialization layout with pair ids renumbered 0,1,2,...

    A diagram with one layout needs no serialization: its pair ids are
    renumbered in the order the serialization would name them."""
    per_slot = [_layouts(body)[1] for body in diag.slots]
    total = 1
    for opts in per_slot:
        total = within_budget(total * len(opts))
    if total == 1:
        slots = tuple(opts[0] for opts in per_slot)
        naming = dict.fromkeys(p for body in slots for p in _pair_ids(body))
    else:
        best = None
        for slots in iproduct(*per_slot):
            naming = {}
            key = _serialize(slots, naming)
            if best is None or key < best[0]:
                best = (key, slots, naming)
        _, slots, naming = best
    rank = {old: r for r, old in enumerate(naming)}
    return Diagram(tuple(rename_pair_ids(b, rank.__getitem__) for b in slots),
                   diag.coeff)


# --------------------------------------------------------------------------
# sums of diagrams
# --------------------------------------------------------------------------

class DeformedSum(KeyedSum):
    """Diagrams with exact coefficients, merged under their canonical slots
    (equal exactly when the canonical keys are) and listed in key order."""

    def add(self, d: Diagram) -> None:
        if d.coeff == 0:
            return
        c = canonicalize(d)
        self._merge(c.slots, c)

    @staticmethod
    def _serial(slots) -> str:
        return _serialize(slots, {})

    def extend(self, other: "DeformedSum", scale=1) -> None:
        """Add scale * other.  Every entry of other is already canonical
        under its key, so none is canonicalized again."""
        if scale == 0:
            return
        for key, d in list(other._data.items()):
            self._merge(key, d.scaled(scale))

    diagrams = KeyedSum.entries

    def is_zero(self) -> bool:
        return not self._data


# --------------------------------------------------------------------------
# explicit graph view, DOT and JSON export
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
