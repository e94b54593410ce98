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
    ('const', name)              explicit counterterm matrix insertion
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


def _walk(children, fn, path):
    for i, ch in enumerate(children):
        fn(ch, path + (i,))
        if ch[0] == "conv":
            _walk(ch[2], fn, path + (i,))


def iter_children(diag: Diagram):
    """Yields (child, path); path = (slot, i0, i1, ...) descending into convs."""
    out = []
    for s, body in enumerate(diag.slots):
        _walk(body, lambda ch, p: out.append((ch, p)), (s,))
    return out


def free_leaves(diag: Diagram) -> list:
    """[(species, path)] in breadth-first order, shallow children first."""
    frees = [(ch[1], p) for ch, p in iter_children(diag) if ch[0] == "free"]
    frees.sort(key=lambda sp: (len(sp[1]), sp[1]))
    return frees


def counterterm_tags(diag: Diagram) -> list:
    return sorted(ch[1] for ch, _ in iter_children(diag)
                  if ch[0] in ("ctloop", "const"))


def replace_at(diag: Diagram, path: tuple, repl) -> Diagram:
    """Replace the child at path; repl is a child tuple, a list of children
    to splice in, or None to delete."""

    def go(children, rest):
        i, rest = rest[0], rest[1:]
        out = list(children)
        if rest:
            ch = out[i]
            out[i] = (ch[0], ch[1], go(ch[2], rest))
        elif repl is None:
            del out[i]
        elif isinstance(repl, list):
            out[i:i + 1] = repl
        else:
            out[i] = repl
        return tuple(out)

    slot, rest = path[0], path[1:]
    slots = list(diag.slots)
    slots[slot] = go(slots[slot], rest)
    return Diagram(tuple(slots), diag.coeff)


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


def tensor(a: Diagram, b: Diagram) -> Diagram:
    off = max_pair_id(a) + 1
    return Diagram(a.slots + tuple(rename_pair_ids(s, lambda p: p + off)
                                   for s in b.slots),
                   a.coeff * b.coeff)


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
    vertices = pairs = frees = loops = consts = 0
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
        elif ch[0] == "const":
            consts += 1
    pairs = len(seen_pairs) + loops
    return {
        "vertices": vertices,
        "pair_points": pairs,
        "free_points": frees,
        "N": vertices + pairs + frees,
        "L": vertices + 2 * pairs + frees,
        "const_insertions": consts,
    }


# --------------------------------------------------------------------------
# canonical form
# --------------------------------------------------------------------------

def _serialize(slots, naming: dict) -> str:
    """Left-to-right serialization; pair names assigned on first occurrence."""
    tokens: list = []

    def emit(children):
        for ch in children:
            if ch[0] == "pair":
                pid = ch[1]
                if pid not in naming:
                    naming[pid] = f"p{len(naming)}"
                tokens.append(f"x[{naming[pid]},{ch[2]},{ch[3]}]")
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


def canonical_key(diag: Diagram) -> str:
    return _serialize(canonicalize(diag).slots, {})


# --------------------------------------------------------------------------
# sums of diagrams
# --------------------------------------------------------------------------

class DeformedSum(KeyedSum):
    """Diagrams with exact coefficients, merged under their canonical slots
    (equal exactly when the canonical keys are) and listed in key order."""

    def __init__(self, diagrams=(), origin: str = "", order: int | None = None):
        self.origin = origin
        self.order = order
        super().__init__(diagrams)

    def add(self, d: Diagram) -> None:
        if d.coeff == 0:
            return
        c = canonicalize(d)
        self._merge(c.slots, c)

    @staticmethod
    def _serial(slots) -> str:
        return _serialize(slots, {})

    def extend(self, other: "DeformedSum", scale=1) -> None:
        for d in other.diagrams():
            self.add(d.scaled(scale))

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
    sites = []
    edges = []
    tags = []
    frees = []
    pair_sites: dict = {}
    pair_parents: dict = {}

    def new_site(kind):
        sid = f"{kind[0]}{len(sites)}"
        sites.append((sid, kind))
        return sid

    def visit(children, here):
        for ch in children:
            kind = ch[0]
            if kind == "conv":
                v = new_site("vertex")
                edges.append((ch[1], here, v))
                visit(ch[2], v)
            elif kind == "free":
                p = new_site("leafpoint")
                edges.append((GPSI if ch[1] == PHI else GPSIBAR, here, p))
                frees.append((ch[1], p))
            elif kind == "qloop":
                p = new_site("pairpoint")
                edges.append((GPSI, here, p))
                edges.append((GPSIBAR, here, p))
                edges.append((QT if ch[1] == "Qt" else Q, here, here))
                edges.append(("DeltaDiag", here, p))
            elif kind == "ctloop":
                p = new_site("pairpoint")
                edges.append((GPSI, here, p))
                edges.append((GPSIBAR, here, p))
                tags.append((ch[1], p))
            elif kind == "const":
                tags.append((ch[1], here))
            elif kind == "pair":
                pid = ch[1]
                if pid not in pair_sites:
                    pair_sites[pid] = new_site("pairpoint")
                    pair_parents[pid] = (here, ch[3])
                else:
                    a, qt = pair_parents[pid]
                    edges.append((QT if qt == "Qt" else Q, a, here))
                p = pair_sites[pid]
                edges.append((GPSI if ch[2] == PHI else GPSIBAR, here, p))
            elif kind == "argport":
                tags.append(("argport", here))
            else:  # pragma: no cover
                raise InvariantError(f"unknown child kind {kind!r}")

    for s, body in enumerate(diag.slots):
        root = new_site("root")
        visit(body, root)
    return {"sites": sites, "edges": edges, "tags": tags, "frees": frees}


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
        "skeleton": _skeleton_json(diag.slots),
    }


def _skeleton_json(slots):
    def enc(children):
        out = []
        for ch in children:
            if ch[0] == "conv":
                out.append(["conv", ch[1], enc(ch[2])])
            else:
                out.append([str(x) for x in ch])
        return out

    return [enc(body) for body in slots]


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


def deformedsum_to_json(ds: DeformedSum) -> dict:
    return {
        "origin": ds.origin,
        "order": ds.order,
        "diagrams": [diagram_to_json(d) for d in ds.diagrams()],
    }


def deformedsum_from_json(d: dict) -> DeformedSum:
    return DeformedSum((diagram_from_json(x) for x in d["diagrams"]),
                       origin=d.get("origin", ""), order=d.get("order"))
