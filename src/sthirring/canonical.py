"""Pieces shared by the canonical forms of terms and of diagrams.

Both object kinds canonicalize the same way: the children of a product (a
pointwise product of terms, or the children of a diagram vertex) are sorted
by an order-insensitive shape, and only runs of equal shape that are coupled
to the rest of the object (through shared spinor indices, or through pair
ids) are searched by permutation.  `tie_orders` enumerates those candidate
orders under one budget; a search past it is a `UsageError` (a resource
limit, exit 2).
`KeyedSum` is the exact linear combination that merges canonical forms under
a key that determines the form.  It iterates in the order it holds them;
only `entries` lists them in serialization order, for the writers.
"""

from __future__ import annotations

from itertools import groupby, permutations, product as iproduct
from math import factorial

from .errors import UsageError

_PERM_BUDGET = 20000


def within_budget(n: int) -> int:
    """n, the size of a canonical-form search, unless it exceeds the budget."""
    if n > _PERM_BUDGET:
        raise UsageError("canonicalization permutation budget exceeded")
    return n


def tie_orders(items, shapes: list, link: str) -> list[tuple]:
    """Candidate orders of `items`, each sorted by `shapes` (stably).

    A run of two or more equal shapes containing the substring `link` is
    tied to the rest of the object and takes every permutation; every other
    run keeps its given order.  Returns one tuple per combination.
    """
    order = sorted(range(len(items)), key=shapes.__getitem__)
    prev = None
    for i in order:
        if shapes[i] == prev and link in prev:
            break
        prev = shapes[i]
    else:  # no tied run: the one order, with no product of options built
        return [tuple([items[i] for i in order])]
    options = []
    total = 1
    for shape, run in groupby(order, key=shapes.__getitem__):
        run = [items[i] for i in run]
        if len(run) > 1 and link in shape:
            total = within_budget(total * factorial(len(run)))
            options.append(list(permutations(run)))
        else:
            options.append([run])
    return [tuple(x for run in combo for x in run) for combo in iproduct(*options)]


class KeyedSum:
    """Exact linear combination of frozen items with a `coeff` field, merged
    by canonical key.  Subclasses define `add`, which canonicalizes its
    argument once and passes the result to `_merge` under its key.  A merge
    copies the held item's `__dict__`, fields and cached attributes alike,
    with the summed coefficient.  Iteration follows the order the items are
    held in.  When the key is not the serialization itself, `_serial(key)`
    gives it; `entries` sorts by serialization on every call."""

    def __init__(self, items=()):
        self._data: dict = {}
        for x in items:
            self.add(x)

    @staticmethod
    def _serial(key) -> str:
        return key

    def _merge(self, key, item) -> None:
        cur = self._data.get(key)
        if cur is None:
            self._data[key] = item
            return
        c = cur.coeff + item.coeff
        if c == 0:
            del self._data[key]
        else:
            merged = object.__new__(cur.__class__)
            merged.__dict__.update(cur.__dict__, coeff=c)
            self._data[key] = merged

    def entries(self) -> list:
        """The items in serialization order."""
        return [self._data[k] for k in sorted(self._data, key=self._serial)]

    def __len__(self):
        return len(self._data)

    def __iter__(self):
        return iter(self._data.values())

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return {k: x.coeff for k, x in self._data.items()} == \
               {k: x.coeff for k, x in other._data.items()}
