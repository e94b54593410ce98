"""Seeded randomized checks of the structural invariants.

These back the `gamma-check` command and the property tests: linearity of
the deformation, commutation with propagator convolutions, conservation of
the leaf-species imbalance, the contraction-count law against brute-force
enumeration, and stability of canonical forms under factor permutations
and index renamings.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .deformation import (
    brute_force_contractions, contraction_count, gamma_Q, gamma_Q_convolved,
)
from .diagrams import DeformedSum, free_leaves
from .perturbation import expand
from .terms import (
    GPSI, GPSIBAR, PHI, PHIBAR,
    Leaf, Prod, Term, TermSum,
    canonical_key, canonicalize, convolve, grading, index_occurrences,
    product, rename_indices,
)

BARE_LEAVES_MAX = 4         # most leaves of each species in a bare monomial
CONTRACTION_COUNTS_MAX = 5  # most leaves of each species checked for counts

_SERIES = None


def _series():
    global _SERIES
    if _SERIES is None:
        _SERIES = expand(3)
    return _SERIES


def random_bare_monomial(rng: random.Random) -> Term:
    r = rng.randint(0, BARE_LEAVES_MAX)
    rb = rng.randint(0 if r else 1, BARE_LEAVES_MAX)
    kids = tuple([Leaf(PHI, i) for i in range(r)] +
                 [Leaf(PHIBAR, r + i) for i in range(rb)])
    node = kids[0] if len(kids) == 1 else Prod(kids)
    return canonicalize(Term(Fraction(1), node))


def random_term(rng: random.Random) -> Term:
    """A representative canonical term: a recursion monomial, a bare
    monomial, or a product of the two."""
    s = _series()
    roll = rng.random()
    if roll < 0.4:
        k = rng.randint(0, 3)
        branch = rng.choice(("spinor", "cospinor"))
        monos = s.coefficient(k, branch).terms()
        return rng.choice(monos)
    if roll < 0.7:
        return random_bare_monomial(rng)
    k = rng.randint(0, 2)
    mono = rng.choice(s.coefficient(k, "spinor").terms())
    return canonicalize(product(mono, random_bare_monomial(rng)))


def check_linearity(rng: random.Random, trials: int) -> dict:
    failures = 0
    for _ in range(trials):
        t1, t2 = random_term(rng), random_term(rng)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        combo = TermSum([t1.scaled(a), t2.scaled(b)])
        lhs = gamma_Q(combo)
        rhs = DeformedSum()
        rhs.extend(gamma_Q(TermSum([t1])), scale=a)
        rhs.extend(gamma_Q(TermSum([t2])), scale=b)
        if lhs != rhs:
            failures += 1
    return {"name": "linearity", "trials": trials, "failures": failures}


def check_convolve_commutation(rng: random.Random, trials: int) -> dict:
    s = _series()
    failures = done = 0
    while done < trials:
        k = rng.randint(0, 3)
        branch = rng.choice(("spinor", "cospinor"))
        t = rng.choice(s.coefficient(k, branch).terms())
        kind = GPSI if branch == "spinor" else GPSIBAR
        wrapped = canonicalize(convolve(kind, t))
        lhs = gamma_Q(wrapped)
        rhs = gamma_Q_convolved(kind, t)
        if lhs != rhs:
            failures += 1
        done += 1
    return {"name": "convolve_commutation", "trials": trials, "failures": failures}


def check_leaf_parity(rng: random.Random, trials: int) -> dict:
    failures = 0
    for _ in range(trials):
        t = random_term(rng)
        g = grading(t)
        imbalance = g.r - g.r_bar
        for d in gamma_Q(TermSum([t])):
            frees = free_leaves(d)
            got = sum(1 for sp, _ in frees if sp == PHI) - \
                sum(1 for sp, _ in frees if sp == PHIBAR)
            if got != imbalance:
                failures += 1
    return {"name": "leaf_parity", "trials": trials, "failures": failures}


def check_contraction_counts() -> dict:
    failures = checked = 0
    for r in range(CONTRACTION_COUNTS_MAX + 1):
        for rb in range(CONTRACTION_COUNTS_MAX + 1):
            for k in range(min(r, rb) + 1):
                checked += 1
                if contraction_count(r, rb, k) != brute_force_contractions(r, rb, k):
                    failures += 1
    return {"name": "contraction_counts", "trials": checked, "failures": failures}


def check_canonical_stability(rng: random.Random, trials: int) -> dict:
    failures = 0
    for _ in range(trials):
        t = random_term(rng)
        key = canonical_key(t)
        node = t.node
        if isinstance(node, Prod):
            kids = list(node.children)
            rng.shuffle(kids)
            node = Prod(tuple(kids))
        ids = sorted({i for i, _, _ in index_occurrences(node)})
        shuffled = ids[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(ids, shuffled))
        renamed = Term(t.coeff, rename_indices(node, mapping.__getitem__))
        if canonical_key(canonicalize(renamed)) != key:
            failures += 1
    return {"name": "canonical_stability", "trials": trials, "failures": failures}


def check_grading_additivity(rng: random.Random, trials: int) -> dict:
    failures = 0
    for _ in range(trials):
        t1, t2 = random_term(rng), random_term(rng)
        both = product(t1, t2)
        if grading(both).as_tuple() != (grading(t1) + grading(t2)).as_tuple():
            failures += 1
    return {"name": "grading_additivity", "trials": trials, "failures": failures}


def run_all(seed: int, trials: int = 30) -> dict:
    rng = random.Random(seed)
    checks = [
        check_linearity(rng, trials),
        check_convolve_commutation(rng, trials),
        check_leaf_parity(rng, trials),
        check_contraction_counts(),
        check_canonical_stability(rng, trials),
        check_grading_additivity(rng, trials),
    ]
    return {
        "seed": seed,
        "trials": trials,
        "checks": checks,
        "failures": sum(c["failures"] for c in checks),
    }
