import json
import random
from fractions import Fraction

import pytest

from sthirring.errors import InvariantError
from sthirring.terms import (
    DOWN, GPSI, GPSIBAR, PHI, PHIBAR,
    Conv, Gamma, Leaf, Prod, Term, TermSum,
    canonical_key, canonicalize, convolve, grading,
    phi, phibar, product, to_tex,
)

from helpers import (
    free_indices, node_from_json, node_to_json, term_from_json, term_to_json,
)


def bilinear(i0=0, mu=1, i1=2):
    """PhiBar gamma Phi with one free vector index."""
    return Term(1, Prod((Leaf(PHIBAR, i0), Gamma(mu, i0, i1), Leaf(PHI, i1))))


def test_product_merges_gradings():
    t = product(phi(0), phibar(0))
    g = grading(t)
    assert (g.r, g.r_bar, g.l, g.l_bar) == (1, 1, 0, 0)


def test_commutativity_of_canonical_product():
    a, b = phi(0), phibar(0)
    assert canonical_key(product(a, b)) == canonical_key(product(b, a))


def test_canonicalize_idempotent():
    t = canonicalize(product(product(phi(0), phibar(0)), bilinear()))
    assert canonicalize(t).node == t.node


def test_index_renaming_invariance():
    t1 = Term(1, Prod((Leaf(PHI, 3), Leaf(PHIBAR, 9))))
    t2 = Term(1, Prod((Leaf(PHI, 100), Leaf(PHIBAR, 4))))
    assert canonical_key(t1) == canonical_key(t2)


def test_convolve_grading_and_rank():
    t = convolve(GPSIBAR, phibar(0))
    g = grading(t)
    assert (g.r, g.r_bar, g.l, g.l_bar) == (0, 1, 0, 1)
    # cospinor rank: one free lower spinor index, the propagator's output
    assert free_indices(t.node) == {t.node.out_index: (DOWN, "spinor")}


def test_convolve_rank_mismatch():
    with pytest.raises(InvariantError):
        convolve(GPSI, phibar(0))
    with pytest.raises(InvariantError):
        convolve(GPSI, product(phi(0), phi(0)))  # two free upper indices


def test_convolve_never_changes_field_counts():
    t = convolve(GPSI, phi(0))
    g = grading(t)
    assert (g.r, g.r_bar) == (1, 0)


def test_gamma_wiring_distinguishes_terms():
    # (PhiBar g Phi) g X  versus  (PhiBar g X) g Phi differ only by wiring
    x = convolve(GPSI, phi(0))
    a = Prod((Leaf(PHIBAR, 10), Gamma(11, 10, 12), Leaf(PHI, 12),
              Gamma(11, 13, 14), Conv(GPSI, 14, 15, Leaf(PHI, 15))))
    b = Prod((Leaf(PHIBAR, 10), Gamma(11, 10, 14), Conv(GPSI, 14, 15, Leaf(PHI, 15)),
              Gamma(11, 13, 12), Leaf(PHI, 12)))
    assert canonical_key(Term(1, a)) != canonical_key(Term(1, b))


def test_termsum_merges_with_multiplicity():
    s = TermSum()
    s.add(product(phi(0), phibar(0)))
    s.add(product(phibar(0), phi(0)).scaled(2))
    assert len(s) == 1
    assert s.terms()[0].coeff == Fraction(3)
    s.add(product(phi(0), phibar(0)).scaled(-3))
    assert len(s) == 0


def test_grading_additivity_random():
    rng = random.Random(11)
    for _ in range(200):
        r1, r2 = rng.randint(0, 3), rng.randint(0, 3)
        b1, b2 = rng.randint(0 if r1 else 1, 3), rng.randint(0 if r2 else 1, 3)

        def make(r, b):
            kids = tuple([Leaf(PHI, i) for i in range(r)] +
                         [Leaf(PHIBAR, r + i) for i in range(b)])
            return Term(1, kids[0] if len(kids) == 1 else Prod(kids))

        t1, t2 = make(r1, b1), make(r2, b2)
        got = grading(product(t1, t2))
        want = grading(t1) + grading(t2)
        assert got == want


def test_canonical_soundness_randomized():
    # permuted children and renamed indices canonicalize identically
    rng = random.Random(5)
    base = Prod((Leaf(PHIBAR, 0), Gamma(1, 0, 2), Leaf(PHI, 2),
                 Gamma(1, 3, 4), Leaf(PHI, 4),
                 Conv(GPSIBAR, 5, 6, Leaf(PHIBAR, 6))))
    key = canonical_key(Term(1, base))
    ids = [0, 1, 2, 3, 4, 5, 6]
    for _ in range(300):
        kids = list(base.children)
        rng.shuffle(kids)
        perm = ids[:]
        rng.shuffle(perm)
        ren = dict(zip(ids, perm))

        def rn(n):
            if isinstance(n, Leaf):
                return Leaf(n.species, ren[n.index])
            if isinstance(n, Gamma):
                return Gamma(ren[n.mu], ren[n.row], ren[n.col])
            if isinstance(n, Conv):
                return Conv(n.kind, ren[n.out_index], ren[n.in_index], rn(n.inner))
            return n

        shuffled = Prod(tuple(rn(k) for k in kids))
        assert canonical_key(Term(1, shuffled)) == key


def test_tex_rendering():
    assert to_tex(phi(0)) == r"\Phi^{\rho_{0}}"
    assert "circledast" in to_tex(convolve(GPSI, phi(0)))
    assert to_tex(phi(0).scaled(Fraction(1, 2))).startswith(r"\tfrac{1}{2}")


def test_json_roundtrip():
    t = canonicalize(Term(Fraction(-3, 7), Prod((
        Leaf(PHIBAR, 0), Gamma(1, 0, 2), Leaf(PHI, 2),
        Gamma(1, 3, 4), Conv(GPSI, 4, 5, Leaf(PHI, 5))))))
    data = json.loads(json.dumps(term_to_json(t)))
    back = term_from_json(data)
    assert back.coeff == t.coeff
    assert canonical_key(back) == canonical_key(t)
    assert node_from_json(node_to_json(t.node)) == t.node


def test_canonical_soundness_thousand_trials():
    # renamed indices, and permuted factors of the top-level product only
    # (nested products keep their order), over random recursion
    # monomials, bare monomials and products of the two
    from sthirring.properties import check_canonical_stability
    rep = check_canonical_stability(random.Random(99), 1000)
    assert rep["failures"] == 0
