import random

import pytest

from char2lie import deriv as dv
from char2lie import doubleext as dx
from char2lie import invariants as inv
from char2lie import liesuper as ls


def build_ext(built, args, label, m=0):
    fam, g, B = built(*args)
    gens = dict(dv.closed_form_generators(fam, g))
    D = gens[label]
    return dx.build(g, B, dx.prepare(g, B, D, m=m))


def test_super_rank_zero(built):
    fam, g, B = built("h", "Pi", 0, 4)
    zero = dv.LinearMap((0,) * g.n, 0, (0, 0), 0)
    assert inv.super_rank(g, zero) == inv.SuperRank(0, 0)


def test_super_rank_db_exceptional(built):
    ext = build_ext(built, ("h", "Pi", 0, 4), "Db[xi1]")
    d_idx = ext.alg.n - 1
    sr = inv.super_rank(ext.alg, 1 << d_idx)
    assert (sr.even_rank, sr.odd_rank) == (2, 2)


def test_rank_d0_in_po_hat(built):
    for n in (2, 3):
        ext = build_ext(built, ("h", "I", 0, 2 * n), "Deuler")
        d_idx = ext.alg.n - 1
        assert inv.ad_rank(ext.alg, 1 << d_idx) == 2 ** (2 * n - 1)


def test_ad_rank_spectra_b_tilde_vs_b(built):
    bt = build_ext(built, ("le", "", 0, 0, 2), "Db[q1]")
    bb = build_ext(built, ("le", "", 0, 0, 2), "Dtop")
    assert not inv.has_odd_ad_rank(bb.alg)  # no element of b(2|2) has odd rank
    ev = inv.distinguish(bt.alg, bb.alg)
    assert ev != "inconclusive"


def test_has_odd_ad_rank_refuses_beyond_exhaustive(built):
    fam, g, B = built("h", "Pi", 0, 5)
    assert g.n == 30
    with pytest.raises(ValueError, match="2\\^n"):
        inv.has_odd_ad_rank(g)


def test_abelian_spectrum_zero():
    basis = [ls.BasisElement(f"e{i}", 0, 0, ()) for i in range(3)]
    g = ls.StructureConstants(basis, [[0] * 3 for _ in range(3)], [0, 0, 0])
    assert inv.ad_rank_spectrum(g) == (0, 0, 0)


def test_distinguish_self_inconclusive(built):
    fam, g, B = built("h", "Pi", 0, 4)
    assert inv.distinguish(g, g) == "inconclusive"


def test_distinguish_symmetric(built):
    bt = build_ext(built, ("le", "", 0, 0, 2), "Db[q1]")
    bb = build_ext(built, ("le", "", 0, 0, 2), "Dtop")
    assert (inv.distinguish(bt.alg, bb.alg) != "inconclusive") == (
        inv.distinguish(bb.alg, bt.alg) != "inconclusive"
    )


def test_po_hat_tilde_po_distinguished(built):
    hat = build_ext(built, ("h", "I", 0, 4), "Deuler")
    tilde = build_ext(built, ("h", "I", 0, 4), "Db[xi1]")
    po = build_ext(built, ("h", "I", 0, 4), "Dtop")
    assert inv.distinguish(hat.alg, tilde.alg) != "inconclusive"
    assert inv.distinguish(hat.alg, po.alg) != "inconclusive"


def test_fingerprint_permutation_invariance(built):
    fam, g, B = built("h", "Pi", 0, 4)
    rng = random.Random(23)
    perm = list(range(g.n))
    rng.shuffle(perm)
    inverse = [0] * g.n
    for i, p in enumerate(perm):
        inverse[p] = i

    def remap(vec):
        out = 0
        for i in range(g.n):
            if (vec >> i) & 1:
                out |= 1 << inverse[i]
        return out

    basis = [g.basis[perm[i]] for i in range(g.n)]
    brk = [[remap(g.brk[perm[i]][perm[j]]) for j in range(g.n)] for i in range(g.n)]
    sq = [remap(g.sq[perm[i]]) for i in range(g.n)]
    g2 = ls.StructureConstants(basis, brk, sq)
    assert g2.verify_axioms().ok
    assert inv.fingerprint(g) == inv.fingerprint(g2)


def test_fingerprint_serialization(built):
    fam, g, B = built("h", "Pi", 0, 4)
    text = inv.fingerprint(g).serialize()
    assert text.splitlines()[0] == "sdim 6|8"
    assert "basis-ranks" in text


def test_po05_m_fingerprints_reported(built):
    # no non-isomorphism certificate is expected from these invariants
    # for m != 0; report whatever the fingerprints find without asserting
    e0 = build_ext(built, ("h", "Pi", 0, 5), "Dtop", m=0)
    e1 = build_ext(built, ("h", "Pi", 0, 5), "Dtop", m=1)
    verdict = inv.distinguish(e0.alg, e1.alg)
    assert verdict == "inconclusive" or verdict.component
