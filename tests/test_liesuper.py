import os
import random
import subprocess
import sys

import pytest

from char2lie import cli
from char2lie import liesuper as ls
from char2lie.gf2core import SpanBasis, flatten_cols, span_dim


def names(g, rows):
    return sorted(g.element_name(r) for r in rows)


def test_h_pi_04_dimensions(built):
    fam, g, B = built("h", "Pi", 0, 4)
    assert g.n == 14
    assert (len(g.even_indices()), len(g.odd_indices())) == (6, 8)
    assert g.verify_axioms().ok
    assert g.verify_form(B).ok
    assert B.parity == 0
    assert B.is_nondegenerate()


def test_build_matches_derived_series_oracle(built):
    # h^(1) must equal the derived algebra of po/<1>, computed from scratch
    fam, g, B = built("h", "Pi", 0, 4)
    po, _ = ls.poisson_algebra(fam.space())
    z = ls.center(po)
    assert names(po, z.rows) == ["1"]
    h = ls.quotient(po, z)
    d = ls.derived(h, 1)
    assert d.dim == g.n == 14
    h1 = ls.derived(h, 2)
    assert h1.dim == 14  # stable: h^(1) is its own derived algebra


def test_le22_excludes_constants_and_top(built):
    fam, g, B = built("le", n=2)
    assert g.n == 14
    labels = [b.name for b in g.basis]
    assert "1" not in labels
    assert "q1.pi1.q2.pi2" not in labels
    assert g.verify_axioms().ok
    assert B.parity == 0  # two odd indeterminates


def test_h_0_5_superdimension(built):
    fam, g, B = built("h", "Pi", 0, 5)
    assert (len(g.even_indices()), len(g.odd_indices())) == (15, 15)
    assert B.parity == 1
    assert g.verify_axioms().ok


def test_axioms_all_size4_families(built):
    for args in [("h", "Pi", 0, 4), ("h", "Pi", 4, 0), ("h", "I", 0, 4), ("h", "I", 4, 0),
                 ("h", "PiPi", 2, 2), ("h", "PiPi", 1, 3), ("h", "PiPi", 3, 1),
                 ("h", "PiI", 2, 2), ("h", "IPi", 2, 2), ("h", "II", 2, 2)]:
        fam, g, B = built(*args)
        assert g.verify_axioms().ok, fam.name
        assert g.verify_form(B).ok, fam.name
        assert B.is_nondegenerate(), fam.name


def test_graded_flag_is_mechanical(built):
    # graded (desuperized) families are exactly those mixing parities with
    # diagonal form blocks
    expected = {
        ("h", "Pi", 0, 4): False,
        ("h", "I", 0, 4): False,
        ("h", "I", 4, 0): False,
        ("h", "PiPi", 2, 2): False,
        ("h", "PiPi", 1, 3): True,
        ("h", "PiI", 2, 2): True,
        ("h", "IPi", 2, 2): True,
        ("h", "II", 2, 2): True,
        ("h", "Pi", 0, 5): False,
        ("h", "PiPi", 2, 3): True,
        ("le", "", 0, 0, 2): False,
    }
    for args, graded in expected.items():
        fam, g, B = built(*args)
        assert g.graded_only == graded, fam.name


def test_perturbed_table_fails():
    fam = ls.family("h", "Pi", 0, 4)
    g, _ = ls.build_algebra(fam)
    bad = ls.StructureConstants(g.basis, g.brk, g.sq, meta=g.meta)
    bad.brk[0][1] ^= 1 << 5
    bad.brk[1][0] ^= 1 << 5
    rep = bad.verify_axioms()
    assert not rep.ok


def test_derived_po_drops_top_only(built):
    # {xi1, eta1} = 1 lies in the derived algebra, so only the top
    # monomial is lost
    fam, g, B = built("h", "Pi", 0, 4)
    po, _ = ls.poisson_algebra(fam.space())
    d = ls.derived(po, 1)
    assert d.dim == 15
    span = SpanBasis()
    span.extend(d.rows)
    one = 1 << 0
    assert span.contains(one)
    top = 1 << (po.n - 1)
    assert not span.contains(top)


def test_derived_chain_descends(built):
    fam, g, B = built("h", "Pi", 0, 4)
    po, _ = ls.poisson_algebra(fam.space())
    prev = [1 << k for k in range(po.n)]
    span_prev = SpanBasis()
    span_prev.extend(prev)
    for i in range(1, 4):
        cur = ls.derived(po, i).rows
        span_cur = SpanBasis()
        span_cur.extend(cur)
        assert span_cur.dim <= span_prev.dim
        for r in cur:
            assert span_prev.contains(r)
        span_prev = span_cur


def test_derived_abelian_and_simplicity(built):
    basis = [ls.BasisElement(f"e{i}", 0, 0, ()) for i in range(2)]
    ab = ls.StructureConstants(basis, [[0, 0], [0, 0]], [0, 0])
    assert ls.derived(ab, 1).dim == 0
    fam, g, B = built("h", "Pi", 0, 4)
    assert ls.derived(g, 1).dim == g.n


def test_center_examples(built):
    fam, g, B = built("h", "Pi", 0, 4)
    assert ls.center(g).dim == 0
    po, _ = ls.poisson_algebra(fam.space())
    z = ls.center(po)
    assert names(po, z.rows) == ["1"]
    # direct sum with a 1-dim abelian summand
    n = g.n
    basis = list(g.basis) + [ls.BasisElement("x", 0, 0, (0, 0))]
    brk = [row + [0] for row in g.brk] + [[0] * (n + 1)]
    sq = list(g.sq) + [0]
    gs = ls.StructureConstants(basis, brk, sq)
    zc = ls.center(gs)
    assert zc.dim == 1 and zc.rows[0] == 1 << n


def test_special_center(built):
    fam, g, B = built("h", "Pi", 0, 4)
    assert ls.special_center(g, B).dim == 0
    po, Bpo = ls.poisson_algebra(fam.space())
    zs = ls.special_center(po, Bpo)
    assert names(po, zs.rows) == ["1"]  # 1 is orthogonal to all squares


def test_quotient_po_is_h(built):
    fam, g, B = built("h", "Pi", 0, 4)
    po, _ = ls.poisson_algebra(fam.space())
    h = ls.quotient(po, ls.center(po))
    assert h.n == 15
    assert h.verify_axioms().ok
    # le(2|2) = b(2|2)/<1>
    lef = ls.family("le", n=2)
    bb, _ = ls.poisson_algebra(lef.space())
    le = ls.quotient(bb, ls.center(bb))
    assert le.n == 15
    assert le.verify_axioms().ok


def test_quotient_rejects_non_ideal(built):
    fam, g, B = built("h", "Pi", 0, 4)
    with pytest.raises(ValueError):
        ls.quotient(g, ls.Subspace([1]))


def test_quotient_by_zero_is_identity(built):
    fam, g, B = built("h", "Pi", 0, 4)
    po, _ = ls.poisson_algebra(ls.family("h", "I", 0, 4).space())
    for a in (g, po):
        q = ls.quotient(a, ls.Subspace([]))
        assert q.brk == a.brk and q.sq == a.sq
    # the Leibniz diagonal brk[i][i] is part of the table the quotient copies
    assert q.is_leibniz and q.verify_axioms().ok


def test_restrictedness_pi_families(built):
    for args in [("h", "Pi", 0, 4), ("h", "Pi", 4, 0), ("h", "PiPi", 2, 2), ("le", "", 0, 0, 2)]:
        fam, g, B = built(*args)
        rep = ls.restrictedness_check(g)
        assert rep.ok, (fam.name, rep.failures)
        # witnesses actually solve (ad_x)^2 = ad_y
        for i, y in rep.witnesses.items():
            ci = g.ad_cols(1 << i)
            sq_cols = ls.compose_cols(ci, ci)
            assert sq_cols == g.ad_cols(y)


def test_restrictedness_negative_control():
    # [e0,e1] = e2, [e0,e2] = e1: (ad_e0)^2 fixes e1, e2 and is not inner
    basis = [ls.BasisElement(f"e{i}", 0, 0, ()) for i in range(3)]
    brk = [[0, 0b100, 0b010], [0b100, 0, 0], [0b010, 0, 0]]
    g = ls.StructureConstants(basis, brk, [0, 0, 0])
    assert g.verify_axioms().ok
    rep = ls.restrictedness_check(g)
    assert not rep.ok and 0 in rep.failures


def test_ad_preimage_with_a_center():
    # the unit of po hPi(0|4) is central, so ad is not injective there; the
    # negative control's (ad_e0)^2 is not inner
    po, _ = ls.poisson_algebra(ls.family("h", "Pi", 0, 4).space())
    assert not any(po.ad_cols(1 << 0))
    basis = [ls.BasisElement(f"e{i}", 0, 0, ()) for i in range(3)]
    control = ls.StructureConstants(basis, [[0, 0b100, 0b010], [0b100, 0, 0], [0b010, 0, 0]], [0, 0, 0])
    rng = random.Random(5)
    for g in (po, control):
        n = g.n
        maps = [flatten_cols(g.ad_cols(rng.getrandbits(n)), n) for _ in range(20)]
        maps += [flatten_cols(ls.compose_cols(c, c), n) for c in map(g.ad_cols, (1 << i for i in range(n)))]
        maps += [rng.getrandbits(n * n) for _ in range(20)]
        span = SpanBasis()  # the ad(e_k), with no marker bits: an oracle apart from ad_preimage
        span.extend(flatten_cols(row, n) for row in g.brk)
        found = ls.ad_preimage(g, maps)
        assert None in found and any(y is not None for y in found)
        for v, y in zip(maps, found):
            assert (y is not None) == span.contains(v)
            if y is not None:
                assert flatten_cols(g.ad_cols(y), n) == v


def test_ad_examples(built):
    fam, g, B = built("h", "Pi", 0, 4)
    assert span_dim(g.ad_cols(0)) == 0
    # ad of a central element of po is zero
    po, _ = ls.poisson_algebra(fam.space())
    assert span_dim(po.ad_cols(1 << 0)) == 0  # the unit
    # the columns of ad(e_0) are the brackets [e_0, e_j]; g has no center
    assert g.ad_cols(1) == g.brk[0]
    assert span_dim(g.ad_cols(1)) > 0


def test_leibniz_object_checks_squarings():
    # po hI(0|4) is Leibniz and not graded-only, so its squaring table is
    # checked: an even bit breaks the squaring identity, an odd bit also
    # the squaring parity
    po, _ = ls.poisson_algebra(ls.family("h", "I", 0, 4).space())
    assert po.is_leibniz and not po.graded_only and po.verify_axioms().ok
    for bit, kind in ((3, "squaring-jacobi"), (1, "squaring-parity")):
        sq = list(po.sq)
        sq[1] ^= 1 << bit
        bad = ls.StructureConstants(po.basis, po.brk, sq, meta=po.meta)
        rep = bad.verify_axioms()
        assert not rep.ok and rep.failures[0][0] == kind, rep
    # and its bracket parities: [e_1, e_2] gets the odd e_1
    bad = ls.StructureConstants(po.basis, po.brk, po.sq, meta=po.meta)
    bad.brk[1][2] ^= 1 << 1
    bad.brk[2][1] ^= 1 << 1
    assert ("bracket-parity", 1, 2) in bad.verify_axioms().failures


def test_nis_invariance_includes_squares(built):
    for args in [("h", "Pi", 0, 4), ("h", "I", 0, 4), ("le", "", 0, 0, 2), ("h", "Pi", 0, 5)]:
        fam, g, B = built(*args)
        assert g.verify_form(B).ok, fam.name


def test_size8_leibniz_check_scale():
    # po hI(0|8): n = 256, a Leibniz object, one size past the report's
    # range; its axiom check must run in a fresh interpreter within 250 MB.
    # The peak is VmHWM, that of the interpreter's own address space:
    # ru_maxrss of a spawned process also counts the RSS of the process
    # that spawned it, here pytest's
    code = (
        "import re\n"
        "from char2lie import liesuper as ls\n"
        "g, _ = ls.poisson_algebra(ls.family('h', 'I', 0, 8).space())\n"
        "assert g.n == 256 and g.is_leibniz\n"
        "assert g.verify_axioms().ok\n"
        "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ls.__file__))}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert int(res.stdout) <= 250 * 1024


def _right_normed_span(g, gens) -> int:
    """Dimension of the span of S, [S, S], [S, [S, S]], ...: brackets with
    the generators only, until the span stops growing."""
    span = SpanBasis()
    level = [1 << s for s in gens]
    while level:
        level = [v for v in level if span.add(v)]
        level = [g.bracket_vec(1 << s, v) for s in gens for v in level]
    return span.dim


@pytest.mark.parametrize("total", [4, 5, 6, 7])
def test_generating_set_spans_and_is_deterministic(total):
    for fam in cli.standard_families(total):
        g, _ = ls.build_algebra(fam)
        gens = ls.generating_set(g)
        assert gens == ls.generating_set(ls.build_algebra(fam)[0]), fam.name
        assert gens == sorted(gens, key=lambda k: (abs(g.basis[k].degree), k)), fam.name
        assert len(set(gens)) == len(gens) < g.n, fam.name
        assert _right_normed_span(g, gens) == g.n, fam.name


# -- variable symmetries -------------------------------------------------------


def _bracket_preserved(g, p):
    """brk[p i][p j] = p(brk[i][j]) for every i, j, bit by bit."""
    def image(v):
        return sum(1 << p[b] for b in range(g.n) if v >> b & 1)

    return all(g.brk[p[i]][p[j]] == image(g.brk[i][j]) for i in range(g.n) for j in range(g.n))


def _swap_perm(g, swap):
    """The basis permutation of a variable permutation given as {var: var}."""
    index = {m: i for i, m in enumerate(g.meta["masks"])}
    return tuple(index[sum(1 << swap.get(b, b) for b in range(8) if m >> b & 1)] for m in g.meta["masks"])


def test_le_within_pair_swaps_flip_parity():
    # le(2|2) pairs (pi1, q1) and (pi2, q2): all three candidates keep the
    # bracket, but swapping q with pi changes the parity, so only the swap
    # of the two pairs is an automorphism
    g, _ = ls.build_algebra(ls.family("le", n=2))
    (u1, v1), (u2, v2) = g.meta["space"].kind.pairs
    within = [_swap_perm(g, {u1: v1, v1: u1}), _swap_perm(g, {u2: v2, v2: u2})]
    across = _swap_perm(g, {u1: u2, u2: u1, v1: v2, v2: v1})
    assert all(_bracket_preserved(g, p) for p in within + [across])
    assert all(any(g.parity(p[i]) != g.parity(i) for i in range(g.n)) for p in within)
    assert ls.symmetries(g) == [across]


def test_symmetries_are_automorphisms_and_need_the_meta():
    for total in (4, 5, 6):
        for fam in cli.standard_families(total):
            g, _ = ls.build_algebra(fam)
            perms = ls.symmetries(g)
            assert perms, fam.name
            for p in perms:
                assert sorted(p) == list(range(g.n)) and _bracket_preserved(g, p), fam.name
                assert all(g.parity(p[i]) == g.parity(i) for i in range(g.n))
                if not g.graded_only:
                    assert all(g.sq[p[i]] == sum(1 << p[b] for b in range(g.n) if g.sq[i] >> b & 1)
                               for i in g.odd_indices())
    g, _ = ls.build_algebra(ls.family("h", "Pi", 0, 4))
    bare = ls.StructureConstants(g.basis, g.brk, g.sq, meta={"family": g.meta["family"]})
    assert ls.symmetries(bare) == []


def test_symmetries_reject_a_flipped_square():
    # hI(0|6) with xi1.eta1.theta2.theta1 added to the square of
    # xi1.eta1.theta1: the swaps that move theta1 or the pair (xi1, eta1)
    # no longer commute with the squaring
    fam = ls.family("h", "I", 0, 6)
    g, _ = ls.build_algebra(fam)
    masks = g.meta["masks"]
    before = ls.symmetries(g)
    g.sq[masks.index(0b010011)] ^= 1 << masks.index(0b110011)
    after = ls.symmetries(g)
    assert (len(before), len(after)) == (4, 2) and set(after) < set(before)


def test_orbits_breadth_first_from_the_least_point():
    # on 0..5: (0 1)(2 3) and (1 2) join 0..3; 4 and 5 stay fixed
    perms = [[1, 0, 3, 2, 4, 5], [0, 2, 1, 3, 4, 5]]
    assert ls.orbits(perms, 6) == [[(0, None, None), (1, 0, 0), (2, 1, 1), (3, 2, 0)],
                                   [(4, None, None)], [(5, None, None)]]
