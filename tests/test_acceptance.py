"""Acceptance suite.

One test per criterion, plus *_expected_value companions for reference
values that the mechanical computation refutes; those document the
discrepancy in their assertion message and fail deliberately.  Each test
prints a criterion verdict line; run with -s to see them.
"""

import hashlib
import time

import pytest

from char2lie import cli
from char2lie import deriv as dv
from char2lie import doubleext as dx
from char2lie import invariants as inv
from char2lie import liesuper as ls
from char2lie.gf2core import SpanBasis

SIZE6_TABLE_FAMILIES = [
    ("h", "Pi", 0, 6), ("h", "Pi", 6, 0), ("h", "PiPi", 2, 4), ("h", "PiPi", 3, 3),
    ("h", "I", 0, 6), ("h", "I", 6, 0), ("h", "II", 2, 4), ("h", "PiI", 2, 4),
]


@pytest.fixture(scope="module")
def registry():
    """Everything the acceptance run constructs: families at sizes 4-6,
    their dex pipelines, and the po/b targets at sizes <= 5."""
    reg = {"families": {}, "dex": {}, "targets": {}}
    fams = cli.standard_families(4) + cli.standard_families(5)
    fams += [ls.family(k, f, a, b) for k, f, a, b in SIZE6_TABLE_FAMILIES]
    fams.append(ls.family("le", n=3))
    for fam in fams:
        slug = cli.family_slug(fam)
        an, rows = cli.dex_family(fam)
        reg["families"][slug] = (fam, an.g, an.B)
        reg["dex"][slug] = (an, rows)
        if fam.a + fam.b <= 5 or fam.kind == "le":
            reg["targets"][slug] = ls.poisson_algebra(fam.space())
    return reg


def rows_by_label(reg, slug):
    an, rows = reg["dex"][slug]
    return {r.label: r for r in rows}


def ext_by_name(reg, slug, name):
    an, rows = reg["dex"][slug]
    for nm, ext, _ in (b for r in rows for b in r.built):
        if nm == name:
            return ext
    raise KeyError(name)


# ---------------------------------------------------------------------------
# criterion 1: outer-derivation inventories at a+b = 4
# ---------------------------------------------------------------------------


def outer_shape(an):
    return {k: len(v) for k, v in an.space.outer_reps.items()}


def test_criterion1_inventories(registry):
    t0 = time.perf_counter()
    an, _ = registry["dex"]["h_Pi_0_4"]
    shape = outer_shape(an)
    assert sum(shape.values()) == 7
    assert {k[0] for k in shape} == {-2, 0, 2}
    deg0_weights = sorted(k[1] for k in shape if k[0] == 0)
    assert deg0_weights == [(-2, 0), (0, -2), (0, 0), (0, 2), (2, 0)]

    an_i, _ = registry["dex"]["h_I_0_4"]
    assert sum(outer_shape(an_i).values()) == 6

    an_le, _ = registry["dex"]["le_2"]
    shape_le = outer_shape(an_le)
    assert sum(shape_le.values()) == 7
    assert sorted((k[0], k[1]) for k in shape_le) == sorted((k[0], k[1]) for k in shape)
    for k in shape_le:
        if k[0] == 0 and k[1] != (0, 0):
            assert k[2] == 1  # D_b odd for le
    dt = time.perf_counter() - t0
    assert dt < 60
    print(f"\ncriterion 1 (inventories at a+b=4, attainable part): PASS in {dt:.1f}s")


def test_criterion1_expected_value_five_exceptional(registry):
    """Reference inventory: two outer classes for each of the five
    exceptional algebras.  The solver finds six (degrees -2, 0 x4, +2)
    under every equation-set variant tried; only the +-2 pair admits
    invariant-form extensions.  Fails deliberately."""
    counts = {}
    for slug in ("h_II_2_2", "h_PiI_2_2", "h_IPi_2_2", "h_PiPi_1_3", "h_PiPi_3_1"):
        an, _ = registry["dex"][slug]
        counts[slug] = sum(outer_shape(an).values())
    print(f"\ncriterion 1 (expected value, five exceptional -> 2 each): mechanical counts {counts}")
    assert all(c == 2 for c in counts.values()), (
        f"mechanical outer counts {counts}; the reference value 2 is not reproducible "
        "(only the +-2-degree classes admit invariant-form extensions, which is what "
        "the size-4 extension table records)"
    )


# ---------------------------------------------------------------------------
# criterion 2: closed-form generators span the solver space
# ---------------------------------------------------------------------------


def test_criterion2_closed_form_oracle(registry):
    t0 = time.perf_counter()
    fams = [f for f, g, B in registry["families"].values() if f.a + f.b <= 5]
    fams.append(ls.family("h", "Pi", 0, 7))
    for fam in fams:
        slug = cli.family_slug(fam)
        if slug in registry["dex"]:
            an, _ = registry["dex"][slug]
            g, B, space = an.g, an.B, an.space
        else:
            g, B = ls.build_algebra(fam)
            space = dv.derivation_space_blocked(g)
        span = SpanBasis()
        for d in space.inner:
            span.add(d.as_vec())
        for label, D in dv.closed_form_generators(g):
            span.add(D.as_vec())
        assert span.dim == space.dim, f"{fam.name}: closed+inner {span.dim} != solver {space.dim}"
    dt = time.perf_counter() - t0
    assert dt < 600
    print(f"\ncriterion 2 (closed-form oracle, {len(fams)} families incl. Pi(0|7)): PASS in {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: table rows at the smallest applicable sizes
# ---------------------------------------------------------------------------


def _row(reg, slug, label):
    return rows_by_label(reg, slug).get(label)


def _built_ok(row):
    return bool(row and row.built and all(v for _, _, v in row.built))


def test_criterion3_tables(registry):
    failures = []

    def expect(slug, label, built, identified=None, m_variants=None):
        row = _row(registry, slug, label)
        if built:
            if not _built_ok(row):
                failures.append((slug, label, "expected extension", row and row.notes))
                return
            if identified and row.identified != identified:
                failures.append((slug, label, f"expected identified={identified}", row.identified))
            if m_variants is not None and len(row.built) != m_variants:
                failures.append((slug, label, f"expected {m_variants} m-variants", len(row.built)))
        else:
            if row is not None and row.built:
                failures.append((slug, label, "expected no extension", "built"))

    # size-4 extension table, Pi-type columns
    for slug in ("h_Pi_0_4", "h_Pi_4_0", "h_PiPi_2_2"):
        expect(slug, "Db", True)
        expect(slug, "D0", True)
        expect(slug, "D(+2)", True, identified="po")
        expect(slug, "D(-2)", True)
    # le column: D_b gives the twisted Buttin algebra with A = 0
    expect("le_2", "Db", True)
    expect("le_2", "D(+2)", True, identified="b")
    le_db = _row(registry, "le_2", "Db")
    assert le_db.case == "Dodd_Beven" and le_db.data_kind == "A"
    for nm, ext, ok in le_db.built:
        assert ext.provenance["A"] == 0

    # size-4 I-form table
    for slug in ("h_I_0_4", "h_I_4_0"):
        expect(slug, "D0", True)
        expect(slug, "Db", True)
        expect(slug, "Dtheta", False)
        expect(slug, "D(+2)", True, identified="po")
        expect(slug, "D(-2)", True)

    # size-5 odd-dimension tables: columns (0|5), PiPi(2|3), PiPi(1|4)
    for slug in ("h_Pi_0_5", "h_PiPi_2_3", "h_PiPi_1_4", "h_PiPi_3_2", "h_PiPi_4_1"):
        expect(slug, "Db", True)  # the D_x row
        expect(slug, "D0", False)  # does not preserve the form
        expect(slug, "D(+3)", True)  # the top extension (po-type) exists
    row = _row(registry, "h_Pi_0_5", "D(+3)")
    assert row is not None and row.case == "Dodd_Bodd"
    expect("h_Pi_0_5", "D(+3)", True, identified="po", m_variants=2)
    m_sq = [ext.alg.sq[ext.alg.n - 1] for _, ext, _ in row.built]
    assert m_sq[0] ^ m_sq[1] == 1  # s(D) differs by c between m=0 and m=1

    # generic even-size Pi-form table; the D0 cell of the (2a+1|2b+1)
    # column is in the documented-conflict companion test (the parity
    # argument that blocks the Euler class at odd total dimension does
    # not apply there)
    for slug in ("h_Pi_0_6", "h_Pi_6_0", "h_PiPi_2_4", "h_PiPi_3_3"):
        expect(slug, "Db", True)
        if slug != "h_PiPi_3_3":
            expect(slug, "D0", False)
        expect(slug, "D(+4)", True)

    # generic I-form table (size 6)
    for slug in ("h_I_0_6", "h_I_6_0", "h_II_2_4", "h_PiI_2_4"):
        expect(slug, "D0", True)
        expect(slug, "Db", True)
        expect(slug, "Dtheta", False)
        expect(slug, "D(+4)", True)

    # le table: le(2|2) and le(3|3) top rows
    expect("le_3", "D(+4)", True, identified="b")
    row = _row(registry, "le_3", "D(+4)")
    assert row.case == "Dev_Bodd" and row.data_kind == "-"
    # the m-family exists exactly for the Dodd_Bodd case
    for slug, (an, rows) in registry["dex"].items():
        for r in rows:
            if len(r.built) > 1:
                assert r.case == "Dodd_Bodd", (slug, r.label)

    assert not failures, failures
    print(f"\ncriterion 3 (table rows at smallest sizes, attainable cells): PASS")


def test_criterion3_expected_value_le_parity_rule(registry):
    """Reference rule: le(2n|2n) admits no even-derivation extensions and
    le(2n+1|2n+1) no odd-derivation extensions.  Mechanically the
    D0-extension of le(2|2) and the D_b-extension of le(3|3) satisfy
    every stated hypothesis and build into verified algebras.  Fails
    deliberately."""
    blocked = {}
    for slug, label in (("le_2", "D0"), ("le_3", "Db")):
        row = _row(registry, slug, label)
        blocked[(slug, label)] = not (row and row.built)
    print(f"\ncriterion 3 (expected le-parity cells blocked?): {blocked}")
    assert all(blocked.values()), (
        f"cells {blocked}: the rule's predicted-blocked extensions construct and verify "
        "mechanically (all case hypotheses hold); the reference '-' is not reproducible"
    )


def test_criterion3_expected_value_exceptional_deg0_columns(registry):
    """The reference tables leave the D_b/D_0 cells empty for the
    II/PiI/IPi(2|2) columns and mark D_0 'no' for the (2a+1|2b+1) column;
    mechanically those degree-0 classes preserve the bilinear form and
    admit verified (desuperized) extensions.  Fails deliberately."""
    built = {}
    for slug in ("h_II_2_2", "h_PiI_2_2", "h_IPi_2_2"):
        for label in ("Db", "D0"):
            row = _row(registry, slug, label)
            if row is not None:
                built[(slug, label)] = bool(row.built)
    row33 = _row(registry, "h_PiPi_3_3", "D0")
    built[("h_PiPi_3_3", "D0")] = bool(row33 and row33.built)
    print(f"\ncriterion 3 (expected exceptional deg-0 cells): built={built}")
    assert not any(built.values()), (
        f"{built}: these extensions construct and verify; the reference '-' cells "
        "are not reproducible mechanically"
    )


# ---------------------------------------------------------------------------
# criterion 4: axiom suite over everything constructed
# ---------------------------------------------------------------------------


def _collect_objects(registry):
    objs = []
    for slug, (fam, g, B) in registry["families"].items():
        objs.append((f"{slug}", g, B))
    for slug, (an, rows) in registry["dex"].items():
        for nm, ext, _ in (b for r in rows for b in r.built):
            objs.append((nm, ext.alg, ext.form))
    for slug, (po, Bpo) in registry["targets"].items():
        objs.append((f"po[{slug}]", po, Bpo))
    return objs


def test_criterion4_axiom_suite(registry):
    t0 = time.perf_counter()
    strict_violations = []
    leibniz_objects = []
    m_exceptions = []

    def m_exception_only(g, B):
        # s(D) = mc with B(c, D) = 1: only (D, D) square-invariance fails
        fails = g.verify_form(B, max_failures=5).failures
        didx = g.n - 1
        return (
            bool(fails)
            and all(f[0] == "square-invariance" and f[1] == didx and f[2] == didx for f in fails)
            and bool(g.sq[didx] & 1)
        )

    for name, g, B in _collect_objects(registry):
        ax = g.verify_axioms()
        fm = g.verify_form(B) if B is not None else ls.AxiomReport(True)
        ok = ax.ok and fm.ok
        if not ok and ax.ok and B is not None and m_exception_only(g, B):
            m_exceptions.append(name)
            ok = True
        if g.is_leibniz:
            leibniz_objects.append(name)
        if not ok:
            strict_violations.append((name, ax.failures[:2], fm.failures[:2]))
    dt = time.perf_counter() - t0
    assert not strict_violations, strict_violations
    print(
        f"\ncriterion 4 (axioms + NIS invariance over {len(_collect_objects(registry))} objects): PASS in {dt:.1f}s"
        f"\n  Leibniz-mode objects (verified via the left Leibniz identity): {len(leibniz_objects)}"
        f"\n  m!=0 extensions (square-invariance exception at (D,D) only): {sorted(m_exceptions)}"
    )


def test_criterion4_expected_value_strict(registry):
    """The literal criterion demands anticommutativity + Jacobi + the
    squaring identity and the full invariance identities for every
    object.  Extensions carrying the Leibniz diagonal ({w,w} = 1 for
    diagonal indeterminates) and the m != 0 family (s(D) = mc with
    B(c,D) = 1) cannot satisfy it.  Fails deliberately."""
    offenders = []
    for name, g, B in _collect_objects(registry):
        if g.is_leibniz:
            offenders.append((name, "Leibniz diagonal"))
        elif B is not None:
            fm = g.verify_form(B)
            if g.verify_axioms().ok and not fm.ok:
                offenders.append((name, "m != 0 square-invariance"))
    print(f"\ncriterion 4 (expected strict suite): {len(offenders)} documented exceptions")
    assert not offenders, (
        f"strict Lie-superalgebra axioms are unattainable for {offenders[:6]}... : "
        "the {{w,w}}=1 diagonals and s(D)=mc are intrinsic to these objects"
    )


# ---------------------------------------------------------------------------
# criterion 5: canonical identification at a+b <= 5
# ---------------------------------------------------------------------------


def test_criterion5_identifications(registry):
    t0 = time.perf_counter()
    checked = 0
    for slug, (an, rows) in registry["dex"].items():
        fam = an.fam
        if fam.a + fam.b > 5 and fam.kind != "le":
            continue
        top = max((r.degree for r in rows), default=0)
        for r in rows:
            if r.degree == top and r.degree > 0:
                expect = "b" if fam.kind == "le" else "po"
                assert r.identified == expect, (slug, r.label, r.identified)
                checked += 1
    assert checked >= 17
    dt = time.perf_counter() - t0
    print(f"\ncriterion 5 (top extension identified with po/b, {checked} families): PASS in {dt:.1f}s")


# ---------------------------------------------------------------------------
# criterion 6: rank lemmas
# ---------------------------------------------------------------------------


def test_criterion6_rank_lemmas(registry):
    t0 = time.perf_counter()
    # rk D0 = 2^(2n-1) in the hatted extension of h_I(0|2n), n = 2 and 3
    for slug, n in (("h_I_0_4", 2), ("h_I_0_6", 3)):
        ext = ext_by_name(registry, slug, f"{slug}__D0")
        assert inv.ad_rank(ext.alg, 1 << (ext.alg.n - 1)) == 2 ** (2 * n - 1), slug
    # super-rank (2,2) of the D_b element in the twisted extension
    ext = ext_by_name(registry, "h_Pi_0_4", "h_Pi_0_4__Db")
    sr = inv.super_rank(ext.alg, 1 << (ext.alg.n - 1))
    assert (sr.even_rank, sr.odd_rank) == (2, 2)
    # b(2|2) has no odd ad-rank (exhaustive over all 2^16 elements)
    bb = ext_by_name(registry, "le_2", "le_2__D(+2)")
    assert not inv.has_odd_ad_rank(bb.alg)
    # and the twisted Buttin algebra is distinguished from it
    bt = ext_by_name(registry, "le_2", "le_2__Db")
    assert inv.distinguish(bt.alg, bb.alg) != "inconclusive"
    dt = time.perf_counter() - t0
    print(f"\ncriterion 6 (rank lemmas, attainable part): PASS in {dt:.1f}s")


def test_criterion6_expected_value_btilde_rank7(registry):
    """Reference value: ad-rank 7 for the linear generators of the
    twisted Buttin algebra.  Mechanically the ranks are 6 and 8, and an
    exhaustive sweep finds no odd ad-rank at all; the algebras are still
    distinguished by pair-rank spectra.  Fails deliberately."""
    bt = ext_by_name(registry, "le_2", "le_2__Db")
    names = [b.name for b in bt.alg.basis]
    ranks = {nm: inv.ad_rank(bt.alg, 1 << names.index(nm)) for nm in ("q1", "pi1", "q2", "pi2")}
    print(f"\ncriterion 6 (expected rk ad in the twisted Buttin algebra): {ranks}")
    assert all(r == 7 for r in ranks.values()), (
        f"mechanical ad-ranks {ranks}; rank 7 is not attained by any element "
        "(exhaustive sweep), the class-invariant ranks are 6 and 8"
    )


# ---------------------------------------------------------------------------
# criterion 7: solver equivalence and speedup
# ---------------------------------------------------------------------------


def test_criterion7_solver_equivalence_and_speedup(registry):
    t0 = time.perf_counter()
    for slug, (fam, g, B) in registry["families"].items():
        if fam.a + fam.b > 5:
            continue
        naive = dv.derivation_space_naive(g)
        an, _ = registry["dex"][slug]
        assert dv.spaces_equal(naive, an.space), slug
    mid = time.perf_counter()
    fam6 = ls.family("h", "Pi", 0, 6)
    g6, _ = ls.build_algebra(fam6)

    def timed(solve):
        t = time.perf_counter()
        space = solve(g6)
        return space, time.perf_counter() - t

    # the least of three wall times of each solver, so that one stall of a
    # shared host does not decide the ratio; the naive and blocked calls
    # alternate, so that both are timed at the same host speed
    naive_times, blocked_times = [], []
    for _ in range(3):
        naive6, t = timed(dv.derivation_space_naive)
        naive_times.append(t)
        blocked6, t = timed(dv.derivation_space_blocked)
        blocked_times.append(t)
    naive_s, blocked_s = min(naive_times), min(blocked_times)
    assert dv.spaces_equal(naive6, blocked6)
    assert blocked_s < 300, f"blocked solver took {blocked_s:.1f}s"
    assert naive_s / blocked_s >= 5, f"speedup only {naive_s / blocked_s:.1f}x"
    print(
        f"\ncriterion 7 (solver equivalence <=5 in {mid - t0:.1f}s; at a+b=6 naive {naive_s:.2f}s "
        f"vs blocked {blocked_s:.2f}s = {naive_s / blocked_s:.1f}x, blocks "
        f"{blocked6.block_stats['blocks']}, max block {blocked6.block_stats['max_block']}): PASS"
    )


# ---------------------------------------------------------------------------
# criterion 8: determinism
# ---------------------------------------------------------------------------


# sha256 of `report --sizes 4 5`, recorded before the consolidation of the
# flattening, inner-span and invariance code; they change only with an
# explained change of the mathematics
REPORT_4_5_SHA256 = {
    "report.txt": "20e855d701b8b873fab0cff5cdf9a7e944932c0223d7158f5f0b0d330f2f631d",
    "report.csv": "29d609b3f0d0b56ac73a0693eb7f9d0698e53f49bd2da0435346fde81d41cf86",
}


def test_criterion8_determinism(tmp_path):
    runs = []
    for d in ("r1", "r2"):
        out = tmp_path / d
        assert cli.main(["report", "--sizes", "4", "5", "--out", str(out)]) == 0
        runs.append({name: (out / name).read_bytes() for name in REPORT_4_5_SHA256})
    assert runs[0] == runs[1]
    for name, want in REPORT_4_5_SHA256.items():
        assert hashlib.sha256(runs[0][name]).hexdigest() == want, name
    print("\ncriterion 8 (byte-identical reports across runs, equal to the recorded sha256): PASS")


# ---------------------------------------------------------------------------
# criterion 9: restrictedness
# ---------------------------------------------------------------------------


def _has_diagonal(fam):
    space = fam.space()
    return bool(space.kind.diagonals)


def test_criterion9_restrictedness(registry):
    t0 = time.perf_counter()
    results = {}
    for slug, (fam, g, B) in registry["families"].items():
        rep = ls.restrictedness_check(g)
        results[slug] = rep
        if not _has_diagonal(fam):
            assert rep.ok, (slug, rep.failures)
        for i, y in rep.witnesses.items():
            ci = g.ad_cols(1 << i)
            assert ls.compose_cols(ci, ci) == g.ad_cols(y), (slug, i)
        space = fam.space()
        diag_names = {space.variables[w].name for w in space.kind.diagonals}
        for i in rep.failures:
            parts = set(g.basis[i].name.split("."))
            assert parts & diag_names, (slug, g.basis[i].name)
    passing = sorted(s for s, r in results.items() if r.ok)
    failing = sorted(s for s, r in results.items() if not r.ok)
    dt = time.perf_counter() - t0
    print(
        f"\ncriterion 9 (ad-squares inner, {len(results)} families in {dt:.1f}s):"
        f"\n  pass: {passing}"
        f"\n  fail (only at quadratics through diagonal variables): {failing}"
    )


def test_criterion9_expected_value(registry):
    """Restrictedness as stated fails for every family with diagonal form
    blocks: (ad_x)^2 of a quadratic through a diagonal variable is a
    counting operator or b d/dS(b), both outer.  Fails deliberately with
    the witnesses in the message."""
    failing = {}
    for slug, (fam, g, B) in registry["families"].items():
        rep = ls.restrictedness_check(g)
        if not rep.ok:
            failing[slug] = [g.basis[i].name for i in rep.failures[:2]]
    print(f"\ncriterion 9 (expected value): failing families {sorted(failing)}")
    assert not failing, (
        f"(ad_x)^2 = ad_y is unsolvable at {failing}; e.g. ad(theta1.theta2)^2 is the "
        "counting operator theta1 d/dtheta1 + theta2 d/dtheta2, which no ad_y realizes"
    )
