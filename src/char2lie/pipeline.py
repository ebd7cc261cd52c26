"""The per-family pipeline: build the algebra and form, solve the
derivations block by block, split off the form-preserving classes, then
build, verify and identify each double extension.  The solver and the
build are looked up on their modules at call time, so that a wrapper set
on the module sees every call."""

from __future__ import annotations

from . import deriv as dv
from . import doubleext as dx
from . import liesuper as ls
from .gf2core import SpanBasis, echelon_complement, xor_rows


def family_slug(fam: ls.FamilySpec) -> str:
    if fam.kind == "le":
        return f"le_{fam.a}"
    return f"h_{fam.form}_{fam.a}_{fam.b}"


class DerivationRow:
    def __init__(self, label: str, degree: int, parity: int, count: int, bilinear: bool, extra_odd: bool,
                 reps: list | None = None):
        self.label = label
        self.degree = degree
        self.parity = parity
        self.count = count
        self.bilinear = bilinear
        self.extra_odd = extra_odd
        self.reps = [] if reps is None else reps


class FamilyAnalysis:
    def __init__(self, fam: ls.FamilySpec, g: ls.StructureConstants, B: ls.BilinearFormTable,
                 space: dv.DerivationSpace, rows: list):
        self.fam = fam
        self.g = g
        self.B = B
        self.space = space
        self.rows = rows

    @property
    def mode(self) -> str:
        return "graded" if self.g.graded_only else "super"


def _derivation_row(label, degree, parity, maps, g, B) -> DerivationRow:
    return DerivationRow(label, degree, parity, len(maps),
                         all(dv.bilinear_invariant(m, B) for m in maps),
                         all(dv.extra_condition(m, B, g) for m in maps),
                         maps)


def _preserving_split(B, sols, inner):
    """Split the outer part of a shift cell, given its derivations and its
    inner derivations, into the form-preserving subspace and a
    complement; returns (preserving reps, other reps) as vectors."""
    vecs = [d.as_vec() for d in sols]
    inner_vecs = [d.as_vec() for d in inner]
    # preserving subspace: linear conditions over combinations of the
    # cell's derivations, one row per basis pair (i, j) that one violates
    cond: dict[tuple[int, int], int] = {}
    for k, d in enumerate(sols):
        for ij in dv.invariance_failures(d, B):
            cond[ij] = cond.get(ij, 0) | (1 << k)
    span = SpanBasis()
    span.extend(cond[ij] for ij in sorted(cond))
    pres_full = [xor_rows(vecs, kv) for kv in span.kernel(len(vecs))]
    return echelon_complement(inner_vecs, pres_full), echelon_complement(inner_vecs + pres_full, vecs)


def analyze_family(fam: ls.FamilySpec) -> FamilyAnalysis:
    g, B = ls.build_algebra(fam)
    space = dv.derivation_space_blocked(g)
    rows: list[DerivationRow] = []
    zero_wt = (0,) * len(g.basis[0].weight)
    db: dict = {}  # parity -> reps of the degree-0 classes of nonzero weight
    for key in sorted(space.outer_reps):
        deg, wt, par = key
        reps = space.outer_reps[key]
        if deg == 0 and wt != zero_wt:
            db.setdefault(par, []).extend(reps)
        elif deg == 0:
            pres, other = _preserving_split(B, [d for d in space.all if d.shift == key],
                                            [d for d in space.inner if d.shift == key])
            # labels: the preserving weight-zero class is D0; a
            # non-preserving one is Dtheta, except when it is the only
            # weight-zero class (the odd-dimension families' D0 row)
            for vecs, label in [(pres, "D0"), (other, "Dtheta" if pres else "D0")]:
                if vecs:
                    maps = [dv.LinearMap.from_vec(v, g.n, *key) for v in vecs]
                    rows.append(_derivation_row(label, 0, par, maps, g, B))
        else:
            rows.append(_derivation_row(f"D({deg:+d})", deg, par, list(reps), g, B))
    for par in sorted(db):
        rows.append(_derivation_row("Db", 0, par, db[par], g, B))
    order = {"Db": 1, "D0": 2, "Dtheta": 3}
    rows.sort(key=lambda r: (r.degree, order.get(r.label, 0), r.label, r.parity))
    return FamilyAnalysis(fam, g, B, space, rows)


def closed_form_gaps(an: FamilyAnalysis) -> list:
    """The (shift, count) of each outer cell with classes that the inner
    derivations and the closed-form generators do not span.  Maps of
    distinct shifts touch disjoint entries, so each outer cell is reduced
    against the inner derivations and candidates of its own shift only."""
    outer = an.space.outer_reps
    sub: dict = {key: [] for key in outer}
    for d in an.space.inner + [D for _, D in dv.closed_form_generators(an.g, an.space.gens)]:
        if d.shift in sub:
            sub[d.shift].append(d.as_vec())
    extra = []
    for key in sorted(outer):
        span = SpanBasis()
        span.extend(sub[key])
        miss = sum(1 for d in outer[key] if not span.contains(d.as_vec()))
        if miss:
            extra.append((key, miss))
    return extra


class DexRow:
    def __init__(self, label: str, degree: int, parity: int, count: int, preserves: bool, case: str, data_kind: str,
                 built: list | None = None, identified: str = "", notes: str = ""):
        self.label = label
        self.degree = degree
        self.parity = parity
        self.count = count
        self.preserves = preserves
        self.case = case
        self.data_kind = data_kind
        self.built = [] if built is None else built  # (name, ExtendedAlgebra, verdicts)
        self.identified = identified
        self.notes = notes

    @property
    def verdict(self) -> str:
        """'-' when nothing was built, else 'ok' or 'fail' over the built extensions."""
        if not self.built:
            return "-"
        return "ok" if all(v for _, _, v in self.built) else "fail"


def dex_family(fam: ls.FamilySpec):
    """Run the full per-family pipeline; returns (analysis, dex rows)."""
    an = analyze_family(fam)
    g, B = an.g, an.B
    po, _ = ls.poisson_algebra(fam.space())
    out_rows: list[DexRow] = []
    top_deg = max((r.degree for r in an.rows), default=0)
    for r in an.rows:
        D = r.reps[0]
        preserves = r.bilinear
        case = "graded" if g.graded_only else dx.case_of(B, D)
        data_kind = {"Dev_Beven": "q", "Dodd_Beven": "A", "Dev_Bodd": "-", "Dodd_Bodd": "q,A,m"}.get(case, "-")
        row = DexRow(r.label, r.degree, r.parity, r.count, preserves, case, data_kind)
        ms = (0, 1) if case == "Dodd_Bodd" else (0,)
        if preserves:
            for m in ms:
                data = dx.prepare(g, B, D, m=m)
                if data is None:
                    row.preserves = False
                    row.notes = "data missing"
                    break
                ext = dx.build(g, B, data)
                ax = ext.alg.verify_axioms()
                fm = ext.alg.verify_form(ext.form)
                # s(D) = mc with B(c, D) = 1 inevitably breaks the
                # squaring-invariance identity at (D, D); accept when that
                # is the only failure
                didx = ext.alg.n - 1
                only_dd = m == 1 and fm.failures == [("square-invariance", didx, didx)]
                verdict = ax.ok and (fm.ok or only_dd)
                name = f"{family_slug(fam)}__{r.label}" + (f"__m{m}" if len(ms) > 1 else "")
                row.built.append((name, ext, verdict))
                if r.degree == top_deg and r.degree > 0 and m == 0:
                    wit = dx.identify_canonical(ext, po)
                    if wit is None:
                        row.identified = "no-witness"
                    elif wit == dx.SEARCH_TRUNCATED:
                        row.identified = wit
                    else:
                        row.identified = "po" if fam.kind == "h" else "b"
        out_rows.append(row)
    return an, out_rows
