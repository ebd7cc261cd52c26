"""Batch front-end: build families, compute derivations, run the double
extension pipeline, emit tables, benchmark the solvers.

On-disk format (SCA): a text header with version, superdimension, field
marker and basis records, then bracket lines "i j k" (c_ij^k = 1, only
i < j stored), squaring lines "sq i k", optional Leibniz diagonal lines
"d i k" (c_ii^k = 1) and form lines "B i j".  Reports are deterministic:
identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import deriv as dv
from . import doubleext as dx
from . import invariants as inv
from . import liesuper as ls
from .gf2core import SpanBasis, bit_indices, echelon_complement, xor_rows

EXIT_OK, EXIT_VERIFY, EXIT_USAGE = 0, 1, 2

H_SIZE_RANGE = (4, 7)
LE_MAX = 3


class VerificationError(Exception):
    pass


# ---------------------------------------------------------------------------
# family plumbing
# ---------------------------------------------------------------------------


def family_slug(fam: ls.FamilySpec) -> str:
    if fam.kind == "le":
        return f"le_{fam.a}"
    return f"h_{fam.form}_{fam.a}_{fam.b}"


def check_range(fam: ls.FamilySpec, override: bool = False) -> None:
    if fam.kind == "le":
        if fam.a > LE_MAX and not override:
            raise VerificationError(f"le(n|n) supported for n <= {LE_MAX} (the per-family commands take --override-size)")
        return
    total = fam.a + fam.b
    lo, hi = H_SIZE_RANGE
    if not (lo <= total <= hi) and not override:
        raise VerificationError(f"h families need {lo} <= a+b <= {hi} (the per-family commands take --override-size)")


def standard_families(total: int) -> list[ls.FamilySpec]:
    """The standard families at a given number of indeterminates: pure
    Pi/I, PiPi with any block dimensions, and PiI/IPi/II with
    even-dimensional blocks."""
    fams = [ls.family("h", "Pi", 0, total), ls.family("h", "Pi", total, 0)]
    if total % 2 == 0:
        fams.append(ls.family("h", "I", 0, total))
        fams.append(ls.family("h", "I", total, 0))
    for a in range(1, total):
        b = total - a
        fams.append(ls.family("h", "PiPi", a, b))
        if a % 2 == 0 and b % 2 == 0:
            fams.append(ls.family("h", "PiI", a, b))
            fams.append(ls.family("h", "IPi", a, b))
            fams.append(ls.family("h", "II", a, b))
    if total % 2 == 0 and 1 <= total // 2 <= LE_MAX:
        fams.append(ls.family("le", n=total // 2))
    return fams


# ---------------------------------------------------------------------------
# SCA format
# ---------------------------------------------------------------------------


def sca_dump(g: ls.StructureConstants, B: ls.BilinearFormTable | None, header_lines=()) -> str:
    out = ["SCA 1"]
    for line in header_lines:
        out.append(f"# {line}")
    fam = g.meta.get("family")
    if fam is not None:
        out.append(f"family {fam.kind} {fam.form} {fam.a} {fam.b}")
    if g.graded_only:
        out.append("graded 1")
    out.append(f"sdim {len(g.even_indices())} {len(g.odd_indices())}")
    out.append("field GF2")
    out.append(f"basis {g.n}")
    for i, b in enumerate(g.basis):
        wt = " ".join(str(w) for w in b.weight)
        out.append(f"b {i} {b.name} {'odd' if b.parity else 'even'} {b.degree}{(' ' + wt) if wt else ''}")
    out.append("brackets")
    for i in range(g.n):
        for j in range(i + 1, g.n):
            for k in bit_indices(g.brk[i][j]):
                out.append(f"{i} {j} {k}")
    out.append("squarings")
    for i in range(g.n):
        for k in bit_indices(g.sq[i]):
            out.append(f"sq {i} {k}")
    if g.is_leibniz:
        out.append("diag")
        for i, row in enumerate(g.brk):
            for k in bit_indices(row[i]):
                out.append(f"d {i} {k}")
    if B is not None:
        out.append("nis")
        out.append(f"parity {'odd' if B.parity else 'even'}")
        for i in range(g.n):
            for j in bit_indices(B.gram[i]):
                if j >= i:
                    out.append(f"B {i} {j}")
    out.append("end")
    return "\n".join(out) + "\n"


def sca_parse(text: str) -> tuple[ls.StructureConstants, ls.BilinearFormTable | None]:
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines or not lines[0].startswith("SCA"):
        raise ValueError("not an SCA file")
    basis: list[ls.BasisElement] = []
    brk = sq = sdim = None
    gram = None
    bpar = 0
    meta: dict = {}
    n = 0
    mode = ""

    def index(tok: str) -> int:
        k = int(tok)
        if not 0 <= k < n:
            raise ValueError(f"index {tok} outside 0..{n - 1} in record {ln!r}")
        return k

    def indices(toks: list[str], count: int) -> list[int]:
        if len(toks) != count:
            raise ValueError(f"record {ln!r} has {len(toks)} indices, not {count}")
        return [index(t) for t in toks]

    for ln in lines[1:]:
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] == "family":
            a, b = int(parts[3]), int(parts[4])
            # the variable space is built from a and b, so bound them first
            if min(a, b) < 0 or a + b > len(lines):
                raise ValueError(f"family record {ln!r} outside 0 <= a, b and a+b <= {len(lines)}, the file's lines")
            meta["family"] = ls.family(parts[1], parts[2], a, b, n=a)
        elif parts[0] == "graded":
            meta["graded"] = True
        elif parts[0] == "sdim":
            sdim = [int(t) for t in parts[1:]]
        elif parts[0] == "field":
            if parts[1:] != ["GF2"]:
                raise ValueError(f"field record {ln!r}: only GF2 is supported")
        elif parts[0] == "basis":
            n = int(parts[1])
            if not 0 <= n <= len(lines):
                raise ValueError(f"basis count {n} outside 0..{len(lines)}, the most b records the file can hold")
            brk = [[0] * n for _ in range(n)]
            sq = [0] * n
        elif parts[0] == "b":
            if parts[3] not in ("even", "odd"):
                raise ValueError(f"basis record {ln!r} has parity {parts[3]!r}, not even or odd")
            wt = tuple(int(x) for x in parts[5:])
            basis.append(ls.BasisElement(parts[2], 1 if parts[3] == "odd" else 0, int(parts[4]), wt))
        elif parts[0] in ("brackets", "squarings", "nis", "diag"):
            mode = parts[0]
            if mode == "nis":
                gram = [0] * n
        elif parts[0] == "parity":
            if parts[1:] not in (["even"], ["odd"]):
                raise ValueError(f"parity record {ln!r} is not 'parity even' or 'parity odd'")
            bpar = 1 if parts[1] == "odd" else 0
        elif parts[0] == "end":
            break
        elif brk is None:
            raise ValueError(f"record {ln!r} before the basis record")
        elif parts[0] == "sq":
            i, k = indices(parts[1:], 2)
            sq[i] |= 1 << k
        elif parts[0] == "d":
            i, k = indices(parts[1:], 2)
            brk[i][i] |= 1 << k
        elif parts[0] == "B":
            if gram is None:
                raise ValueError(f"form record {ln!r} before the nis section")
            i, j = indices(parts[1:], 2)
            if j < i:
                raise ValueError(f"form record {ln!r} below the diagonal")
            gram[i] |= 1 << j
            gram[j] |= 1 << i
        else:
            i, j, k = indices(parts, 3)
            if j <= i:
                raise ValueError(f"bracket record {ln!r} not above the diagonal (the diagonal goes in d records)")
            brk[i][j] |= 1 << k
            brk[j][i] |= 1 << k  # symmetric closure
    if brk is None:
        raise ValueError("no basis record")
    odd = sum(b.parity for b in basis)
    if sdim is not None and sdim != [len(basis) - odd, odd]:
        raise ValueError(f"sdim record {sdim} does not match the {len(basis) - odd} even and {odd} odd b records")
    g = ls.StructureConstants(basis, brk, sq, meta=meta)
    B = ls.BilinearFormTable(tuple(gram), bpar) if gram is not None else None
    return g, B


# ---------------------------------------------------------------------------
# derivation pipeline
# ---------------------------------------------------------------------------


@dataclass
class DerivationRow:
    label: str
    degree: int
    weights: tuple
    parity: int
    count: int
    bilinear: bool
    extra_odd: bool
    reps: list = field(default_factory=list)


@dataclass
class FamilyAnalysis:
    fam: ls.FamilySpec
    g: ls.StructureConstants
    B: ls.BilinearFormTable
    space: dv.DerivationSpace
    rows: list

    @property
    def mode(self) -> str:
        return "graded" if self.g.graded_only else "super"


def _derivation_row(label, degree, weights, parity, maps, g, B) -> DerivationRow:
    return DerivationRow(label, degree, weights, parity, len(maps),
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
    db: dict = {}  # parity -> (weights, reps) of the degree-0 classes of nonzero weight
    for key in sorted(space.outer_reps):
        deg, wt, par = key
        reps = space.outer_reps[key]
        if deg == 0 and wt != zero_wt:
            weights, maps = db.setdefault(par, (set(), []))
            weights.add(wt)
            maps.extend(reps)
        elif deg == 0:
            pres, other = _preserving_split(B, [d for d in space.all if d.shift == key],
                                            [d for d in space.inner if d.shift == key])
            # labels: the preserving weight-zero class is D0; a
            # non-preserving one is Dtheta, except when it is the only
            # weight-zero class (the odd-dimension families' D0 row)
            for vecs, label in [(pres, "D0"), (other, "Dtheta" if pres else "D0")]:
                if vecs:
                    maps = [dv.LinearMap.from_vec(v, g.n, *key) for v in vecs]
                    rows.append(_derivation_row(label, 0, (wt,), par, maps, g, B))
        else:
            rows.append(_derivation_row(f"D({deg:+d})", deg, (wt,), par, list(reps), g, B))
    for par in sorted(db):
        weights, maps = db[par]
        rows.append(_derivation_row("Db", 0, tuple(sorted(weights)), par, maps, g, B))
    order = {"Db": 1, "D0": 2, "Dtheta": 3}
    rows.sort(key=lambda r: (r.degree, order.get(r.label, 0), r.label, r.parity))
    return FamilyAnalysis(fam, g, B, space, rows)


@dataclass
class DexRow:
    label: str
    degree: int
    parity: int
    count: int
    preserves: bool
    case: str
    data_kind: str
    built: list = field(default_factory=list)  # (name, ExtendedAlgebra, verdicts)
    identified: str = ""
    notes: str = ""

    @property
    def verdict(self) -> str:
        """'-' when nothing was built, else 'ok' or 'fail' over the built extensions."""
        if not self.built:
            return "-"
        return "ok" if all(v for _, _, v in self.built) else "fail"


def dex_family(fam: ls.FamilySpec):
    """Run the full per-family pipeline; returns (analysis, dex rows,
    extensions)."""
    an = analyze_family(fam)
    g, B = an.g, an.B
    po, _ = ls.poisson_algebra(fam.space())
    out_rows: list[DexRow] = []
    extensions = []
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
                extensions.append((name, ext))
                if r.degree == top_deg and r.degree > 0 and m == 0:
                    wit = dx.identify_canonical(ext, po)
                    if wit is None:
                        row.identified = "no-witness"
                    elif wit == dx.SEARCH_TRUNCATED:
                        row.identified = wit
                    else:
                        row.identified = "po" if fam.kind == "h" else "b"
        out_rows.append(row)
    return an, out_rows, extensions


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_derivation_report(an: FamilyAnalysis) -> str:
    out = [f"family {an.fam.name} [{an.mode}] dim {an.g.n} "
           f"sdim {len(an.g.even_indices())}|{len(an.g.odd_indices())} nis-parity {an.B.parity}"]
    out.append(f"derivations: dim {an.space.dim} inner {an.space.dim_inner} outer {an.space.dim_outer}")
    out.append("outer classes by (degree, weight, parity):")
    for key in sorted(an.space.outer_reps):
        out.append(f"  deg {key[0]:+d} wt {key[1]} par {key[2]}: {len(an.space.outer_reps[key])}")
    out.append("rows:")
    for r in an.rows:
        out.append(
            f"  {r.label:8s} deg {r.degree:+d} par {r.parity} count {r.count} "
            f"bilinear {'yes' if r.bilinear else 'no'} extra-odd {'yes' if r.extra_odd else 'no'}"
        )
    # completeness finding: outer classes the closed-form generators miss
    span = SpanBasis()
    span.extend(d.as_vec() for d in an.space.inner + [D for _, D in dv.closed_form_generators(an.fam, an.g)])
    extra = []
    for key in sorted(an.space.outer_reps):
        miss = sum(1 for d in an.space.outer_reps[key] if not span.contains(d.as_vec()))
        if miss:
            extra.append((key, miss))
    if extra:
        out.append("finding: outer classes beyond the closed-form generators: "
                   + ", ".join(f"deg {k[0]:+d} wt {k[1]} par {k[2]} x{m}" for k, m in extra))
    return "\n".join(out) + "\n"


def render_dex_table(fam: ls.FamilySpec, an: FamilyAnalysis, rows: list) -> str:
    head = f"double extensions of {fam.name} [{an.mode}]"
    out = [head, "-" * len(head)]
    out.append(f"{'row':10s} {'deg':>4s} {'par':>3s} {'#':>2s} {'case':10s} {'data':6s} {'ext':4s} {'verified':8s} {'identified':10s}")
    for r in rows:
        built = "yes" if r.built else "-"
        ver = "FAIL" if r.verdict == "fail" else r.verdict
        out.append(
            f"{r.label:10s} {r.degree:+4d} {r.parity:3d} {r.count:2d} {r.case:10s} {r.data_kind:6s} "
            f"{built:4s} {ver:8s} {r.identified or '-':10s}"
        )
    return "\n".join(out) + "\n"


DEX_CSV_HEADER = "family,row,degree,parity,count,case,data,preserves,built,verified,identified,m_variants"


def render_dex_csv(fam: ls.FamilySpec, rows: list) -> str:
    out = [DEX_CSV_HEADER]
    for r in rows:
        out.append(
            ",".join(
                [
                    family_slug(fam),
                    r.label,
                    str(r.degree),
                    str(r.parity),
                    str(r.count),
                    r.case,
                    r.data_kind.replace(",", "+"),
                    "yes" if r.preserves else "no",
                    "yes" if r.built else "no",
                    r.verdict,
                    r.identified or "-",
                    str(len(r.built)),
                ]
            )
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _fam_from_args(args) -> ls.FamilySpec:
    try:
        if args.family == "le":
            if args.n is None:
                raise VerificationError("le needs --n")
            fam = ls.family("le", n=args.n)
        else:
            if args.form is None or args.even is None or args.odd is None:
                raise VerificationError("h needs --form, --even, --odd")
            fam = ls.family("h", args.form, args.even, args.odd)
    except ValueError as e:
        raise VerificationError(f"no such family: {e}") from e
    check_range(fam, args.override_size)
    return fam


def _sca_mismatch(g, B, g2, B2) -> str:
    """The components, comma-separated, in which (g2, B2) differs from
    (g, B); empty when the two are the same object."""

    def parts(h, F):
        return {
            "basis": h.basis,
            "brackets": h.brk,
            "squarings": h.sq,
            "graded": h.graded_only,
            "form": F.gram if F else None,
            "form parity": F.parity if F else None,
        }

    a, b = parts(g, B), parts(g2, B2)
    return ", ".join(k for k in a if a[k] != b[k])


def _write_files(outdir: Path, files) -> None:
    """Write each (name, text) into outdir, made if missing; a directory
    that cannot be made or written is an error line, not a traceback."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in files:
            (outdir / name).write_text(text)
    except OSError as e:
        raise VerificationError(f"cannot write to {outdir}: {e}") from e


def cmd_build(args) -> int:
    fam = _fam_from_args(args)
    g, B = ls.build_algebra(fam)
    outdir = Path(args.out)
    path = outdir / f"{family_slug(fam)}.sca"
    text = sca_dump(g, B)
    _write_files(outdir, [(path.name, text)])
    bad = _sca_mismatch(g, B, *sca_parse(text))
    if bad:
        raise VerificationError(f"SCA round-trip mismatch ({bad})")
    print(f"built {fam.name}: dim {g.n} sdim {len(g.even_indices())}|{len(g.odd_indices())} -> {path}")
    return EXIT_OK


def _load_family(args):
    """The family and a check that its parsed file equals the analysis's
    algebra and form, so that a command builds the family once."""
    fam = _fam_from_args(args)
    path = Path(args.out) / f"{family_slug(fam)}.sca"
    if not path.exists():
        raise VerificationError(f"missing input file {path} (run build first)")
    try:
        parsed = sca_parse(path.read_text())
    except (ValueError, IndexError, KeyError) as e:
        raise VerificationError(f"{path} is not a valid SCA file: {e!r}") from e

    def check(an: FamilyAnalysis) -> None:
        bad = _sca_mismatch(an.g, an.B, *parsed)
        if bad:
            raise VerificationError(f"{path} does not match a fresh build ({bad})")

    return fam, check


def cmd_derivations(args) -> int:
    fam, check = _load_family(args)
    an = analyze_family(fam)
    check(an)
    sys.stdout.write(render_derivation_report(an))
    return EXIT_OK


def cmd_dex(args) -> int:
    fam, check = _load_family(args)
    an, rows, exts = dex_family(fam)
    check(an)
    table = render_dex_table(fam, an, rows)
    csv = render_dex_csv(fam, rows)
    files = [(f"{family_slug(fam)}.dex.txt", table), (f"{family_slug(fam)}.dex.csv", csv)]
    for name, ext in exts:
        prov = ext.provenance
        header = [
            f"double extension case {prov['case']}",
            f"D shift {prov['D']}",
            f"q {prov['q']} A {prov['A']} m {prov['m']} BDD {prov['BDD']}",
        ]
        files.append((f"{name}.sca", sca_dump(ext.alg, ext.form, header)))
    _write_files(Path(args.out), files)
    sys.stdout.write(table)
    return EXIT_VERIFY if any(r.verdict == "fail" for r in rows) else EXIT_OK


def cmd_identify(args) -> int:
    fam, check = _load_family(args)
    an, rows, exts = dex_family(fam)
    check(an)
    ok = False
    for r in rows:
        if r.identified:
            print(f"{fam.name} {r.label}: identified = {r.identified}")
            ok = ok or r.identified in ("po", "b")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_fingerprint(args) -> int:
    fam = _fam_from_args(args)
    g, _ = ls.build_algebra(fam)
    print(f"fingerprint {fam.name}")
    print(inv.fingerprint(g).serialize())
    return EXIT_OK


def cmd_bench(args) -> int:
    fam = _fam_from_args(args)
    g, _ = ls.build_algebra(fam)
    t0 = time.perf_counter()
    naive = dv.derivation_space_naive(g)
    t1 = time.perf_counter()
    blocked = dv.derivation_space_blocked(g)
    t2 = time.perf_counter()
    if not dv.spaces_equal(naive, blocked):
        print("ERROR: solver spaces differ")
        return EXIT_VERIFY
    rec = {
        "family": fam.name,
        "dim": g.n,
        "naive_s": t1 - t0,
        "blocked_s": t2 - t1,
        "speedup": (t1 - t0) / max(t2 - t1, 1e-9),
        **{k: blocked.block_stats[k] for k in ("blocks", "solved", "max_block", "rows", "distinct", "rank")},
    }
    print(f"bench {rec['family']} dim {rec['dim']}: naive {rec['naive_s']:.3f}s "
          f"blocked {rec['blocked_s']:.3f}s speedup {rec['speedup']:.1f}x "
          f"blocks {rec['blocks']} solved {rec['solved']} max-block {rec['max_block']} "
          f"rows {rec['rows']} distinct {rec['distinct']} rank {rec['rank']}")
    return EXIT_OK


def cmd_report(args) -> int:
    # every size is checked before anything is computed
    fams = []
    for total in args.sizes or [4]:
        try:
            fams += standard_families(total)
        except ValueError as e:
            raise VerificationError(f"no standard families of size {total}: {e}") from e
    for fam in fams:
        check_range(fam)
    outdir = Path(args.out)
    _write_files(outdir, [])  # an unusable --out fails before the computation
    chunks = []
    csvs = [DEX_CSV_HEADER]
    status = EXIT_OK
    for fam in fams:
        an, rows, exts = dex_family(fam)
        chunks.append(render_dex_table(fam, an, rows))
        csvs.extend(render_dex_csv(fam, rows).splitlines()[1:])
        if any(r.verdict == "fail" for r in rows):
            status = EXIT_VERIFY
    text = "\n".join(chunks)
    _write_files(outdir, [("report.txt", text), ("report.csv", "\n".join(csvs) + "\n")])
    sys.stdout.write(text)
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="char2lie", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_family_args(sp):
        sp.add_argument("--family", choices=["h", "le"], required=True)
        sp.add_argument("--form", choices=list(ls.sf.H_FORMS))
        sp.add_argument("--even", type=int)
        sp.add_argument("--odd", type=int)
        sp.add_argument("--n", type=int)
        sp.add_argument("--out", default="out")
        sp.add_argument("--override-size", action="store_true")

    for name, fn in [
        ("build", cmd_build),
        ("derivations", cmd_derivations),
        ("dex", cmd_dex),
        ("identify", cmd_identify),
        ("fingerprint", cmd_fingerprint),
        ("bench", cmd_bench),
    ]:
        sp = sub.add_parser(name)
        add_family_args(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("report")
    sp.add_argument("--sizes", type=int, nargs="*")
    sp.add_argument("--out", default="out")
    sp.set_defaults(fn=cmd_report)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except VerificationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
