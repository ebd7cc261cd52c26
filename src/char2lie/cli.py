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
import os
import sys
import time
from pathlib import Path

from . import deriv as dv
from . import invariants as inv
from . import liesuper as ls
from .gf2core import bit_indices
from .pipeline import FamilyAnalysis, analyze_family, closed_form_gaps, dex_family, family_slug

EXIT_OK, EXIT_VERIFY = 0, 1

H_SIZE_RANGE = (4, 7)
LE_MAX = 3


class VerificationError(Exception):
    pass


# ---------------------------------------------------------------------------
# family plumbing
# ---------------------------------------------------------------------------


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
# rendering
# ---------------------------------------------------------------------------


def render_derivation_report(an: FamilyAnalysis, gaps: list) -> str:
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
    if gaps:
        out.append("finding: outer classes beyond the closed-form generators: "
                   + ", ".join(f"deg {k[0]:+d} wt {k[1]} par {k[2]} x{m}" for k, m in gaps))
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
    sys.stdout.write(render_derivation_report(an, closed_form_gaps(an)))
    return EXIT_OK


def cmd_dex(args) -> int:
    fam, check = _load_family(args)
    an, rows = dex_family(fam)
    check(an)
    table = render_dex_table(fam, an, rows)
    csv = render_dex_csv(fam, rows)
    files = [(f"{family_slug(fam)}.dex.txt", table), (f"{family_slug(fam)}.dex.csv", csv)]
    for r in rows:
        for name, ext, _ in r.built:
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
    an, rows = dex_family(fam)
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
        **{k: blocked.block_stats[k] for k in ("blocks", "solved", "settled", "max_block", "rows", "rank")},
    }
    print(f"bench {rec['family']} dim {rec['dim']}: naive {rec['naive_s']:.3f}s "
          f"blocked {rec['blocked_s']:.3f}s speedup {rec['speedup']:.1f}x "
          f"blocks {rec['blocks']} solved {rec['solved']} settled {rec['settled']} max-block {rec['max_block']} "
          f"rows {rec['rows']} rank {rec['rank']}")
    return EXIT_OK


def _dex_report_parts(fams: list, workers: int) -> list:
    """(dex table text, CSV lines, failed) of each family, in family order.

    The families are dealt out to w = min(workers, len(fams)) processes:
    the parent computes fams[0::w] and each of w - 1 forked children
    fams[k::w]. A child sends its list, or the exception that stopped it,
    pickled through a pipe and ends with os._exit. The parent reads every
    pipe before it reaps the children, and kills them first when its own
    share raises, so that no child outlives the call."""
    import pickle
    import signal

    def share(k: int, w: int) -> list:
        out = []
        for fam in fams[k::w]:
            an, rows = dex_family(fam)
            out.append((render_dex_table(fam, an, rows), render_dex_csv(fam, rows).splitlines()[1:],
                        any(r.verdict == "fail" for r in rows)))
        return out

    w = max(1, min(workers, len(fams)))
    children = []  # (pid, read end of its pipe)
    sent = None
    try:
        for k in range(1, w):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        msg = (True, share(k, w))
                    except BaseException as e:  # sent to the parent, which raises it
                        msg = (False, e)
                    with os.fdopen(wr, "wb") as f:
                        f.write(pickle.dumps(msg))
                    code = 0
                finally:
                    os._exit(code)
            os.close(wr)
            children.append((pid, os.fdopen(r, "rb")))
        parts = [share(0, w)]
        sent = [f.read() for _, f in children]
    finally:
        for pid, f in children:
            f.close()
            if sent is None:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
    for k, (data, code) in enumerate(zip(sent, codes), 1):
        if not data:
            slugs = ", ".join(family_slug(f) for f in fams[k::w])
            raise VerificationError(f"the worker for {slugs} ended without a result (exit code {code})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        parts.append(value)
    return [parts[i % w][i // w] for i in range(len(fams))]


def cmd_report(args) -> int:
    # every size is checked before anything is computed
    sizes = args.sizes or [4]
    fams = []
    for i, total in enumerate(sizes):
        if total in sizes[:i]:
            raise VerificationError(f"size {total} is given more than once")
        try:
            fams += standard_families(total)
        except ValueError as e:
            raise VerificationError(f"no standard families of size {total}: {e}") from e
    for fam in fams:
        check_range(fam)
    outdir = Path(args.out)
    _write_files(outdir, [])  # an unusable --out fails before the computation
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    parts = _dex_report_parts(fams, workers)
    text = "\n".join(table for table, _, _ in parts)
    csvs = [DEX_CSV_HEADER] + [line for _, lines, _ in parts for line in lines]
    _write_files(outdir, [("report.txt", text), ("report.csv", "\n".join(csvs) + "\n")])
    sys.stdout.write(text)
    return EXIT_VERIFY if any(failed for _, _, failed in parts) else EXIT_OK


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
