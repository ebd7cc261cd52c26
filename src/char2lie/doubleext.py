"""Double extensions g = Kc + a + KD of nis-(super)algebras over GF(2).

The four parity cases (B even/odd x D even/odd) need different auxiliary
data: a quadratic form q on the odd part, an element A with D^2 = ad_A
and D(A) = 0, and a scalar m entering s(D) = mc + A.  For graded-only
algebras (desuperizations) the extension is the plain cocycle extension:
no auxiliary data, bilinear invariance only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .deriv import LinearMap, bilinear_invariant
from .gf2core import SpanBasis, bit_indices, flatten_cols, solve_affine, transpose, xor_rows
from .liesuper import (
    EVEN,
    ODD,
    BasisElement,
    BilinearFormTable,
    StructureConstants,
    ad_preimage,
    center,
    compose_cols,
    inner_span,
    odd_squares_span,
    special_center,
)

CASES = ("Dev_Beven", "Dodd_Beven", "Dev_Bodd", "Dodd_Bodd")


@dataclass
class ExtensionData:
    D: LinearMap
    q_diag: tuple | None = None
    A: int | None = None
    m: int = 0
    BDD: int = 0


@dataclass
class ExtendedAlgebra:
    alg: StructureConstants
    form: BilinearFormTable
    provenance: dict

    @property
    def n(self) -> int:
        return self.alg.n


def find_q(a: StructureConstants, B: BilinearFormTable, D: LinearMap) -> tuple | None:
    """Diagonal of the canonical quadratic form adjusting the squaring:
    q(e_i) = B(e_i, D(e_i)) on odd basis elements, with the off-diagonal
    polar data B(e_i, D(e_j)) required symmetric.  None when no such form
    exists."""
    odd = a.odd_indices()
    for x in range(len(odd)):
        i = odd[x]
        for y in range(x + 1, len(odd)):
            j = odd[y]
            if B.pairing(1 << i, D.cols[j]) != B.pairing(1 << j, D.cols[i]):
                return None
    return tuple(B.pairing(1 << i, D.cols[i]) for i in odd)


def find_A(a: StructureConstants, D: LinearMap) -> int | None:
    """Solve ad_A = D∘D for A, then require D(A) = 0."""
    [A] = ad_preimage(a, [flatten_cols(compose_cols(D.cols, D.cols), a.n)])
    if A is None or D.apply(A) != 0:
        return None
    return A


def case_of(a: StructureConstants, B: BilinearFormTable, D: LinearMap) -> str:
    return f"D{'odd' if D.parity else 'ev'}_B{'odd' if B.parity else 'even'}"


def prepare(a: StructureConstants, B: BilinearFormTable, D: LinearMap, m: int = 0, BDD: int = 0) -> ExtensionData | None:
    """Collect the auxiliary data required by the parity case; None when
    the case's conditions fail (no bilinear invariance or missing q/A).

    Nonzero diagonals B(D(f), f) do not block the construction: an odd
    diagonal is absorbed by the diagonal of q, and any remaining diagonal
    becomes the Leibniz diagonal [f, f] = c of the extension (the po_I
    phenomenon), flagged in the result.
    """
    if not bilinear_invariant(D, B):
        return None
    if a.graded_only:
        return ExtensionData(D=D, BDD=BDD)
    data = ExtensionData(D=D, m=m, BDD=BDD)
    if D.parity == EVEN and B.parity == EVEN:
        data.q_diag = find_q(a, B, D)
        if data.q_diag is None:
            return None
    elif D.parity == ODD and B.parity == EVEN:
        data.A = find_A(a, D)
        if data.A is None:
            return None
    elif D.parity == EVEN and B.parity == ODD:
        pass
    else:
        data.q_diag = find_q(a, B, D)
        data.A = find_A(a, D)
        if data.q_diag is None or data.A is None:
            return None
    return data


def build(case: str, a: StructureConstants, B: BilinearFormTable, data: ExtensionData) -> ExtendedAlgebra:
    """The double extension on basis {c} + basis(a) + {D} with bracket
    [x,y] + B(Dx,y)c, [D,x] = D(x), central c, and the extended form."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    D = data.D
    graded = a.graded_only
    if not graded and case != case_of(a, B, D):
        raise ValueError(f"case {case} does not match parities of D and B")
    if not bilinear_invariant(D, B):
        raise ValueError("D does not preserve the bilinear form")
    n = a.n
    pc = B.parity ^ D.parity
    if data.BDD and (D.parity or B.parity):
        raise ValueError("B(D,D) must vanish unless both D and B are even")
    leibniz = a.is_leibniz or any(B.pairing(D.cols[i], 1 << i) for i in range(n))

    # degrees/weights: B pairs complementary degrees summing to mu
    mu_deg, mu_wt = _pairing_grade(a, B)
    c_elt = BasisElement("c", pc, mu_deg - D.degree, tuple(x - y for x, y in zip(mu_wt, D.weight)))
    d_elt = BasisElement("D", D.parity, D.degree, D.weight)
    basis = [c_elt] + [BasisElement(b.name, b.parity, b.degree, b.weight) for b in a.basis] + [d_elt]

    N = n + 2
    brk = [[0] * N for _ in range(N)]
    for i in range(n):
        left = B.left(D.cols[i])  # bit j: B(D e_i, e_j), the c-component of [e_i, e_j]
        for j in range(n):
            if i != j:
                brk[i + 1][j + 1] = (a.brk[i][j] << 1) | ((left >> j) & 1)
    for i in range(n):
        vec = D.cols[i] << 1
        brk[N - 1][i + 1] = vec
        brk[i + 1][N - 1] = vec
    # Leibniz diagonal: a nonzero B(D e_i, e_i) has no place in a Lie
    # bracket and is carried as the diagonal [e_i, e_i] = c (the po_I
    # phenomenon); present only on odd elements after the even-diagonal
    # gate, or on any element for desuperized input
    diag = [0] * N
    a_diag = a.diag
    for i in range(n):
        d = a_diag[i] << 1
        if B.pairing(D.cols[i], 1 << i):
            d |= 1
        diag[i + 1] = d
    sq = [0] * N
    if not graded:
        for i in range(n):
            if a.parity(i) == ODD:
                s = a.sq[i] << 1
                if data.q_diag is not None:
                    oi = a.odd_indices().index(i)
                    if data.q_diag[oi]:
                        s |= 1
                sq[i + 1] = s
        if D.parity == ODD:
            s = (data.A or 0) << 1
            if data.m:
                s |= 1
            sq[N - 1] = s
        # c odd (Dev_Bodd case): s(c) = 0 already
    gram = [0] * N
    for i in range(n):
        gram[i + 1] = B.gram[i] << 1
    gram[0] |= 1 << (N - 1)
    gram[N - 1] |= 1
    if data.BDD:
        gram[N - 1] |= 1 << (N - 1)
    meta = {"extension_of": a.meta.get("family"), "case": case}
    if graded:
        meta["graded"] = True
    if any(diag):
        meta["diag"] = tuple(diag)
    alg = StructureConstants(basis, brk, sq, meta=meta)
    form = BilinearFormTable(tuple(gram), B.parity)
    prov = {
        "case": case,
        "graded": graded,
        "D": D.shift,
        "q": data.q_diag,
        "A": data.A,
        "m": data.m,
        "BDD": data.BDD,
        "leibniz_diagonal": leibniz,
    }
    return ExtendedAlgebra(alg, form, prov)


def _pairing_grade(a: StructureConstants, B: BilinearFormTable):
    """Common (degree, weight) sum over nonzero B-pairs (gradedness of B)."""
    out = None
    for i in range(a.n):
        for t in bit_indices(B.gram[i]):
            s = (a.basis[i].degree + a.basis[t].degree,
                 tuple(x + y for x, y in zip(a.basis[i].weight, a.basis[t].weight)))
            if out is None:
                out = s
            elif out != s:
                raise ValueError("form is not graded")
    if out is None:
        raise ValueError("form is zero")
    return out


@dataclass
class RecognitionReport:
    rec1: bool
    rec2: bool
    rec3: bool
    rec4: bool
    special_center_even: int = 0
    center_even: int = 0
    center_odd: int = 0
    witnesses: dict = field(default_factory=dict)


def recognition(g: StructureConstants, B: BilinearFormTable) -> RecognitionReport:
    """Evaluate the hypotheses of the four recognition propositions:
    Rec1 (even special center), Rec2 (odd center meets the cone), Rec3
    (odd form, even center), Rec4 (odd form, central odd squares in the
    squares' orthogonal complement)."""
    if not B.is_nondegenerate():
        raise ValueError("form is degenerate")
    z = center(g)
    ev_mask = g.parity_mask(EVEN)
    ev, od = [], []
    for r in z.rows:
        if r & ev_mask:
            ev.append(r & ev_mask)
        if r & ~ev_mask:
            od.append(r & ~ev_mask)
    sp_e = SpanBasis()
    sp_e.extend(ev)
    sp_o = SpanBasis()
    sp_o.extend(od)
    z_ev, z_od = list(sp_e.rows), list(sp_o.rows)

    zs = special_center(g, B)
    zs_ev = [r for r in zs.rows if not (r & ~ev_mask)]
    rec1 = bool(zs_ev)

    squares = odd_squares_span(g)
    perp_span = SpanBasis()
    perp_span.extend(B.orthogonal_complement(squares))

    # s(x + y) = s(x) + s(y) + [x, y] = s(x) + s(y) on the center, so s is
    # linear there: rec2 asks for a nonzero x in span(z_od) with s(x) in
    # perp_span, i.e. a nonzero kernel of x -> s(x) mod perp_span; rec4
    # asks for s to be nonzero on that kernel
    sq_od = [0 if g.graded_only else g.sq_vec(x) for x in z_od]
    modp = SpanBasis()
    modp.extend(transpose([perp_span.reduce(sx) for sx in sq_od], g.n))
    cone = modp.kernel(len(z_od))
    rec2 = bool(cone)
    wit2 = xor_rows(z_od, cone[0]) if cone else None

    rec3 = bool(B.parity == ODD and z_ev)

    cone_sq = [xor_rows(sq_od, c) for c in cone] if B.parity == ODD else []
    wit4 = next((sx for sx in cone_sq if sx), None)
    rec4 = wit4 is not None

    return RecognitionReport(
        rec1=rec1,
        rec2=rec2,
        rec3=rec3,
        rec4=rec4,
        special_center_even=len(zs_ev),
        center_even=len(z_ev),
        center_odd=len(z_od),
        witnesses={"rec2": wit2, "rec4": wit4},
    )


def nontrivial_cocycle(a: StructureConstants, B: BilinearFormTable, D: LinearMap) -> bool:
    """The central extension by B(D., .) is nontrivial iff D is outer."""
    return not inner_span(a).contains(D.as_vec())


# ---------------------------------------------------------------------------
# canonical identification
# ---------------------------------------------------------------------------


@dataclass
class IsoWitness:
    columns: tuple[int, ...]  # images of ext basis vectors in the target

    def apply(self, x: int) -> int:
        out = 0
        for i in bit_indices(x):
            out ^= self.columns[i]
        return out


def _verify_witness(ext: ExtendedAlgebra, target: StructureConstants, cols: list[int]) -> bool:
    n = ext.n
    span = SpanBasis()
    for c in cols:
        span.add(c)
    if span.dim != n or target.n != n:
        return False
    w = IsoWitness(tuple(cols))
    g = ext.alg
    gd = g.diag
    for i in range(n):
        for j in range(i + 1, n):
            if w.apply(g.brk[i][j]) != target.bracket_vec(cols[i], cols[j]):
                return False
        if w.apply(gd[i]) != target.bracket_vec(cols[i], cols[i]):
            return False
    if not (g.graded_only or target.graded_only):
        for i in g.odd_indices():
            if w.apply(g.sq[i]) != target.sq_vec(cols[i]):
                return False
    return True


def identify_canonical(ext: ExtendedAlgebra, target: StructureConstants) -> IsoWitness | None:
    """Attempt c -> 1, a -> a + beta(a)*1, D -> top + y + nu*1 with the
    corrections solved linearly; verify the result completely."""
    g = ext.alg
    n = g.n
    if target.n != n:
        raise ValueError("dimension mismatch")
    masks = target.meta.get("masks")
    if masks is None:
        return None
    space = target.meta.get("space")
    full = space.full_mask
    t_index = {m: i for i, m in enumerate(masks)}
    one = t_index.get(0)
    top = t_index.get(full)
    if one is None or top is None:
        return None
    # a-part basis must be monomials of the target
    a_fam = g.meta.get("extension_of")
    if a_fam is None:
        return None
    amask = [m for m in masks if 0 < m.bit_count() < space.nvars]
    if len(amask) != n - 2:
        return None
    iota = [t_index[m] for m in amask]  # ext a-index k -> target index

    pc = g.parity(0)
    pd = g.parity(n - 1)
    if target.basis[one].parity != pc or target.basis[top].parity != pd:
        return None

    # unknowns: beta_k (k in a, parity pc), y_k (parity pd), nu (if pc == pd)
    na = n - 2
    beta_idx = [k for k in range(na) if g.parity(k + 1) == pc]
    y_idx = [k for k in range(na) if g.parity(k + 1) == pd]
    nu_ok = pc == pd
    nun = len(beta_idx) + len(y_idx) + (1 if nu_ok else 0)

    def unk_beta(k):
        return beta_idx.index(k)

    def unk_y(k):
        return len(beta_idx) + y_idx.index(k)

    rows = []  # (coeff bitmask over unknowns, rhs bit) as (int, int)

    # E1: pairs of a
    for k in range(na):
        for l in range(k + 1, na):
            v = g.brk[k + 1][l + 1]
            omega = v & 1
            va = v >> 1
            tv = 0
            for i in bit_indices(va):
                tv |= 1 << iota[i]
            rhs_vec = target.bracket_vec(1 << iota[k], 1 << iota[l])
            diff = tv ^ rhs_vec
            # diff must be kappa * e_one
            if diff & ~(1 << one):
                return None
            kappa = (diff >> one) & 1
            # beta([ek,el]_a) = kappa + omega
            coeff = 0
            for i in bit_indices(va):
                if g.parity(i + 1) == pc:
                    coeff |= 1 << unk_beta(i)
            rows.append((coeff, kappa ^ omega))

    # E2: [D, ek]
    for k in range(na):
        dv = g.brk[n - 1][k + 1]
        dva = dv >> 1
        lhs_fixed = 0
        for i in bit_indices(dva):
            lhs_fixed |= 1 << iota[i]
        # beta(D ek) coefficient on e_one
        beta_coeff = 0
        for i in bit_indices(dva):
            if g.parity(i + 1) == pc:
                beta_coeff |= 1 << unk_beta(i)
        rhs_fixed = target.bracket_vec(1 << top, 1 << iota[k])
        # y-part: sum y_j [e_j, e_k]_T, one row per target coordinate t
        coeffs = [0] * n
        coeffs[one] = beta_coeff
        for j in y_idx:
            for t in bit_indices(target.bracket_vec(1 << iota[j], 1 << iota[k])):
                coeffs[t] |= 1 << unk_y(j)
        for t, coeff in enumerate(coeffs):
            rows.append((coeff, ((lhs_fixed ^ rhs_fixed) >> t) & 1))

    # E3: squarings of odd a-elements (super mode only)
    if not (g.graded_only or target.graded_only):
        for k in range(na):
            if g.parity(k + 1) != ODD:
                continue
            sv = g.sq[k + 1]
            qbit = sv & 1
            sva = sv >> 1
            tv = 0
            for i in bit_indices(sva):
                tv |= 1 << iota[i]
            rhs_vec = target.sq_vec(1 << iota[k])
            diff = tv ^ rhs_vec
            if diff & ~(1 << one):
                return None
            kappa = (diff >> one) & 1
            coeff = 0
            for i in bit_indices(sva):
                if g.parity(i + 1) == pc:
                    coeff |= 1 << unk_beta(i)
            rows.append((coeff, kappa ^ qbit))

    # solve the linear system over GF(2)
    solved = solve_affine(rows, nun)
    if solved is None:
        return None
    base, kernel = solved

    # enumerate the whole affine solution set to satisfy the quadratic
    # conditions (squaring of D, and full verification); the kernel is at
    # most 1-dimensional for every standard family at sizes 4-6
    for mask in range(1 << len(kernel)):
        s = base
        for i in bit_indices(mask):
            s ^= kernel[i]
        cols = [0] * n
        cols[0] = 1 << one
        for k in range(na):
            c = 1 << iota[k]
            if g.parity(k + 1) == pc and (s >> unk_beta(k)) & 1:
                c ^= 1 << one
            cols[k + 1] = c
        dcol = 1 << top
        for j in y_idx:
            if (s >> unk_y(j)) & 1:
                dcol ^= 1 << iota[j]
        if nu_ok and (s >> (nun - 1)) & 1:
            dcol ^= 1 << one
        cols[n - 1] = dcol
        if _verify_witness(ext, target, cols):
            return IsoWitness(tuple(cols))
    return None
