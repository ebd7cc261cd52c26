"""Double extensions g = Kc + a + KD of nis-(super)algebras over GF(2).

The four parity cases (B even/odd x D even/odd) need different auxiliary
data: a quadratic form q on the odd part, an element A with D^2 = ad_A
and D(A) = 0, and a scalar m entering s(D) = mc + A.  For graded-only
algebras (desuperizations) the extension is the plain cocycle extension:
no auxiliary data, bilinear invariance only.
"""

from __future__ import annotations

from itertools import chain

from .deriv import LinearMap, bilinear_invariant
from .gf2core import bit_indices, flatten_cols, solve_affine, span_dim, transpose, xor_rows
from .liesuper import ODD, BasisElement, BilinearFormTable, StructureConstants, ad_preimage, compose_cols


class ExtensionData:
    def __init__(self, D: LinearMap, q_diag: tuple | None = None, A: int | None = None, m: int = 0, BDD: int = 0):
        self.D = D
        self.q_diag = q_diag
        self.A = A
        self.m = m
        self.BDD = BDD


class ExtendedAlgebra:
    def __init__(self, alg: StructureConstants, form: BilinearFormTable, provenance: dict):
        self.alg = alg
        self.form = form
        self.provenance = provenance

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


def case_of(B: BilinearFormTable, D: LinearMap) -> str:
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
    if D.parity == B.parity:
        data.q_diag = find_q(a, B, D)
        if data.q_diag is None:
            return None
    if D.parity == ODD:
        data.A = find_A(a, D)
        if data.A is None:
            return None
    return data


def build(a: StructureConstants, B: BilinearFormTable, data: ExtensionData) -> ExtendedAlgebra:
    """The double extension on basis {c} + basis(a) + {D} with bracket
    [x,y] + B(Dx,y)c, [D,x] = D(x), central c, and the extended form; its
    parity case is `case_of(B, D)`."""
    D = data.D
    if not bilinear_invariant(D, B):
        raise ValueError("D does not preserve the bilinear form")
    if data.BDD and (D.parity or B.parity):
        raise ValueError("B(D,D) must vanish unless both D and B are even")
    case = case_of(B, D)
    graded = a.graded_only
    n = a.n
    N = n + 2

    # degrees/weights: B pairs complementary degrees summing to mu
    mu_deg, mu_wt = _pairing_grade(a, B)
    c_elt = BasisElement("c", B.parity ^ D.parity, mu_deg - D.degree, tuple(x - y for x, y in zip(mu_wt, D.weight)))
    d_elt = BasisElement("D", D.parity, D.degree, D.weight)
    basis = [c_elt] + [BasisElement(b.name, b.parity, b.degree, b.weight) for b in a.basis] + [d_elt]

    brk = [[0] * N for _ in range(N)]
    for i in range(n):
        # bit j: B(D e_i, e_j), the c-component of [e_i, e_j]; at j = i it
        # is the Leibniz diagonal [e_i, e_i] = c (the po_I phenomenon),
        # present only on odd elements after the even-diagonal gate, or on
        # any element for desuperized input
        left = B.left(D.cols[i])
        for j in range(n):
            brk[i + 1][j + 1] = (a.brk[i][j] << 1) | ((left >> j) & 1)
        brk[N - 1][i + 1] = brk[i + 1][N - 1] = D.cols[i] << 1
    sq = [0] * N
    if not graded:
        for oi, i in enumerate(a.odd_indices()):
            sq[i + 1] = (a.sq[i] << 1) | (data.q_diag[oi] if data.q_diag is not None else 0)
        if D.parity == ODD:
            sq[N - 1] = ((data.A or 0) << 1) | (1 if data.m else 0)
        # c odd (Dev_Bodd case): s(c) = 0 already
    gram = [1 << (N - 1)] + [row << 1 for row in B.gram] + [1 | ((1 << (N - 1)) if data.BDD else 0)]
    meta = {"extension_of": a.meta.get("family"), "case": case}
    if graded:
        meta["graded"] = True
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
        "leibniz_diagonal": alg.is_leibniz,
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


# ---------------------------------------------------------------------------
# canonical identification
# ---------------------------------------------------------------------------


class IsoWitness:
    def __init__(self, columns: tuple[int, ...]):
        self.columns = columns  # images of ext basis vectors in the target

    def apply(self, x: int) -> int:
        return xor_rows(self.columns, x)


def _verify_witness(ext: ExtendedAlgebra, target: StructureConstants, cols: list[int]) -> bool:
    g = ext.alg
    n = g.n
    if span_dim(cols) != n:
        return False
    for i in range(n):
        for j in range(i, n):
            if xor_rows(cols, g.brk[i][j]) != target.bracket_vec(cols[i], cols[j]):
                return False
    if g.graded_only or target.graded_only:
        return True
    return all(xor_rows(cols, g.sq[i]) == target.sq_vec(cols[i]) for i in g.odd_indices())


# identify_canonical tries every point of its affine solution set, 2^dim
# of them; above this dimension it returns SEARCH_TRUNCATED instead (the
# dimension is 0 on every consistent solve of the standard families of
# sizes 4 to 7)
MAX_KERNEL_DIM = 10
SEARCH_TRUNCATED = "search-truncated"


def identify_canonical(ext: ExtendedAlgebra, target: StructureConstants) -> IsoWitness | str | None:
    """Attempt c -> 1, a -> a + beta(a)*1, D -> top + y with the
    corrections solved linearly; verify the result completely.  Returns
    the witness, None when there is none, or SEARCH_TRUNCATED when the
    solution set has dimension above MAX_KERNEL_DIM and was not searched.

    phi(D) gets no unit term: it would enter no relation, and with c
    central and s(c) = 0 a witness must have [1, x] = 0 and s(1) = 0 in
    the target, so D -> top + y + 1 verifies exactly when D -> top + y
    does."""
    g = ext.alg
    n = g.n
    if target.n != n:
        raise ValueError("dimension mismatch")
    masks = target.meta.get("masks")
    if masks is None or g.meta.get("extension_of") is None:
        return None
    space = target.meta.get("space")
    t_index = {m: i for i, m in enumerate(masks)}
    one = t_index.get(0)
    top = t_index.get(space.full_mask)
    if one is None or top is None:
        return None
    # iota: the a-part of ext maps, in order, onto the target's monomials
    # strictly between 1 and top
    iota = [i for i, m in enumerate(masks) if 0 < m.bit_count() < space.nvars]
    if len(iota) != n - 2:
        return None
    pc = g.parity(0)
    pd = g.parity(n - 1)
    if target.basis[one].parity != pc or target.basis[top].parity != pd:
        return None

    # phi0 (c -> 1, e_k -> iota(e_k), D -> top) as target basis positions
    # (phi) and vectors (cols0), and the unknowns, in order: beta_k on the
    # a-elements of parity pc, y_k on those of parity pd (ys holds the
    # position of the target basis element each adds to phi(D)). phi0
    # maps basis to basis, so each relation reads one target table entry
    unit = 1 << one
    phi = [one] + iota + [top]
    cols0 = [1 << t for t in phi]
    a_idx = range(1, n - 1)
    beta = [0] * n
    nb = 0
    for k in a_idx:
        if g.parity(k) == pc:
            beta[k] = 1 << nb
            nb += 1
    ys = [phi[k] for k in a_idx if g.parity(k) == pd]
    nun = nb + len(ys)

    # an a-relation (ext value v, target value tv) holds up to the unit,
    # which beta(v) must cancel: the a-brackets, and the odd squares in
    # super mode
    tb = target.brk
    relations = ((g.brk[k][l], tb[phi[k]][phi[l]]) for k in a_idx for l in range(k + 1, n - 1))
    if not (g.graded_only or target.graded_only):
        relations = chain(relations, ((g.sq[k], target.sq[phi[k]]) for k in a_idx if g.parity(k) == ODD))
    rows = []  # (coefficient mask over the unknowns, rhs bit)
    for v, tv in relations:
        diff = xor_rows(cols0, v) ^ tv
        if diff & ~unit:
            return None
        rows.append((xor_rows(beta, v), (diff >> one) & 1))
    # [D, e_k]: phi0(D e_k) + beta(D e_k)*1 = [top, e_k] + sum_j y_j [ys_j, e_k],
    # one row per target coordinate
    for k in a_idx:
        v = g.brk[n - 1][k]
        diff = xor_rows(cols0, v) ^ tb[top][phi[k]]
        coeffs = [c << nb for c in transpose([tb[y][phi[k]] for y in ys], n)]
        coeffs[one] |= xor_rows(beta, v)
        rows.extend((c, (diff >> t) & 1) for t, c in enumerate(coeffs))

    solved = solve_affine(rows, nun)
    if solved is None:
        return None
    base, kernel = solved
    if len(kernel) > MAX_KERNEL_DIM:
        return SEARCH_TRUNCATED
    # enumerate the whole affine solution set to satisfy the quadratic
    # conditions (squaring of D, and full verification)
    for mask in range(1 << len(kernel)):
        s = base ^ xor_rows(kernel, mask)
        cols = [c ^ (unit if s & b else 0) for c, b in zip(cols0, beta)]
        cols[-1] ^= xor_rows([1 << y for y in ys], s >> nb)
        if _verify_witness(ext, target, cols):
            return IsoWitness(tuple(cols))
    return None
