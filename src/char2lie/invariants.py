"""Isomorphism-distinguishing invariants: super-ranks, ad-rank spectra,
graded dimensions, and fingerprint comparison.

A fingerprint difference certifies non-isomorphism; equality proves
nothing, so comparison returns either evidence or "inconclusive".
"""

from __future__ import annotations

from dataclasses import dataclass

from .deriv import LinearMap
from .gf2core import SpanBasis, bit_indices, flatten_cols, unflatten_cols
from .liesuper import EVEN, StructureConstants, center, derived_series_dims


@dataclass(frozen=True)
class SuperRank:
    even_rank: int
    odd_rank: int

    @property
    def total(self) -> int:
        return self.even_rank + self.odd_rank


def super_rank(g: StructureConstants, op) -> SuperRank:
    """Superdimension of the image, split by the parity of the source
    (the superdimension of V/Ker)."""
    if isinstance(op, LinearMap):
        cols = list(op.cols)
    else:
        cols = g.ad_cols(op)
    ev = SpanBasis()
    od = SpanBasis()
    for j, c in enumerate(cols):
        if not c:
            continue
        (ev if g.parity(j) == EVEN else od).add(c)
    return SuperRank(ev.dim, od.dim)


def _col_rank(cols) -> int:
    s = SpanBasis()
    s.extend(cols)
    return s.dim


def ad_rank(g: StructureConstants, x: int) -> int:
    return _col_rank(g.ad_cols(x))


def _basis_ad_cols(g: StructureConstants) -> list[list[int]]:
    """ad(e_i) as columns, for every i: by bilinearity the columns of
    ad(x) are the xor of these over the support of x."""
    return [g.ad_cols(1 << i) for i in range(g.n)]


def ad_rank_spectrum(g: StructureConstants) -> tuple[int, ...]:
    """Sorted multiset of ad-ranks over the basis."""
    return tuple(sorted(_col_rank(cols) for cols in _basis_ad_cols(g)))


def pair_rank_spectrum(g: StructureConstants) -> tuple[int, ...]:
    """Sorted multiset of ad-ranks over sums of two distinct basis
    elements, the deterministic non-basis sample."""
    ads = _basis_ad_cols(g)
    out = []
    for i in range(g.n):
        for j in range(i + 1, g.n):
            out.append(_col_rank(a ^ b for a, b in zip(ads[i], ads[j])))
    return tuple(sorted(out))


def has_odd_ad_rank(g: StructureConstants, exhaustive_limit: int = 16) -> bool:
    """Whether any element has odd ad-rank; exhaustive when dim allows,
    otherwise over the basis-and-pairs sample."""
    if g.n <= exhaustive_limit:
        ads = [flatten_cols(cols, g.n) for cols in _basis_ad_cols(g)]
        for x in range(1, 1 << g.n):
            acc = 0
            for i in bit_indices(x):
                acc ^= ads[i]
            if _col_rank(unflatten_cols(acc, g.n)) & 1:
                return True
        return False
    for r in ad_rank_spectrum(g) + pair_rank_spectrum(g):
        if r & 1:
            return True
    return False


@dataclass(frozen=True)
class Fingerprint:
    sdim: tuple[int, int]
    derived_dims: tuple[int, ...]
    center_dim: int
    basis_ranks: tuple[int, ...]
    pair_ranks: tuple[int, ...]

    def serialize(self) -> str:
        lines = [
            f"sdim {self.sdim[0]}|{self.sdim[1]}",
            "derived " + " ".join(str(d) for d in self.derived_dims),
            f"center {self.center_dim}",
            "basis-ranks " + " ".join(str(r) for r in self.basis_ranks),
            "pair-ranks " + " ".join(str(r) for r in self.pair_ranks),
        ]
        return "\n".join(lines)


def fingerprint(g: StructureConstants) -> Fingerprint:
    return Fingerprint(
        sdim=(len(g.even_indices()), len(g.odd_indices())),
        derived_dims=tuple(derived_series_dims(g)),
        center_dim=center(g).dim,
        basis_ranks=ad_rank_spectrum(g),
        pair_ranks=pair_rank_spectrum(g),
    )


@dataclass(frozen=True)
class Evidence:
    component: str
    left: object
    right: object

    def __str__(self):
        return f"{self.component} differ: {self.left} vs {self.right}"


def distinguish(g1: StructureConstants, g2: StructureConstants):
    """First differing fingerprint component (a non-isomorphism
    certificate), or the string 'inconclusive'."""
    f1, f2 = fingerprint(g1), fingerprint(g2)
    for name in ("sdim", "derived_dims", "center_dim", "basis_ranks", "pair_ranks"):
        a, b = getattr(f1, name), getattr(f2, name)
        if a != b:
            return Evidence(name, a, b)
    return "inconclusive"
