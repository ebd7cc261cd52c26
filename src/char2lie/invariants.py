"""Isomorphism-distinguishing invariants: super-ranks, ad-rank spectra,
graded dimensions, and fingerprint comparison.

A fingerprint difference certifies non-isomorphism; equality proves
nothing, so comparison returns either evidence or "inconclusive".
"""

from __future__ import annotations

from collections import namedtuple

from .deriv import LinearMap
from .gf2core import flatten_cols, span_dim, unflatten_cols
from .liesuper import EVEN, StructureConstants, center, derived_series_dims, orbits, symmetries


class SuperRank(namedtuple("SuperRank", "even_rank odd_rank")):
    __slots__ = ()

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
    return SuperRank(
        span_dim(c for j, c in enumerate(cols) if g.parity(j) == EVEN),
        span_dim(c for j, c in enumerate(cols) if g.parity(j) != EVEN),
    )


def ad_rank(g: StructureConstants, x: int) -> int:
    return span_dim(g.ad_cols(x))


def _basis_ads(g: StructureConstants) -> list[dict[int, int]]:
    """ad(e_i) as its nonzero columns {k: [e_i, e_k]}, for every i: by
    bilinearity the columns of ad(x) are the xor of these over the
    support of x."""
    return [{k: c for k, c in enumerate(row) if c} for row in g.brk]


def ad_rank_spectrum(g: StructureConstants) -> tuple[int, ...]:
    """Sorted multiset of ad-ranks over the basis."""
    return tuple(sorted(span_dim(ad.values()) for ad in _basis_ads(g)))


def pair_rank_spectrum(g: StructureConstants) -> tuple[int, ...]:
    """Sorted multiset of ad-ranks over sums of two distinct basis
    elements, the deterministic non-basis sample.  An automorphism of
    `liesuper.symmetries(g)` keeps the ad-rank of e_i + e_j, so one pair
    of each orbit is ranked and its rank counted once per pair of the
    orbit.  Only the columns in the union of the two supports are xored."""
    ads = _basis_ads(g)
    n = g.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # at[i][j]: the index in pairs of {i, j}
    at = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        at[i][j] = at[j][i] = k
    perms = [[at[p[i]][p[j]] for i, j in pairs] for p in symmetries(g)]
    out = []
    for orbit in orbits(perms, len(pairs)):
        i, j = pairs[orbit[0][0]]
        cols = dict(ads[i])
        for k, c in ads[j].items():
            cols[k] = cols.get(k, 0) ^ c
        out += [span_dim(cols.values())] * len(orbit)
    return tuple(sorted(out))


def has_odd_ad_rank(g: StructureConstants) -> bool:
    """Whether any element has odd ad-rank, by an exhaustive Gray-code
    walk over all 2^n elements (one xor of flattened ad columns each);
    raises ValueError above n = 16 rather than answer from a sample."""
    if g.n > 16:
        raise ValueError(f"has_odd_ad_rank searches all 2^n elements; n = {g.n} exceeds 16")
    ads = [flatten_cols(row, g.n) for row in g.brk]
    acc = 0
    for step in range(1, 1 << g.n):
        # element step ^ (step >> 1) differs from the previous one in the
        # lowest set bit of step
        acc ^= ads[(step & -step).bit_length() - 1]
        if span_dim(unflatten_cols(acc, g.n)) & 1:
            return True
    return False


class Fingerprint(namedtuple("Fingerprint", "sdim derived_dims center_dim basis_ranks pair_ranks")):
    __slots__ = ()

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


class Evidence(namedtuple("Evidence", "component left right")):
    __slots__ = ()

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
