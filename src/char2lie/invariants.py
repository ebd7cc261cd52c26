"""Isomorphism-distinguishing invariants, gathered in the fingerprint that
the `fingerprint` command prints: the superdimension, the derived series,
the center and the ad-rank spectra over the basis and over sums of two
basis elements.

Two algebras whose fingerprints differ are not isomorphic; equal
fingerprints prove nothing.
"""

from __future__ import annotations

from collections import namedtuple

from .gf2core import span_dim
from .liesuper import StructureConstants, center, derived_series_dims, orbits, symmetries


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
