"""Workload names and the seed-to-input mapping, shared by run.py and
child.py.

A family is given as a tuple (kind, form, a, b); le families carry their
n in a and b.  Seed 0 picks the first family of a pool; any other seed
picks one of the pool with a seeded generator.  Each pool holds only
families whose solver systems have nearly the same size as the first
one's, so that a run's times do not depend on which seed picked it.
"""

from __future__ import annotations

import random

NAMES = ["report", "family_h7", "oracle_h6"]

# the reference loop (child.REFERENCES) timed before, between and after
# the stages of each operation: the kind of work that dominates the
# workload, so that the loop slows down with the machine as the operation
# does
REFERENCE = {"report": "python", "family_h7": "python_long", "oracle_h6": "numpy"}

# `char2lie report --sizes 4 5`: 17 standard families, fixed input
REPORT_SIZES = (4, 5)

FAMILY_H7_POOL = [
    ("h", "Pi", 0, 7),
    ("h", "Pi", 7, 0),
]

ORACLE_H6_POOL = [
    ("h", "Pi", 0, 6),
    ("h", "Pi", 6, 0),
]


def family_for(workload: str, seed: int) -> tuple | None:
    if workload == "report":
        return None
    pool = FAMILY_H7_POOL if workload == "family_h7" else ORACLE_H6_POOL
    if seed == 0:
        return pool[0]
    return pool[random.Random(seed).randrange(len(pool))]


def slug(family: tuple) -> str:
    """The name char2lie.cli.family_slug gives the family."""
    kind, form, a, b = family
    return f"le_{a}" if kind == "le" else f"h_{form}_{a}_{b}"


def make_family(liesuper, family: tuple):
    kind, form, a, b = family
    return liesuper.family("le", n=a) if kind == "le" else liesuper.family("h", form, a, b)


def cli_args(fam) -> list[str]:
    """Family flags of the per-family CLI commands."""
    if fam.kind == "le":
        return ["--family", "le", "--n", str(fam.a)]
    return ["--family", "h", "--form", fam.form, "--even", str(fam.a), "--odd", str(fam.b)]
