"""Print one "slug args" line per standard family of each size given:
the file-name slug and the per-family command arguments.

    PYTHONPATH=src python3 .github/families.py 6 7
"""

import sys

from char2lie import cli


def family_args(f) -> list[str]:
    """The per-family command arguments that name the family f."""
    if f.kind == "le":
        return ["--family", "le", "--n", str(f.a)]
    return ["--family", "h", "--form", f.form, "--even", str(f.a), "--odd", str(f.b)]


if __name__ == "__main__":
    for total in map(int, sys.argv[1:]):
        for f in cli.standard_families(total):
            print(cli.family_slug(f), *family_args(f))
