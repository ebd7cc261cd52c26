"""Print one "slug args" line per standard family of each size given:
the file-name slug and the per-family command arguments.

    PYTHONPATH=src python3 .github/families.py 6 7
"""

import sys

from char2lie import cli

for total in map(int, sys.argv[1:]):
    for f in cli.standard_families(total):
        args = f"--family le --n {f.a}" if f.kind == "le" else f"--family h --form {f.form} --even {f.a} --odd {f.b}"
        print(cli.family_slug(f), args)
