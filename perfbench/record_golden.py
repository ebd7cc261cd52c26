"""Record perfbench/golden.json: the outputs every benchmark operation must
reproduce, taken from the sources in ./src.

    PYTHONPATH=src python3 perfbench/record_golden.py

Golden values change only with a CHANGES.md entry that gives the
mathematical reason; a faster program must reproduce them as they are.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402
from char2lie import liesuper  # noqa: E402


def main() -> int:
    state = Path.cwd() / ".perfbench"
    state.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="golden-", dir=state))
    try:
        golden = {"report": child.op_report({"out": str(tmp)}, child.Timer())}
        for name, pool, op in (("family_h7", workloads.FAMILY_H7_POOL, child.op_family),
                               ("oracle_h6", workloads.ORACLE_H6_POOL, child.op_oracle)):
            golden[name] = {}
            for family in pool:
                out = tmp / workloads.slug(family)
                out.mkdir()
                fam = workloads.make_family(liesuper, family)
                golden[name][workloads.slug(family)] = op({"out": str(out)}, child.Timer(), fam)
                print(name, workloads.slug(family), golden[name][workloads.slug(family)], flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
