"""Check every per-family output pinned by a .github/*.sha256 manifest.

PINS maps each manifest to the family sizes and the commands it pins.
Each command runs as its own `python -m char2lie` process on the standard
families of those sizes (with --override-size above cli.H_SIZE_RANGE), in
a fresh directory; a command that is a function writes its files in this
process.  The files that build and dex write are pinned as written, the
stdout of every other command as <slug>.<command>.txt; an unpinned build
writes to a side directory, and runs only when a later command reads its
.sca.  Red unless every command exits 0, every file keeps its listed
sha256 with none added or missing, and each manifest has a row and each
row a manifest.

    PYTHONPATH=src python3 .github/pins.py
"""

import hashlib
import subprocess
import sys
import tempfile
from pathlib import Path

from char2lie import cli, liesuper as ls
from families import family_args

HERE = Path(__file__).resolve().parent
WRITERS = ("build", "dex")  # their files are pinned, not their stdout
READERS = ("dex", "derivations", "identify")  # they read the .sca that build writes


def po_tables(f, out: Path) -> None:
    """The po/b target table (poisson_algebra on every monomial) of f."""
    (out / f"po_{cli.family_slug(f)}.sca").write_text(cli.sca_dump(*ls.poisson_algebra(f.space())))


PINS = {
    "outputs-4-5": ((4, 5), ("build", "dex", "derivations", "identify", "fingerprint")),
    "dex-6": ((6,), ("build", "dex")),
    "dex-7": ((7,), ("build", "dex")),
    "derivations-6-7": ((6, 7), ("derivations",)),
    "derivations-8": ((8,), ("derivations",)),
    "derivations-9": ((9,), ("derivations",)),
    "derivations-10": ((10,), ("derivations",)),
    "fingerprint-6-7": ((6, 7), ("fingerprint",)),
    "fingerprint-8": ((8,), ("fingerprint",)),
    "po-4-6": ((4, 5, 6), (po_tables,)),
}


def check(name: str, sizes: tuple, commands: tuple, tmp: Path) -> list[str]:
    """Run the commands of one manifest; returns its problems."""
    out = tmp / name
    sca = out if "build" in commands else tmp / f"{name}.sca"  # where build writes
    reads = any(c in READERS for c in commands)
    if reads and "build" not in commands:
        commands = ("build",) + commands
    out.mkdir()
    sca.mkdir(exist_ok=True)
    problems = []
    for total in sizes:
        override = ["--override-size"] if total > cli.H_SIZE_RANGE[1] else []
        for f in cli.standard_families(total):
            for cmd in commands:
                if callable(cmd):
                    cmd(f, out)
                    continue
                args = [cmd, *family_args(f), *override] + (["--out", str(sca)] if reads else [])
                run = subprocess.run([sys.executable, "-m", "char2lie", *args], capture_output=True)
                if run.returncode:
                    problems.append(f"{' '.join(args)} exited {run.returncode}: {run.stderr.decode().strip()}")
                if cmd not in WRITERS:
                    (out / f"{cli.family_slug(f)}.{cmd}.txt").write_bytes(run.stdout)
    want = dict(line.split("  ", 1)[::-1] for line in (HERE / f"{name}.sha256").read_text().splitlines())
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    problems += [f"{fn}: sha256 {got.get(fn, '(no file)')}, pinned {want.get(fn, '(not pinned)')}"
                 for fn in sorted(want.keys() | got.keys()) if got.get(fn) != want.get(fn)]
    return problems


def main() -> int:
    manifests = {p.stem for p in HERE.glob("*.sha256")}
    failed = [f"{name}: manifest without a row in PINS" for name in sorted(manifests - PINS.keys())]
    failed += [f"{name}: row in PINS without a manifest" for name in sorted(PINS.keys() - manifests)]
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(PINS.keys() & manifests):
            problems = check(name, *PINS[name], Path(tmp))
            print(f"{name}: {len(problems)} problems" if problems else f"{name}: ok")
            failed += [f"{name}: {p}" for p in problems]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
