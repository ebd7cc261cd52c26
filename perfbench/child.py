"""One operation of a benchmark workload, run in a fresh interpreter.

Usage (started by run.py, with PYTHONPATH pointing at the checkout's src/):

    python3 perfbench/child.py '{"workload": NAME, "seed": N, "mode": "setup"|"op",
                                 "trace": 0|1, "out": DIR, "result": FILE}'

The child imports char2lie, generates its input from the seed, notes the
time (the end of set-up), and in "op" mode drives the program through its
public entry points only.  The workload's reference loop is timed between
the operation's stages and after its last one; run.py times the one
before it, outside this process, so that the loop cannot change how the
operation's memory is laid out.  The child writes what it observed
(outputs, timings, reference-loop times, peak RSS and, when traced,
per-layer metrics and spans) as JSON to the result file; run.py compares
the outputs with the golden values.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def ref_python(rounds: int = 400_000) -> int:
    """Fixed interpreter work of the kind char2lie does (int arithmetic,
    shifts and xors of multi-word ints, dict lookups), using no char2lie
    code."""
    table: dict[int, int] = {}
    x = 0x9E3779B97F4A7C15
    acc = 0
    for _ in range(rounds):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = x & 1023
        row = table.get(key, 0) ^ (x << (key & 63))
        table[key] = row
        acc ^= row & (row >> 3)
    return acc


def ref_numpy(rows: int = 40_000, words: int = 60, steps: int = 24) -> int:
    """Fixed numpy work of the kind the dense GF(2) solve does: the first
    `steps` columns of a forward elimination over packed uint64 rows (a
    19 MB matrix, so that memory traffic dominates as it does there), using
    no char2lie code."""
    import numpy as np

    data = np.random.default_rng(0).integers(0, 2**64 - 1, size=(rows, words), dtype=np.uint64,
                                             endpoint=True)
    for c in range(steps):
        col = ((data[c:, c >> 6] >> np.uint64(c & 63)) & np.uint64(1)).astype(bool)
        pivot = c + int(np.nonzero(col)[0][0])
        data[[c, pivot]] = data[[pivot, c]]
        col[pivot - c] = col[0]
        col[0] = False
        data[c:][col] ^= data[c]
    return int(data[-1, -1])


REFERENCES = {
    "python": ref_python,
    # twice the work: a finer estimate, for operations long enough to afford it
    "python_long": functools.partial(ref_python, rounds=800_000),
    "numpy": ref_numpy,
}


def reference_s(kind: str) -> float:
    """Seconds one reference loop takes now: the machine's current speed
    for the workload's kind of work."""
    fn = REFERENCES[kind]
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Timer:
    """Latency samples of the workload's timed calls, and the times of the
    reference loops run at the operation's checkpoints."""

    def __init__(self, reference: str | None = None):
        self.samples: dict[str, list[float]] = {}
        self.reference = reference
        self.refs: list[float] = []

    def checkpoint(self):
        """Time one reference loop between two stages of the operation
        (nothing when no reference was asked for)."""
        if self.reference:
            self.refs.append(reference_s(self.reference))

    def call(self, key, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.samples.setdefault(key, []).append(time.perf_counter() - t0)

    def timed(self, fn, key):
        def timed(*args, **kwargs):
            return self.call(key, lambda: fn(*args, **kwargs))

        return timed


@contextlib.contextmanager
def patched(owner, attr, make):
    """Replace `owner.attr` by `make(original)` for the duration."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _quiet(timer, key, fn, argv):
    """Run a CLI command with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = timer.call(key, fn, argv)
    return rc, buf.getvalue()


def op_report(spec, timer):
    from char2lie import cli

    out = Path(spec["out"])
    sizes = [str(s) for s in workloads.REPORT_SIZES]
    with patched(cli, "dex_family", lambda fn: timer.timed(fn, "family_s")):
        rc, _ = _quiet(timer, "report_s", cli.main, ["report", "--sizes", *sizes, "--out", str(out)])
    return {
        "rc": rc,
        "report.txt": _sha((out / "report.txt").read_bytes()),
        "report.csv": _sha((out / "report.csv").read_bytes()),
    }


def op_family(spec, timer, fam):
    from char2lie import cli, deriv

    out = str(spec["out"])
    args = workloads.cli_args(fam)
    stats = {}

    def keep_stats(solve):
        def blocked(*a, **k):
            space = solve(*a, **k)
            stats.update(dim=space.dim, outer=space.dim_outer, blocks=space.block_stats["blocks"],
                         max_block=space.block_stats["max_block"])
            return space

        return blocked

    rc_build, _ = _quiet(timer, "build_s", cli.main, ["build", *args, "--out", out])
    timer.checkpoint()
    with patched(deriv, "derivation_space_blocked", keep_stats):
        rc_der, der_text = _quiet(timer, "derivations_s", cli.main, ["derivations", *args, "--out", out])
    timer.checkpoint()
    rc_fp, fp_text = _quiet(timer, "fingerprint_s", cli.main, ["fingerprint", *args])
    sca = Path(out) / f"{cli.family_slug(fam)}.sca"
    return {
        "rc_build": rc_build,
        "rc_derivations": rc_der,
        "rc_fingerprint": rc_fp,
        "sca": _sha(sca.read_bytes()) if sca.exists() else None,
        "derivations": _sha(der_text),
        "fingerprint": _sha(fp_text),
        **stats,
    }


def op_oracle(spec, timer, fam):
    from char2lie import deriv, liesuper

    g, _ = timer.call("build_s", liesuper.build_algebra, fam)
    naive = timer.call("naive_s", deriv.derivation_space_naive, g)
    timer.checkpoint()
    blocked = timer.call("blocked_s", deriv.derivation_space_blocked, g)
    timer.checkpoint()
    equal = timer.call("spaces_equal_s", deriv.spaces_equal, naive, blocked)
    return {
        "spaces_equal": equal,
        "naive_dim": naive.dim,
        "blocked_dim": blocked.dim,
        "outer": blocked.dim_outer,
        "blocks": blocked.block_stats["blocks"],
        "max_block": blocked.block_stats["max_block"],
    }


def main(argv) -> int:
    spec = json.loads(argv[1])
    from char2lie import cli, liesuper  # cli imports every other module

    family = workloads.family_for(spec["workload"], spec["seed"])
    fam = workloads.make_family(liesuper, family) if family else None
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    rec: dict = {"ready": time.monotonic()}
    if spec["mode"] == "op":
        name = spec["workload"]
        timer = Timer(workloads.REFERENCE[name])
        if name == "report":
            rec["outputs"] = op_report(spec, timer)
        elif name == "family_h7":
            rec["outputs"] = op_family(spec, timer, fam)
        else:
            rec["outputs"] = op_oracle(spec, timer, fam)
        timer.checkpoint()
        rec["ref"] = timer.refs
        rec["timings"] = timer.samples
        if tracer is not None:
            rec["layers"] = tracer.layer_metrics()
            rec["spans"] = tracer.span_records()
    rec["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(spec["result"]).write_text(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
