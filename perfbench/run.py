"""char2lie benchmark: one command for every workload, golden checks, and a
separate traced run for per-layer numbers.

    python3 perfbench/run.py [--workload report|family_h7|oracle_h6|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; the program is imported from
./src.  Each operation runs in a fresh interpreter, one at a time (a closed
loop with one client): the next starts when the previous one has exited,
if it is expected to end within --seconds.  Outputs of every operation are
compared with perfbench/golden.json.  Temporary files, per-run records and
traces go to ./.perfbench/.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, taken
from traced operations alternated with untraced ones.

The machine this runs on is shared, and its speed drifts by a quarter
over minutes.  Each operation therefore also times a fixed reference loop
(child.py) before, between and after the stages of its work, and
`wall_ref` is the operation's wall time in units of that loop: the
program's cost with the machine's current speed divided out.  Raw seconds
are printed beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from child import REFERENCES, reference_s  # noqa: E402
from spans import COUNT_METRICS, PER_LAYER  # noqa: E402

DEADLINE_S = 170  # per workload, whatever --seconds says
SETUP_PROBES = 3  # set-up-only starts before and again after an untraced run's operations

UNITS = {"wall_ref": "ref", "wall_s": "s", "ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         **{m: unit for m, unit, _ in PER_LAYER},
         "failed_frac": "ratio", "operations": "count", "family_s.samples": "count"}


class Run:
    """One invocation for one workload: spawns the operations and keeps
    what they report."""

    def __init__(self, root: Path, workdir: Path, workload: str, seed: int, deadline: float):
        self.workdir = workdir
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.family = workloads.family_for(workload, seed)
        self.reference = workloads.REFERENCE[workload]
        REFERENCES[self.reference]()  # warm-up: the first call also pays for imports
        golden = json.loads((HERE / "golden.json").read_text())[workload]
        self.golden = golden[workloads.slug(self.family)] if self.family else golden
        # fixed string hashing removes one source of run-to-run variation
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
        self.spawned = 0
        self.setups: list[float] = []
        self.ops: list[dict] = []
        self.checked = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, mode: str, trace: bool) -> dict | None:
        self.spawned += 1
        out = self.workdir / f"op{self.spawned}"
        out.mkdir()
        result = self.workdir / f"op{self.spawned}.json"
        spec = {"workload": self.workload, "seed": self.seed, "mode": mode, "trace": int(trace),
                "out": str(out), "result": str(result)}
        # the reference loop before the operation runs here, the others in the child
        ref_before = reference_s(self.reference) if mode == "op" else None
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=max(1.0, self.deadline - t0),
            )
        except subprocess.TimeoutExpired:
            self.problems.append(f"{mode} timed out")
            return None
        wall = time.monotonic() - t0
        if proc.returncode != 0 or not result.exists():
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
            self.problems.append(f"{mode} exited {proc.returncode}: {' | '.join(tail)}")
            return None
        rec = json.loads(result.read_text())
        if mode == "op":
            # the operation's own wall time: the child's reference loops taken out
            rec["wall"] = wall - sum(rec["ref"])
            rec["ref"].insert(0, ref_before)
            rec["ref_s"] = statistics.fmean(rec["ref"])
        else:
            rec["wall"] = wall
        rec["setup"] = rec["ready"] - t0
        rec["traced"] = trace
        return rec

    def probe_setup(self) -> None:
        rec = self.spawn("setup", False)
        if rec is not None:
            self.setups.append(rec["setup"])

    def operation(self, trace: bool) -> bool:
        """Run one operation and check its outputs; False if it crashed."""
        rec = self.spawn("op", trace)
        checks = len(self.golden) + 1  # every golden value, plus a clean exit
        self.checked += checks
        if rec is None:
            self.failed += checks
            return False
        for key, want in self.golden.items():
            got = rec["outputs"].get(key)
            if got != want:
                self.failed += 1
                self.problems.append(f"{key}: got {got!r}, golden {want!r}")
        self.ops.append(rec)
        return True


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def measure(run: Run, seconds: float, trace: bool) -> None:
    probes = 0 if trace else SETUP_PROBES
    for _ in range(probes):
        run.probe_setup()
    start = time.monotonic()
    cycles: list[float] = []
    while True:
        n = len(cycles)
        now = time.monotonic()
        # the next operation starts only if it is expected to end within the
        # window; there is always one (two when traced: one of each kind)
        if n >= (2 if trace else 1) and now + _median(cycles) - start > seconds:
            break
        if now >= run.deadline:
            break
        # traced runs alternate untraced and traced operations
        if not run.operation(trace=trace and n % 2 == 1):
            break
        cycles.append(time.monotonic() - now)
    for _ in range(probes):
        run.probe_setup()


def end_to_end(run: Run) -> dict:
    ops = run.ops
    return {
        "wall_ref": _median([o["wall"] / o["ref_s"] for o in ops]),
        "setup_s": _median(run.setups + [o["setup"] for o in ops]),
        "peak_rss_mb": _median([o["rss_kb"] / 1024 for o in ops]),
    }


def workload_timings(run: Run) -> dict:
    """Medians of the workload's own timed calls, pooled over operations;
    printed alongside the gated metrics."""
    pooled: dict[str, list[float]] = {"wall_s": [o["wall"] for o in run.ops],
                                      "ref_s": [o["ref_s"] for o in run.ops]}
    for o in run.ops:
        for key, xs in o["timings"].items():
            pooled.setdefault(key, []).extend(xs)
    out = {}
    for key, xs in sorted(pooled.items()):
        if key == "family_s":
            out["family_s.p50"] = _median(xs)
            out["family_s.p90"] = _p90(xs)
            out["family_s.samples"] = len(xs)
        else:
            out[key] = _median(xs)
    return out


def per_layer(run: Run) -> dict:
    traced = [o for o in run.ops if o["traced"]]
    plain = [o for o in run.ops if not o["traced"]]
    if not traced:
        return {}
    out = {}
    for metric, _, _ in PER_LAYER:
        if metric == "trace_overhead_s":
            out[metric] = _median([o["wall"] for o in traced]) - _median([o["wall"] for o in plain])
        elif metric in COUNT_METRICS:
            values = {o["layers"][metric] for o in traced}
            if len(values) > 1:
                run.problems.append(f"{metric} differs between traced operations: {sorted(values)}")
            out[metric] = traced[0]["layers"][metric]
        else:
            out[metric] = _median([o["layers"][metric] for o in traced])
    return out


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    state = root / ".perfbench"
    state.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=state))
    try:
        run = Run(root, workdir, workload, seed, time.monotonic() + DEADLINE_S)
        measure(run, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics, extra = per_layer(run), {}
        spans = [{"op": i, "spans": o.pop("spans")} for i, o in enumerate(run.ops) if o["traced"]]
        (state / f"trace_{workload}_seed{seed}.json").write_text(
            json.dumps({"workload": workload, "seed": seed, "family": run.family, "ops": spans})
        )
    else:
        metrics, extra = end_to_end(run), workload_timings(run)
    extra["failed_frac"] = run.failed / run.checked if run.checked else 1.0
    extra["operations"] = len(run.ops)
    family = workloads.slug(run.family) if run.family else None
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "family": family,
        "checked": run.checked, "failed": run.failed, "problems": run.problems,
        "metrics": metrics, "extra": extra, "setup_probes": run.setups,
        "samples": [{k: o[k] for k in ("wall", "ref", "setup", "rss_kb", "timings")} for o in run.ops],
    }
    (state / f"result_{workload}_seed{seed}_trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {workload} seed {seed} family {family or 'fixed'}: "
          f"{len(run.ops)} operations, {run.checked} checks, {run.failed} failed")
    for name, value in [*metrics.items(), *extra.items()]:
        print(f"  {name:40s} {value:14.6f} {UNITS.get(name, 's')}")
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    return run, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*workloads.NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "char2lie" / "__init__.py").is_file():
        print(f"error: no char2lie sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else [args.workload]
    results = [run_workload(root, name, args.seed, args.seconds, bool(args.trace)) for name in names]
    prefix = args.workload == "all"
    metrics = {(f"{name}." if prefix else "") + m: {"value": v, "unit": UNITS[m]}
               for name, (_, ms) in zip(names, results) for m, v in ms.items()}
    runs = [r for r, _ in results]
    attempted = sum(r.checked for r in runs)
    failed = sum(r.failed for r in runs)
    correct = attempted > 0 and not any(r.problems for r in runs)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
