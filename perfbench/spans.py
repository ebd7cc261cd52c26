"""Spans and counters taken from outside the program.

A `Tracer` replaces public functions and methods of the char2lie modules
with thin wrappers, in every module namespace where callers look them up.
Each wrapped call records one span (name, start, end, parent) in memory;
some wrappers also read deterministic counts off the call's arguments or
result.  `layer_metrics` turns the spans into per-layer self times.

Only boundary calls are wrapped (thousands per operation, not millions),
so the per-element hot paths of the program stay untouched.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (metric, unit, better) for every per-layer metric the traced run prints.
# A layer's `X.self_s` is the time inside spans named X minus the part
# covered by their child spans; `X.calls` counts those spans.
PER_LAYER = [
    ("superfunc.bracket.self_s", "s", "lower"),
    ("superfunc.bracket.calls", "count", "lower"),
    ("superfunc.squaring.self_s", "s", "lower"),
    ("superfunc.squaring.calls", "count", "lower"),
    ("liesuper.build_algebra.self_s", "s", "lower"),
    ("liesuper.build_algebra.calls", "count", "lower"),
    ("liesuper.poisson_algebra.self_s", "s", "lower"),
    ("liesuper.verify_form.self_s", "s", "lower"),
    ("liesuper.verify_form.calls", "count", "lower"),
    ("liesuper.verify_axioms.self_s", "s", "lower"),
    ("liesuper.verify_axioms.calls", "count", "lower"),
    ("liesuper.verify_ok_frac", "ratio", "higher"),
    ("deriv.derivation_space_blocked.self_s", "s", "lower"),
    ("deriv.derivation_space_blocked.calls", "count", "lower"),
    ("deriv.derivation_space_naive.self_s", "s", "lower"),
    ("deriv.closed_form_generators.self_s", "s", "lower"),
    ("deriv.spaces_equal.self_s", "s", "lower"),
    ("deriv.blocks", "count", "lower"),
    ("deriv.max_block", "count", "lower"),
    ("deriv.dim", "count", "higher"),
    ("deriv.outer", "count", "higher"),
    ("gf2core.nullspace_basis.self_s", "s", "lower"),
    ("gf2core.nullspace_basis.calls", "count", "lower"),
    ("gf2core.from_int_rows.self_s", "s", "lower"),
    ("gf2core.rows_in", "count", "lower"),
    ("gf2core.rank_out", "count", "higher"),
    ("gf2core.row_yield", "ratio", "higher"),
    ("gf2core.max_cols", "count", "lower"),
    ("doubleext.prepare.self_s", "s", "lower"),
    ("doubleext.build.self_s", "s", "lower"),
    ("doubleext.identify_canonical.self_s", "s", "lower"),
    ("doubleext.bilinear_invariant.self_s", "s", "lower"),
    ("doubleext.bilinear_invariant.calls", "count", "lower"),
    ("doubleext.extensions_built", "count", "higher"),
    ("doubleext.identify_attempts", "count", "lower"),
    ("doubleext.identified", "count", "higher"),
    ("invariants.fingerprint.self_s", "s", "lower"),
    ("cli.dex_family.self_s", "s", "lower"),
    ("cli.analyze_family.self_s", "s", "lower"),
    ("cli.sca_dump.self_s", "s", "lower"),
    ("cli.sca_parse.self_s", "s", "lower"),
    ("cli.render.self_s", "s", "lower"),
    ("cli.report_bytes", "count", "lower"),
    ("trace_overhead_s", "s", "lower"),
]

# metrics that are counts of work: identical on every operation of a
# workload and seed, kept apart from timings
COUNT_METRICS = [m for m, unit, _ in PER_LAYER if unit in ("count", "ratio")]


class Tracer:
    """In-memory span recorder plus deterministic counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # -- recording --

    def wrap(self, fn, name, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = t0, t1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, observe=None, modules=()):
        """Wrap `owner.attr`, and every alias of it in `modules` (names
        bound by `from ... import ...`)."""
        raw = owner.__dict__[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = self.wrap(fn, name, observe)
        setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        for mod in modules:
            if mod is not owner and getattr(mod, attr, None) is fn:
                setattr(mod, attr, wrapped)

    # -- the char2lie layer boundaries --

    def install(self):
        from char2lie import cli, deriv, doubleext, gf2core, invariants, liesuper, superfunc

        mods = [m for k, m in sys.modules.items() if k.startswith("char2lie.")]
        c = self.counts

        def count_verify(args, report):
            c["verify_calls"] += 1
            c["verify_ok"] += bool(report.ok)

        def count_space(args, space):
            c["deriv.dim"] += space.dim
            c["deriv.outer"] += space.dim_outer
            c["deriv.blocks"] += space.block_stats.get("blocks", 0)
            c["deriv.max_block"] = max(c["deriv.max_block"], space.block_stats.get("max_block", 0))

        def count_nullspace(args, kernel):
            mat = args[0]
            c["gf2core.rows_in"] += mat.rows
            c["gf2core.rank_out"] += mat.cols - len(kernel)
            c["gf2core.max_cols"] = max(c["gf2core.max_cols"], mat.cols)

        def count_built(args, ext):
            c["doubleext.extensions_built"] += 1

        def count_identify(args, witness):
            c["doubleext.identify_attempts"] += 1
            c["doubleext.identified"] += witness is not None

        def count_bytes(args, text):
            c["cli.report_bytes"] += len(text.encode())

        self.patch(superfunc, "bracket", "superfunc.bracket", modules=mods)
        self.patch(superfunc, "squaring", "superfunc.squaring", modules=mods)
        self.patch(liesuper, "build_algebra", "liesuper.build_algebra", modules=mods)
        self.patch(liesuper, "poisson_algebra", "liesuper.poisson_algebra", modules=mods)
        sc = liesuper.StructureConstants
        self.patch(sc, "verify_form", "liesuper.verify_form", count_verify)
        self.patch(sc, "verify_axioms", "liesuper.verify_axioms", count_verify)
        self.patch(deriv, "derivation_space_blocked", "deriv.derivation_space_blocked", count_space, mods)
        self.patch(deriv, "derivation_space_naive", "deriv.derivation_space_naive", modules=mods)
        self.patch(deriv, "closed_form_generators", "deriv.closed_form_generators", modules=mods)
        self.patch(deriv, "spaces_equal", "deriv.spaces_equal", modules=mods)
        bm = gf2core.BitMatrix
        self.patch(bm, "from_int_rows", "gf2core.from_int_rows")
        self.patch(bm, "nullspace_basis", "gf2core.nullspace_basis", count_nullspace)
        self.patch(doubleext, "prepare", "doubleext.prepare", modules=mods)
        self.patch(doubleext, "build", "doubleext.build", count_built, mods)
        self.patch(doubleext, "identify_canonical", "doubleext.identify_canonical", count_identify, mods)
        self.patch(doubleext, "bilinear_invariant", "doubleext.bilinear_invariant", modules=mods)
        self.patch(invariants, "fingerprint", "invariants.fingerprint", modules=mods)
        for fn in ("dex_family", "analyze_family", "sca_dump", "sca_parse"):
            self.patch(cli, fn, f"cli.{fn}")
        for fn in ("render_derivation_report", "render_dex_table", "render_dex_csv"):
            self.patch(cli, fn, "cli.render", count_bytes)

    # -- summary --

    def layer_metrics(self) -> dict:
        """Self time and call count per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (name, t0, t1, _), inner in zip(self.spans, child_time):
            self_s[name] += (t1 - t0) - inner
            calls[name] += 1
        out = {}
        for metric, _, _ in PER_LAYER:
            layer, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = self_s.get(layer, 0.0)
            elif kind == "calls":
                out[metric] = calls.get(layer, 0)
        c = self.counts
        for metric in COUNT_METRICS:
            if metric not in out:
                out[metric] = c.get(metric, 0)
        out["liesuper.verify_ok_frac"] = c["verify_ok"] / c["verify_calls"] if c["verify_calls"] else 0.0
        rows = c["gf2core.rows_in"]
        out["gf2core.row_yield"] = c["gf2core.rank_out"] / rows if rows else 0.0
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": t0, "end": t1, "parent": p} for n, t0, t1, p in self.spans]
