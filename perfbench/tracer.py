"""Per-layer spans and counts, taken from outside the program.

`Tracer.install` rebinds the public entry points of every ydweyl layer to
wrappers.  A module-level function is rebound in its own module and under
every name another ydweyl module imported it as (for example
`weylgraph.iso_test` and `nichols.nullspace`); methods are patched on their
class.  Each call records a span (name, start, end, parent) in memory.

A layer's self time is the total duration of its spans minus the part
covered by their direct child spans.  Time spent by the tracer's own
bookkeeping inside a span (counting matrix entries) is recorded as a child
span named `trace`, so no layer's self time includes it.  CycScalar
arithmetic is not wrapped: it has millions of calls per run.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _nonzero_cells(rows) -> tuple[int, int]:
    cells = sum(len(row) for row in rows)
    nonzero = sum(1 for row in rows for x in row if not x.is_zero())
    return cells, nonzero


class Tracer:
    def __init__(self):
        self.spans: list = []    # (name, start, end, parent index or -1)
        self._stack: list = []
        self.counts: Counter = Counter()
        self.words_max = 0

    # ---- recording -------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            note = None
            if before is not None:
                note = before(*args, **kwargs)
                spans.append(("trace", start, perf_counter(), idx))
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (name, start, perf_counter(), parent)
            if after is not None:
                after(result, note, *args, **kwargs)
            return result

        return wrapper

    # ---- count hooks -----------------------------------------------------

    def _rref_input(self, rows):
        cells, nonzero = _nonzero_cells(rows)
        self.counts["rref.cells"] += cells
        self.counts["rref.nonzero"] += nonzero

    def _block_seen(self, trunc, md):
        return tuple(md) in trunc._blocks

    def _block_done(self, blk, seen, trunc, md):
        if seen:
            self.counts["block.hits"] += 1
        else:
            self.counts["block.built"] += 1
            self.words_max = max(self.words_max, len(blk.words))

    def _cocycle_done(self, report, note, phi):
        self.counts["check_3cocycle.quadruples"] += phi.group.order ** 4

    def _iso_done(self, result, note, *args):
        self.counts["iso_test.matches"] += result is not None

    def _ad_done(self, levels, note, *args, **kwargs):
        self.counts["ad_levels"] += len(levels.levels)

    def _graph_done(self, graph, note, *args, **kwargs):
        self.counts["vertices"] += graph.vertex_count()
        self.counts["reflections"] += len(graph.reflections)

    def _roots_done(self, result, note, *args, **kwargs):
        self.counts["real_roots.truncated"] += bool(result[1])

    # ---- installation ----------------------------------------------------

    def install(self):
        from ydweyl import (cli, cyclo, freebraid, groupdata, nichols,
                            reflect, weylgraph, ydcat)
        functions = [
            (cli, "load_session", None, None),
            (groupdata, "check_3cocycle", None, self._cocycle_done),
            (cyclo, "rref", self._rref_input, None),
            (cyclo, "nullspace", None, None),
            (cyclo, "det", None, None),
            (ydcat, "iso_test", None, self._iso_done),
            (ydcat, "yd_axiom_check", None, None),
            (ydcat, "dual", None, None),
            (ydcat, "module_canonical_key", None, None),
            (reflect, "ad_power_module", None, self._ad_done),
            (weylgraph, "build_cartan_graph", None, self._graph_done),
            (weylgraph, "real_roots", None, self._roots_done),
            (weylgraph, "is_finite", None, None),
            (weylgraph, "check_axioms", None, None),
        ]
        methods = [
            (freebraid.WordAlgebra, "delta_1n", "freebraid.delta_1n", None, None),
            (freebraid.WordAlgebra, "mult", "freebraid.mult", None, None),
            (nichols.NicholsTruncation, "block", "nichols.block",
             self._block_seen, self._block_done),
            (nichols.NicholsTruncation, "normal_form", "nichols.normal_form",
             None, None),
        ]
        modules = [m for k, m in sys.modules.items()
                   if k == "ydweyl" or k.startswith("ydweyl.")]
        for home, attr, before, after in functions:
            layer = home.__name__.rsplit(".", 1)[1]
            fn = getattr(home, attr)
            wrapper = self._wrap(f"{layer}.{attr}", fn, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        for cls, attr, name, before, after in methods:
            setattr(cls, attr, self._wrap(name, getattr(cls, attr), before, after))

    # ---- aggregation -----------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: number of calls and total self time in seconds."""
        calls: Counter = Counter()
        total: Counter = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                total[self.spans[parent][0]] -= end - start
        return calls, total

    def metrics(self, stdout_bytes: int) -> dict:
        calls, total = self.self_times()
        s = defaultdict(float, total)
        c = self.counts
        built, hits = c["block.built"], c["block.hits"]
        iso_calls = calls["ydcat.iso_test"]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "cli.load_session.s": (s["cli.load_session"], "s"),
            "cli.stdout_bytes": (stdout_bytes, "bytes"),
            "groupdata.check_3cocycle.s": (s["groupdata.check_3cocycle"], "s"),
            "groupdata.check_3cocycle.quadruples":
                (c["check_3cocycle.quadruples"], "count"),
            "cyclo.rref.calls": (calls["cyclo.rref"], "count"),
            "cyclo.rref.s": (s["cyclo.rref"], "s"),
            "cyclo.rref.cells": (c["rref.cells"], "count"),
            "cyclo.rref.density":
                (ratio(c["rref.nonzero"], c["rref.cells"]), "ratio"),
            "cyclo.nullspace.calls": (calls["cyclo.nullspace"], "count"),
            "cyclo.nullspace.s": (s["cyclo.nullspace"], "s"),
            "cyclo.det.calls": (calls["cyclo.det"], "count"),
            "cyclo.det.s": (s["cyclo.det"], "s"),
            "freebraid.delta_1n.calls": (calls["freebraid.delta_1n"], "count"),
            "freebraid.delta_1n.s": (s["freebraid.delta_1n"], "s"),
            "freebraid.mult.calls": (calls["freebraid.mult"], "count"),
            "freebraid.mult.s": (s["freebraid.mult"], "s"),
            "nichols.block.built": (built, "count"),
            "nichols.block.hits": (hits, "count"),
            "nichols.block.hit_ratio": (ratio(hits, built + hits), "ratio"),
            "nichols.block.s": (s["nichols.block"], "s"),
            "nichols.block.words_max": (self.words_max, "count"),
            "nichols.normal_form.calls": (calls["nichols.normal_form"], "count"),
            "nichols.normal_form.s": (s["nichols.normal_form"], "s"),
            "ydcat.iso_test.calls": (iso_calls, "count"),
            "ydcat.iso_test.s": (s["ydcat.iso_test"], "s"),
            "ydcat.iso_test.match_ratio":
                (ratio(c["iso_test.matches"], iso_calls), "ratio"),
            "ydcat.yd_axiom_check.calls": (calls["ydcat.yd_axiom_check"], "count"),
            "ydcat.yd_axiom_check.s": (s["ydcat.yd_axiom_check"], "s"),
            "ydcat.dual.calls": (calls["ydcat.dual"], "count"),
            "ydcat.dual.s": (s["ydcat.dual"], "s"),
            "ydcat.module_canonical_key.calls":
                (calls["ydcat.module_canonical_key"], "count"),
            "reflect.ad_power_module.calls":
                (calls["reflect.ad_power_module"], "count"),
            "reflect.ad_power_module.s": (s["reflect.ad_power_module"], "s"),
            "reflect.ad_levels": (c["ad_levels"], "count"),
            "weylgraph.build_cartan_graph.s":
                (s["weylgraph.build_cartan_graph"], "s"),
            "weylgraph.vertices": (c["vertices"], "count"),
            "weylgraph.reflections": (c["reflections"], "count"),
            "weylgraph.real_roots.calls": (calls["weylgraph.real_roots"], "count"),
            "weylgraph.real_roots.s": (s["weylgraph.real_roots"], "s"),
            "weylgraph.real_roots.truncated":
                (c["real_roots.truncated"], "count"),
            "weylgraph.is_finite.s": (s["weylgraph.is_finite"], "s"),
            "weylgraph.check_axioms.s": (s["weylgraph.check_axioms"], "s"),
        }
