"""Spans and counts recorded from outside partfrac.

``Tracer.install`` replaces public functions in partfrac's modules (and the
names other modules imported them under) with wrappers that record one span
per call: name, start, end and parent.  Generators get one span per item
taken, so their work is charged to them and not to the consumer.  Nothing
in the program is edited; ``uninstall`` puts the originals back.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.peak_pending = 0
        self._merges: list[tuple[str, set]] = []  # (merge site, keys offered)
        self.results: list = []  # decompositions returned to callers outside core
        self._saved: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def iterate(self, name: str, it, on_item=None):
        it = iter(it)
        while True:
            idx = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(idx)
            if on_item is not None:
                on_item(item)
            yield item

    def begin_pass(self) -> int:
        """Mark the start of a pass; returns the first span index."""
        self.results = []
        self.counts = defaultdict(int)
        self.peak_pending = 0
        return len(self.spans)

    # ------------------------------------------------------- instrumenting

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def install(self, pf) -> None:
        """Wrap the public functions of package ``pf`` (partfrac)."""
        core, output, oracle, parser, cli = pf.core, pf.output, pf.oracle, pf.parser, pf.cli

        def count(name):
            def bump(_item):
                self.counts[name] += 1
            return bump

        compositions = core.compositions
        self._patch(core, "compositions", lambda m, k: self.iterate(
            "combinatorics.compositions", compositions(m, k), count("core.compositions")))

        contributions = core.proper_contributions

        def on_contribution(item):
            self.counts["core.contributions"] += 1
            self._merges[-1][1].add((item[0], item[1]))

        self._patch(core, "proper_contributions", lambda spec: self.iterate(
            "core.contributions", contributions(spec), on_contribution))

        decompose_proper = core.decompose_proper

        self._patch(core, "decompose_proper", functools.partial(
            self._merge_site, "proper", "core.decompose_proper", decompose_proper))

        poly_div = core.poly_div

        def traced_poly_div(coefficient, p, q, root):
            d = self.call("core.poly_div", poly_div, coefficient, p, q, root)
            keys = self._merges[-1][1]
            keys.update(("M", t.degree) for t in d.monomials)
            keys.update(("P", root, t.order) for t in d.poles)
            return d

        self._patch(core, "poly_div", traced_poly_div)

        decompose = core.decompose

        def traced_decompose(spec):
            if spec.is_proper:
                d = self.call("core.decompose", decompose, spec)
            else:
                d = self._merge_site("improper", "core.decompose.improper", decompose, spec)
            self._offer(d)
            return d

        self._patch(core, "decompose", traced_decompose)
        self._patch(cli, "decompose", traced_decompose)

        batch = core.decompose_batch

        def traced_batch(terms):
            d = self._merge_site("batch", "core.decompose_batch", batch, terms)
            self._offer(d)
            return d

        self._patch(core, "decompose_batch", traced_batch)

        spec_cls = core.RationalFunctionSpec
        for module in (core, cli):
            self._patch(module, "RationalFunctionSpec", functools.partial(
                self.call, "core.spec", spec_cls))
        for module, attr in ((parser, "parse_root_list"), (parser, "parse_expr"),
                             (cli, "parse_root_list")):
            self._patch(module, attr, functools.partial(
                self.call, "parser.parse", getattr(module, attr)))
        self._patch(output, "expand", functools.partial(self.call, "expr.expand", output.expand))

        for module in (output, cli):
            term_chunks = module.term_chunks
            self._patch(module, "term_chunks", functools.partial(
                lambda tc, *a, **kw: self.iterate("output.render", tc(*a, **kw)), term_chunks))
            write_streaming = module.write_streaming
            self._patch(module, "write_streaming", functools.partial(
                self._write_streaming, write_streaming))

        for module in (oracle, cli):
            check = module.check_by_substitution
            self._patch(module, "check_by_substitution", functools.partial(
                self._substitution, check))
            compare = module.compare_with_oracle
            self._patch(module, "compare_with_oracle", functools.partial(
                self.call, "oracle.compare_with_oracle", compare))

    def _merge_site(self, kind: str, name: str, fn, arg):
        """Call a function that merges terms; counts the keys offered to it
        that it cancelled to zero."""
        self._merges.append((kind, set()))
        try:
            d = self.call(name, fn, arg)
        finally:
            _, keys = self._merges.pop()
        self.counts["core.cancelled_keys"] += len(keys) - len(d.monomials) - len(d.poles)
        return d

    def _offer(self, d) -> None:
        """Pass a result up to an enclosing batch merge, or record it as a
        result returned outside core."""
        if self._merges and self._merges[-1][0] == "batch":
            keys = self._merges[-1][1]
            keys.update(("M", t.degree) for t in d.monomials)
            keys.update(("P", d.roots[t.pole_index], t.order) for t in d.poles)
        elif not self._merges:
            self.results.append(d)

    def _write_streaming(self, write_streaming, chunks, sink, buffer=None):
        written = self.call("output.write_streaming", write_streaming, chunks, sink, buffer)
        self.counts["output.bytes"] += written
        if buffer is not None:
            self.counts["output.flushes"] += buffer.flush_count
            self.peak_pending = max(self.peak_pending, buffer.peak_pending)
        return written

    def _substitution(self, check, *args, **kwargs):
        report = self.call("oracle.check_by_substitution", check, *args, **kwargs)
        self.counts["oracle.points"] += report.points_checked
        return report

    # ------------------------------------------------------------ summary

    def self_times(self, first: int) -> dict[str, float]:
        """Per span name: total self time (duration minus child spans) of
        the spans recorded since index ``first``."""
        child = [0.0] * (len(self.spans) - first)
        for name, start, end, parent in self.spans[first:]:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans[first:]):
            out[name] += end - start - child[i]
        return out

    def improper_division_time(self, first: int) -> float:
        """Sum over improper ``decompose`` calls of their duration minus that
        of the ``decompose_proper`` call on the rewritten proper part."""
        total = 0.0
        spans = self.spans
        for i in range(first, len(spans)):
            name, start, end, parent = spans[i]
            if name == "core.decompose_proper" and parent >= first and \
                    spans[parent][0] == "core.decompose.improper":
                total -= end - start
            elif name == "core.decompose.improper":
                total += end - start
        return total

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)
