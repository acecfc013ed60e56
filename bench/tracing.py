"""Span tracing from outside the program.

`Tracer.installed()` wraps each layer's public functions at every name a
module looks them up by (the defining module and every module that
imported the name), records one span per call (name, start, end, parent,
job) in memory, and puts the original functions back on exit. Nothing
under `src/` changes. A span's self time is its duration minus the time
its direct child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import chemvm.assembly
import chemvm.chemlang.parser
import chemvm.chemlang.validate
import chemvm.chempiler
import chemvm.cstm
import chemvm.dec
import chemvm.rng
import chemvm.rules

# span name -> (owner, attribute). An owner that is a class has the method
# replaced once; a module function is replaced wherever it was imported.
TRACED = {
    "chemlang.parse_program": (chemvm.chemlang.parser, "parse_program"),
    "chemlang.validate_program": (chemvm.chemlang.validate, "validate_program"),
    "chempiler.chempile": (chemvm.chempiler, "chempile"),
    "chempiler.route": (chemvm.chempiler, "route"),
    "chempiler.execute_plan": (chemvm.chempiler, "execute_plan"),
    "cstm.run": (chemvm.cstm, "run"),
    "cstm.init_machine": (chemvm.cstm, "init_machine"),
    "cstm.apply_primitive": (chemvm.cstm, "apply_primitive"),
    "cstm.Machine.checkpoint": (chemvm.cstm.Machine, "checkpoint"),
    "cstm.Machine.restore": (chemvm.cstm.Machine, "restore"),
    "jsonio.to_jsonl": (chemvm.cstm.ExecutionTrace, "to_jsonl"),
    "rules.loads_rules": (chemvm.rules, "loads_rules"),
    "rules.match_rule": (chemvm.rules, "match_rule"),
    "rules.promote": (chemvm.rules, "promote"),
    "rules.plan_pathway": (chemvm.rules, "plan_pathway"),
    "rules.pathway_to_program": (chemvm.rules, "pathway_to_program"),
    "dec.run_with_dec": (chemvm.dec, "run_with_dec"),
    "dec.evaluate_correction": (chemvm.dec, "evaluate_correction"),
    "rng.substream": (chemvm.rng, "substream"),
    "assembly.monte_carlo": (chemvm.assembly, "monte_carlo"),
    "assembly.mc_to_csv": (chemvm.assembly, "mc_to_csv"),
    "assembly.mc_to_svg": (chemvm.assembly, "mc_to_svg"),
}


def _result_counts(name: str, result) -> list[tuple[str, int]]:
    """Counts taken from return values, at the boundary where the work
    happens."""
    if name == "rules.match_rule":
        return [("rules.match_hits", int(result is not None))]
    if name == "jsonio.to_jsonl":
        return [("jsonio.trace_bytes", len(result.encode()))]
    if name == "dec.run_with_dec":
        return [(f"dec.action.{a['action']}", 1) for a in result.actions]
    return []


@dataclass
class Tracer:
    # (name, start, end, parent index, tag); tag is (workload, job)
    spans: list = field(default_factory=list)
    # (workload, counter name) -> total
    counters: dict = field(default_factory=dict)
    tag: tuple = ("", -1)
    _stack: list = field(default_factory=list)
    _patch_list: list | None = None

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.tag)
            for key, n in _result_counts(name, result):
                key = (self.tag[0], key)
                counters[key] = counters.get(key, 0) + n
            return result

        return traced

    def _patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every name to swap."""
        if self._patch_list is None:
            modules = [m for n, m in list(sys.modules.items())
                       if m is not None and n.startswith("chemvm")]
            self._patch_list = []
            for name, (owner, attr) in TRACED.items():
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                owners = [(owner, attr)] if isinstance(owner, type) else [
                    (module, key) for module in modules
                    for key, value in vars(module).items() if value is original]
                self._patch_list += [(o, k, original, wrapper) for o, k in owners]
        return self._patch_list

    @contextmanager
    def installed(self):
        """Swap in the tracing wrappers; restore the originals on exit."""
        patches = self._patches()
        try:
            for owner, attr, _, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)

    def self_times(self) -> list[tuple[str, float, float, tuple]]:
        """(name, self seconds, inclusive seconds, tag) per span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name, end - start - child[i], end - start, tag)
                for i, (name, start, end, _, tag) in enumerate(self.spans)]


@dataclass
class SpanTable:
    """Per-name totals of the spans of one workload."""
    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    incl_s: dict = field(default_factory=dict)

    @classmethod
    def of(cls, tracer: Tracer, workload: str) -> "SpanTable":
        table = cls()
        for name, self_s, incl_s, tag in tracer.self_times():
            if tag[0] != workload:
                continue
            table.calls[name] = table.calls.get(name, 0) + 1
            table.self_s[name] = table.self_s.get(name, 0.0) + self_s
            table.incl_s[name] = table.incl_s.get(name, 0.0) + incl_s
        return table
