"""Spans around surdcf's layer entry points, recorded from outside the package.

The traced run patches each public function where its caller binds it (for
example ``analyzer.expand_sqrt``, not ``engine.expand_sqrt``), so the package
itself is never edited.  Spans live in flat in-memory lists while the call
runs and are written to one ``.npz`` file when it ends.

A span's self time is its duration minus the time its child spans cover.
Every span opens inside the root ``cli.main`` span, so the self times of all
spans sum exactly (in integer nanoseconds) to the root's duration, which is
the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from contextlib import contextmanager

import numpy as np

ROOT = "cli.main"
EMIT = "cli.emit"


class Tracer:
    """Flat span store: one entry per span in each parallel list."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.child_ns: list[int] = []
        self.stack: list[int] = []
        self.raised: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        # (duration ns, family id) of the slowest verify_family span
        self.slowest = (0, "")
        # the last report check_claims returned
        self.report = None

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.child_ns.append(0)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def close(self, sid: int) -> int:
        end = time.perf_counter_ns()
        self.stack.pop()
        self.end[sid] = end
        dur = end - self.start[sid]
        parent = self.parent[sid]
        if parent >= 0:
            self.child_ns[parent] += dur
        return dur

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn, on_result=None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid)
                self.raised[name] = self.raised.get(name, 0) + 1
                raise
            dur = self.close(sid)
            if on_result is not None:
                on_result(self, result, args, dur)
            return result

        return traced

    def totals(self) -> dict[str, dict]:
        """Per span name: the number of spans and their summed self seconds."""
        names = np.asarray(self.span_name, dtype=np.int64)
        self_ns = (np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)
                   - np.asarray(self.child_ns, dtype=np.int64))
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_sum = np.bincount(names, weights=self_ns, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": self_sum[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def self_ns_sum(self) -> int:
        return sum(self.end) - sum(self.start) - sum(self.child_ns)

    def save(self, path) -> None:
        t0 = self.start[0] if self.start else 0
        np.savez_compressed(
            path,
            workload=np.array(self.workload),
            names=np.array(self.names),
            name=np.asarray(self.span_name, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start_ns=np.asarray(self.start, dtype=np.int64) - t0,
            end_ns=np.asarray(self.end, dtype=np.int64) - t0,
        )


def _on_claims(tr: Tracer, result, args, dur) -> None:
    tr.report = result


def _on_sweep(tr: Tracer, result, args, dur) -> None:
    # (ell, a0, center, flags); ell is 0 on square and overflowed lanes.
    from surdcf import _kernels

    ell, _, _, flags = result
    tr.count("kernels.sweep_steps", int(ell.sum()))
    tr.count("kernels.overflow_lanes", int(np.count_nonzero(flags & _kernels.F_OVERFLOW)))
    tr.count("kernels.nonsquare_lanes", int(np.count_nonzero((flags & _kernels.F_SQUARE) == 0)))


def _on_expand(site: str | None):
    def hook(tr: Tracer, result, args, dur) -> None:
        tr.count("engine.steps", len(result.period))
        if site:
            tr.count(site)

    return hook


def _on_verify(tr: Tracer, result, args, dur) -> None:
    if dur > tr.slowest[0]:
        tr.slowest = (dur, result.family_id)


def _on_mine(tr: Tracer, result, args, dur) -> None:
    if result is not None:
        tr.count("miner.found")


# (module, attribute owner inside it or None, attribute, span name, hook).
# Each entry binds where the caller looks the function up at call time.
BINDINGS = [
    ("surdcf.analyzer", None, "check_claims", "analyzer.check_claims", _on_claims),
    ("surdcf._kernels", None, "sweep_range", "kernels.sweep_range", _on_sweep),
    ("surdcf._kernels", None, "two_squares_range", "kernels.two_squares_range", None),
    ("surdcf.analyzer", None, "expand_sqrt", "engine.expand_sqrt", _on_expand("analyzer.exact_redo_lanes")),
    ("surdcf.analyzer", None, "isqrt", "exact.isqrt", None),
    ("surdcf.engine", None, "isqrt", "exact.isqrt", None),
    ("surdcf.families", None, "verify_family", "families.verify_family", _on_verify),
    ("surdcf.families", None, "instantiate", "families.instantiate", None),
    ("surdcf.families", None, "expand_sqrt", "engine.expand_sqrt", _on_expand(None)),
    ("surdcf.miner", None, "mine_sweep", "miner.mine_sweep", None),
    ("surdcf.miner", None, "mine", "miner.mine", _on_mine),
    ("surdcf.miner", None, "word_matrix", "convergents.word_matrix", None),
    ("surdcf.miner", None, "solve_linear_congruence", "exact.solve_linear_congruence", None),
    ("surdcf.miner", None, "expand_sqrt", "engine.expand_sqrt", _on_expand(None)),
    # Turning results into stdout bytes: report dicts, JSON text, print.
    ("surdcf.analyzer", "StructReport", "to_dict", EMIT, None),
    ("surdcf.families", "VerifyReport", "to_dict", EMIT, None),
    ("surdcf.miner", "MinedFamily", "to_dict", EMIT, None),
]


@contextmanager
def patched(tracer: Tracer):
    """Install the span wrappers; yields the bindings that could not be found.

    A binding whose module or attribute is gone (the package was refactored)
    is skipped and reported rather than failing the run.
    """
    undo = []
    missing = []
    for module_name, owner_name, attr, span, hook in BINDINGS:
        try:
            owner = importlib.import_module(module_name)
            if owner_name:
                owner = getattr(owner, owner_name)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{owner_name + '.' if owner_name else ''}{attr}")
            continue
        undo.append((owner, attr, fn))
        setattr(owner, attr, tracer.wrap(span, fn, hook))

    cli = importlib.import_module("surdcf.cli")
    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(json.__dict__)
    json_proxy.dumps = tracer.wrap(EMIT, json.dumps)
    undo.append((cli, "json", cli.json))
    cli.json = json_proxy
    # A module global `print` shadows the builtin for cli only.
    cli.print = tracer.wrap(EMIT, print)
    try:
        yield missing
    finally:
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)
        del cli.print


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced call (0 where a layer is not called)."""
    t = tr.totals()
    c = tr.counters

    def self_s(name):
        return t.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    inst_calls = calls("families.instantiate")
    mine_calls = calls("miner.mine")
    lanes = c.get("kernels.nonsquare_lanes", 0)
    overflow = c.get("kernels.overflow_lanes", 0)
    return {
        "kernels.sweep_range.self_s": self_s("kernels.sweep_range"),
        "kernels.sweep_range.calls": calls("kernels.sweep_range"),
        "kernels.sweep_steps_per_s": ratio(c.get("kernels.sweep_steps", 0), self_s("kernels.sweep_range")),
        "kernels.overflow_lanes": overflow,
        "kernels.lane_yield": 1 - overflow / lanes if lanes else 0.0,
        "kernels.two_squares_range.self_s": self_s("kernels.two_squares_range"),
        "kernels.two_squares_range.calls": calls("kernels.two_squares_range"),
        "analyzer.check_claims.self_s": self_s("analyzer.check_claims"),
        "analyzer.exact_redo_lanes": c.get("analyzer.exact_redo_lanes", 0),
        "engine.expand_sqrt.self_s": self_s("engine.expand_sqrt"),
        "engine.expand_sqrt.calls": calls("engine.expand_sqrt"),
        "engine.steps_per_s": ratio(c.get("engine.steps", 0), self_s("engine.expand_sqrt")),
        "exact.isqrt.self_s": self_s("exact.isqrt"),
        "exact.isqrt.calls": calls("exact.isqrt"),
        "exact.solve_linear_congruence.self_s": self_s("exact.solve_linear_congruence"),
        "exact.solve_linear_congruence.calls": calls("exact.solve_linear_congruence"),
        "families.verify_family.self_s": self_s("families.verify_family"),
        "families.verify_family.max_s": tr.slowest[0] / 1e9,
        "families.instantiate.self_s": self_s("families.instantiate"),
        "families.instantiate.calls": inst_calls,
        "families.member_yield": ratio(inst_calls - tr.raised.get("families.instantiate", 0), inst_calls),
        "miner.mine_sweep.self_s": self_s("miner.mine_sweep"),
        "miner.mine.self_s": self_s("miner.mine"),
        "miner.mine.calls": mine_calls,
        "miner.yield": ratio(c.get("miner.found", 0), mine_calls),
        "convergents.word_matrix.self_s": self_s("convergents.word_matrix"),
        "convergents.word_matrix.calls": calls("convergents.word_matrix"),
        "cli.self_s": self_s(ROOT),
        "cli.emit_s": self_s(EMIT),
    }
