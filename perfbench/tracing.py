"""Spans around the public entry points of each lfbeam layer.

The library is not modified: ``instrument`` rebinds the functions the
simulator and the CLI look up at call time, and puts the originals back
on exit.  Spans stay in memory; ``Tracer.dump`` writes them out.

Only the calling process is traced.  Pool workers inherit the wrappers
when they fork, but their spans stay in the worker, so layer numbers
come from a 1-worker sweep and pool numbers from the parent's side of
``Pool.starmap``.
"""

from __future__ import annotations

import json
import multiprocessing.pool
import pickle
import time
from contextlib import contextmanager

import lfbeam.cli
import lfbeam.simulator


class Tracer:
    """Records ``[name, start, end, parent, attrs]`` spans, where
    ``parent`` is the index of the enclosing span (-1 at top level)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args)`` may add a
        dict of counts to the span."""

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   attrs(args) if attrs else None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()

        return traced

    def totals(self) -> dict[str, dict]:
        """Per span name: ``calls``, ``busy_s`` (summed duration),
        ``self_s`` (duration not covered by child spans) and the summed
        attrs."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, attrs) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["busy_s"] += end - start
            t["self_s"] += end - start - child_s[i]
            for k, v in (attrs or {}).items():
                t[k] = t.get(k, 0) + v
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, f)


def _starmap_attrs(args):
    tasks = list(args[2])
    return {"tasks": len(tasks), "task_bytes": len(pickle.dumps(tasks))}


# (owner, attribute, span name, attrs); the simulator and the CLI bind
# these names at import, so the wrappers go on their module namespaces.
_TARGETS = (
    (lfbeam.cli, "run_sweep", "simulator.run_sweep", None),
    (lfbeam.cli, "write_curve_csv", "cli.write_curve_csv", None),
    (lfbeam.simulator, "gen_rvq", "codebook.gen_rvq",
     lambda a: {"codewords": 1 << a[1]}),
    (lfbeam.simulator, "dominant_right_eigvec_batch", "numerics.eig",
     lambda a: {"rows": len(a[0])}),
    (lfbeam.simulator, "ls_estimate", "channel.ls_estimate", None),
    (lfbeam.simulator, "apply_power_constraint", "beamforming.power", None),
    (lfbeam.simulator, "modulate", "simulator.modem", None),
    (lfbeam.simulator, "demodulate", "simulator.modem", None),
    (multiprocessing.pool.Pool, "__init__", "simulator.pool.start", None),
    (multiprocessing.pool.Pool, "starmap", "simulator.pool.starmap",
     _starmap_attrs),
)


@contextmanager
def instrument(tracer: Tracer):
    """Route every traced entry point through ``tracer`` while active."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _TARGETS]
    try:
        for (owner, attr, name, attrs), (_, _, fn) in zip(_TARGETS, saved):
            setattr(owner, attr, tracer.wrap(name, fn, attrs))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
