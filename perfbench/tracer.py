"""Outside-in span tracer for the dasopt benchmark.

The tracer wraps public functions of the `dasopt` modules from the
benchmark's own code; nothing inside `src/` changes. Each call of a wrapped
function becomes a span (name, start, end, parent span) kept in compact
in-memory arrays and written out once the run ends. The self time of a span
is its duration minus the durations of its direct children, which on one
thread nest without overlap.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

# Public methods traced besides module-level functions. Other methods (such
# as DiGraph.in_neighbors) run several times per event and would only add
# overhead without answering a layer question.
TRACED_METHODS = {"objectives": {"Objective": ("grad_i", "grad")}}

# Engine functions that each run one replica to completion.
RUN_FUNCTIONS = ("engine.run", "engine.sync_tracking_run")


class Tracer:
    """Records one span per call of every hooked function."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._patches = []
        self.hooked = set()
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.error = array("b")
        self._stack = [-1]
        self.schedule_stats = {}
        self.reset()

    def reset(self):
        """Drop recorded spans and observed values; hooks stay installed."""
        for arr in (self.name_id, self.parent, self.start, self.end, self.error):
            del arr[:]
        del self._stack[1:]
        self.schedule_stats.update({"events": 0, "lost_packets": 0, "certified_D.max": 0})

    def hook(self, owner, attr, span_name, observe=None):
        fn = getattr(owner, attr)
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._name_ids[span_name]
        name_id, parent, start, end, error = (
            self.name_id, self.parent, self.start, self.end, self.error)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            error.append(0)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))
        self.hooked.add(span_name)

    def install(self, package):
        """Hook every public function of each module in `package.__all__`.

        Private `_`-prefixed helpers are never wrapped. A function a module no
        longer defines is simply not hooked, and the layer metrics that need
        it are reported as absent.
        """
        for modname in package.__all__:
            module = getattr(package, modname)
            for name, obj in sorted(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                observe = (self._observe_schedule
                           if (modname, name) == ("schedule", "assign_delays") else None)
                self.hook(module, name, f"{modname}.{name}", observe)
            for clsname, methods in TRACED_METHODS.get(modname, {}).items():
                cls = getattr(module, clsname, None)
                for meth in methods:
                    if cls is not None and inspect.isfunction(vars(cls).get(meth)):
                        self.hook(cls, meth, f"{modname}.{meth}")

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
        self.hooked.clear()

    def _observe_schedule(self, sched):
        stats = self.schedule_stats
        stats["events"] += int(sched.horizon)
        stats["lost_packets"] += len(sched.lost_packets)
        stats["certified_D.max"] = max(stats["certified_D.max"], int(sched.certified_D))

    def spans(self):
        """Spans recorded since the last reset, as numpy arrays."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "error": np.array(self.error, dtype=np.int8),
        }


def has_ancestor(parent, mask):
    """True for spans with an ancestor for which `mask` holds."""
    flag = np.zeros(parent.size, dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        valid = anc >= 0
        flag[valid] |= mask[anc[valid]]
        anc[valid] = parent[anc[valid]]
    return flag


def tag_replicas(spans, names, root_name, variants, replicas):
    """Variant and replica index of every span under a `root_name` call.

    The harness runs replicas variant by variant. A replica's builds
    (objective, graph, schedule) precede its engine run; other work, such as
    aggregation, follows the variant's last run and has no replica. Builds
    and work after the last run are tagged with variant index len(variants)
    (the experiment summary). Spans outside `root_name` keep -1 in both
    arrays.
    """
    nid, parent = spans["name_id"], spans["parent"]
    n = nid.size
    variant = np.full(n, -1, dtype=np.int16)
    replica = np.full(n, -1, dtype=np.int16)
    if root_name not in names:
        return variant, replica
    root_id = names.index(root_name)
    run_ids = [names.index(r) for r in RUN_FUNCTIONS if r in names]
    total = len(variants) * replicas
    for root in np.flatnonzero(nid == root_id):
        seg, building = 0, False
        for child in np.flatnonzero(parent == root):
            per_replica = True
            if nid[child] in run_ids:
                slot, seg, building = seg, seg + 1, False
            elif names[nid[child]].startswith(("objectives.", "graph.", "schedule.")):
                slot, building = seg, True
            elif building:
                slot = seg
            else:
                slot, per_replica = seg - 1, False
            if slot >= total:
                variant[child] = len(variants)
            elif slot >= 0:
                variant[child], rep = divmod(slot, replicas)
                replica[child] = rep if per_replica else -1
    # deeper spans take the tags of their ancestor that is a child of the root
    is_anchor = variant >= 0
    ptr = np.where(is_anchor, np.arange(n), parent)
    pending = (ptr >= 0) & ~is_anchor[np.maximum(ptr, 0)]
    while pending.any():
        ptr[pending] = ptr[ptr[pending]]
        pending = (ptr >= 0) & ~is_anchor[np.maximum(ptr, 0)]
    owned = ptr >= 0
    variant[owned] = variant[ptr[owned]]
    replica[owned] = replica[ptr[owned]]
    return variant, replica
