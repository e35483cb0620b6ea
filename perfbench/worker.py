"""Runs one dasopt benchmark workload in this process and reports raw results.

Started by run.py, which pins the environment first; not meant to be run by
hand. The last line of standard output is one JSON object with the
per-iteration wall times, the output check, peak memory and, for a traced
run, the per-layer metrics. With --probe the process only imports dasopt,
builds the workload and prints the monotonic clock at which it was ready.
"""

from __future__ import annotations

import argparse
import functools
import glob
import json
import math
import os
import resource
import shutil
import sys
import time
from dataclasses import dataclass

import numpy as np

from tracer import Tracer, has_ancestor, tag_replicas

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# A timed run repeats its workload at least this often, so its wall time is
# a median of at least three samples.
MIN_ITERATIONS = 3
# ROADMAP equivalence tolerance, which bounds the tracking-mass invariant.
MASS_TOL = 1e-12

LS_REPLICAS = 4
CLS_ROUNDS = 800


def import_dasopt():
    """Import dasopt from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "dasopt", "__init__.py")):
        raise SystemExit(f"dasopt sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import dasopt
    if os.path.dirname(os.path.dirname(os.path.abspath(dasopt.__file__))) != SRC:
        raise SystemExit(f"imported dasopt from {dasopt.__file__}, expected {SRC}")
    return dasopt


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Output check of one iteration."""

    attempted: int
    failed: int
    events: int
    problems: list
    fingerprint: str
    diverged: int = 0
    csv_rows: int = 0
    csv_bytes: int = 0


class Experiment:
    """`harness.run_experiment` on one config; an operation is a replica."""

    def __init__(self, dasopt, config, reference, rtol):
        self.harness = dasopt.harness
        self.config = config
        self.reference = reference
        self.rtol = rtol
        variants = config.get("policy_variants") or [config["policy"]]
        self.labels = [v["label"] for v in variants]
        self.replicas = int(config.get("replicas", 1))

    def run(self, out_dir):
        return self.harness.run_experiment(self.config, out_dir)

    def check(self, summary, out_dir):
        problems, failed, events, diverged = [], 0, 0, 0
        for label in self.labels:
            info = summary["variants"].get(label, {"diverged": []})
            lost = {d["replica"] for d in info.get("diverged", [])}
            diverged += len(lost)
            variant_ok = True
            for key, ref in self.reference.get(label, {}).items():
                val = info.get(key, math.nan)
                if not (math.isfinite(val) and math.isclose(val, ref, rel_tol=self.rtol)):
                    variant_ok = False
                    problems.append(f"{label}.{key} = {val!r}, reference {ref!r}")
            res = info.get("max_mass_residual", math.nan)
            if not res <= MASS_TOL:
                variant_ok = False
                problems.append(f"{label}.max_mass_residual = {res!r} > {MASS_TOL}")
            for r in range(self.replicas):
                path = os.path.join(out_dir, f"{label}_replica_{r:03d}.csv")
                ok = variant_ok and r not in lost and os.path.isfile(path)
                if r in lost:
                    problems.append(f"{label} replica {r} diverged")
                if os.path.isfile(path):
                    with open(path) as fh:
                        cols = fh.readline().strip().split(",")
                    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                    events += int(data[-1, cols.index("k")]) + 1
                    mf = data[:, cols.index("MF")]
                    mass = data[:, cols.index("mass_residual")]
                    if not (np.all(np.isfinite(mf)) and np.all(mass <= MASS_TOL)):
                        ok = False
                        problems.append(f"{label} replica {r}: non-finite MF or "
                                        f"mass residual above {MASS_TOL}")
                failed += not ok
        rows = nbytes = 0
        for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
            with open(path, "rb") as fh:
                rows += fh.read().count(b"\n") - 1
            nbytes += os.path.getsize(path)
        return Outcome(len(self.labels) * self.replicas, failed, events, problems,
                       json.dumps(summary, sort_keys=True), diverged, rows, nbytes)


class VerifySuite:
    """`harness.verify_suite("small")`; an operation is one check.

    The suite fixes its own seeds. Its events are the steps of the two
    event-driven machines (`pushsum.step`, `engine.step`), counted by a
    wrapper that only increments an integer.
    """

    labels = []
    replicas = 0

    def __init__(self, dasopt):
        self.harness = dasopt.harness
        self.steps = [0]
        for module in (dasopt.pushsum, dasopt.engine):
            fn = getattr(module, "step", None)
            if fn is not None:
                setattr(module, "step", self._counted(fn))

    def _counted(self, fn):
        steps = self.steps

        @functools.wraps(fn)
        def step(*args, **kwargs):
            steps[0] += 1
            return fn(*args, **kwargs)

        return step

    def run(self, out_dir):
        self.steps[0] = 0
        return self.harness.verify_suite("small")

    def check(self, results, out_dir):
        lines = [r.line() for r in results]
        problems = [ln for r, ln in zip(results, lines) if not r.passed]
        failed = len(problems)
        if self.steps[0] == 0:
            problems.append("no pushsum.step or engine.step call was counted")
        return Outcome(len(results), failed, self.steps[0], problems, "\n".join(lines))


def ls_paper_config(harness, seed):
    """The ls-paper preset (criterion 5b) with 4 instead of 100 replicas."""
    return harness.merge_config(harness.preset("ls-paper"),
                                {"replicas": LS_REPLICAS, "master_seed": seed})


def cls_lossy_config(seed):
    """One replica of robust classification over a lossy, delayed channel,
    recording at every event."""
    return {
        "name": "cls-lossy",
        "kind": "optimize",
        "objective": {"family": "robust-classification", "I": 10,
                      "samples_per_agent": 12, "n_features": 13, "lam_reg": 0.05},
        "graph": {"I": 10, "extra_out_degree": 2},
        "activation": {"model": "random-rounds", "T_max": 20, "rounds": CLS_ROUNDS},
        "delay": {"kind": "traveling-time-with-loss", "D_tv": 8,
                  "loss_rate": 0.2, "D_ls": 3},
        "policy": {"label": "constant", "kind": "constant", "gamma": 1.6},
        "replicas": 1,
        "master_seed": seed,
        "metrics_stride": 1,
        "x0": "zeros",
    }


WORKLOADS = ("ls-paper", "cls-lossy", "verify-small")


def make_workload(dasopt, name, seed):
    if name == "verify-small":
        return VerifySuite(dasopt)
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    if name == "ls-paper":
        config = ls_paper_config(dasopt.harness, seed)
    else:
        config = cls_lossy_config(seed)
    values = reference["values"][name] if seed == reference["seed"] else {}
    return Experiment(dasopt, config, values, reference["rtol"])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "engine.step.calls": "count",
    "engine.step.self_s": "s",
    "engine.run.self_s": "s",
    "engine.tracking_mass_residual.self_s": "s",
    "engine.diverged": "count",
    "objectives.build.s": "s",
    "objectives.build.calls": "count",
    "objectives.grad_i.calls": "count",
    "objectives.grad_i.self_s": "s",
    "objectives.grad_i.useful_ratio": "ratio",
    "metrics.merit_MF.calls": "count",
    "metrics.merit_MF.self_s": "s",
    "metrics.merit_Msc.self_s": "s",
    "schedule.activations.s": "s",
    "schedule.assign_delays.calls": "count",
    "schedule.assign_delays.s": "s",
    "schedule.events": "count",
    "schedule.lost_packets": "count",
    "schedule.certified_D.max": "events",
    "graph.build.s": "s",
    "pushsum.step.calls": "count",
    "pushsum.step.self_s": "s",
    "pushsum.total_mass.self_s": "s",
    "augmented.step_augmented.self_s": "s",
    "augmented.transition_matrix.self_s": "s",
    "augmented.check_equivalence.calls": "count",
    "augmented.check_equivalence.self_s": "s",
    "harness.run_experiment.self_s": "s",
    "harness.verify_suite.self_s": "s",
    "harness.csv_rows": "count",
    "harness.csv_bytes": "B",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly between two traced runs of one seed.
DETERMINISTIC = [m for m in PER_LAYER if m.endswith(".calls")] + [
    "schedule.events", "schedule.lost_packets", "harness.csv_rows", "harness.csv_bytes"]

# Span-name groups: a group's time is that of its outermost spans.
GROUPS = {
    "objectives.build": lambda s: s.startswith("objectives.")
    and s not in ("objectives.grad_i", "objectives.grad"),
    "graph.build": lambda s: s.startswith("graph."),
    "schedule.activations": lambda s: s.startswith("schedule.")
    and s != "schedule.assign_delays",
}


def layer_metrics(tracer, spans, outcome):
    """Per-layer metrics of one traced iteration; absent ones are left out."""
    names, hooked = tracer.names, tracer.hooked
    nid, parent = spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    has_parent = parent >= 0
    self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                               minlength=nid.size)
    calls = np.bincount(nid, minlength=len(names))
    self_s = np.bincount(nid, weights=self_t, minlength=len(names))
    total_s = np.bincount(nid, weights=dur, minlength=len(names))

    def span_id(name):
        return names.index(name) if name in hooked else None

    out = {}
    for metric in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if base in GROUPS:
            in_group = np.array([GROUPS[base](n) and n in hooked for n in names])
            if not in_group.any():
                continue
            member = in_group[nid]
            outer = member & ~np.where(has_parent, member[np.maximum(parent, 0)], False)
            out[metric] = float(dur[outer].sum()) if field == "s" else int(outer.sum())
        elif field in ("calls", "self_s") or metric == "schedule.assign_delays.s":
            i = span_id(base)
            if i is None:
                continue
            out[metric] = {"calls": int(calls[i]), "self_s": float(self_s[i]),
                           "s": float(total_s[i])}[field]
        elif metric == "objectives.grad_i.useful_ratio":
            g, st = span_id("objectives.grad_i"), span_id("engine.step")
            if g is None or st is None:
                continue
            mine = nid == g
            useful = has_ancestor(parent, nid == st)[mine].sum()
            out[metric] = float(useful / mine.sum()) if mine.any() else 0.0
        elif metric in ("schedule.events", "schedule.lost_packets", "schedule.certified_D.max"):
            if "schedule.assign_delays" in hooked:
                out[metric] = tracer.schedule_stats[metric.removeprefix("schedule.")]
        elif metric == "engine.diverged":
            out[metric] = outcome.diverged
        elif metric == "harness.csv_rows":
            out[metric] = outcome.csv_rows
        elif metric == "harness.csv_bytes":
            out[metric] = outcome.csv_bytes
    return out


def write_spans(path, tracer, recorded, workload, labels, replicas):
    """Write the spans of every traced iteration, tagged, to one .npz file."""
    parts = {}
    for it, spans in enumerate(recorded):
        variant, replica = tag_replicas(spans, tracer.names, "harness.run_experiment",
                                        labels, replicas)
        spans = dict(spans, variant=variant, replica=replica,
                     iteration=np.full(spans["name_id"].size, it, dtype=np.int8))
        for key, arr in spans.items():
            parts.setdefault(key, []).append(arr)
    arrays = {k: np.concatenate(v) for k, v in parts.items()}
    np.savez(path, names=np.array(tracer.names), workload=np.array(workload),
             variants=np.array(labels + ["summary"]), **arrays)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    dasopt = import_dasopt()
    wl = make_workload(dasopt, args.workload, args.seed)
    if args.probe:
        print(time.monotonic(), flush=True)
        return

    out_dir = os.path.join(OUT, args.workload)
    outcomes = []

    def iteration():
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        t0 = time.perf_counter()
        raw = wl.run(out_dir)
        wall = time.perf_counter() - t0
        outcomes.append(wl.check(raw, out_dir))
        return wall

    walls, per_layer, absent, problems = [], None, [], []
    if args.trace == 0:
        deadline = time.perf_counter() + args.seconds
        while len(walls) < MIN_ITERATIONS or time.perf_counter() < deadline:
            walls.append(iteration())
    else:
        walls = [iteration() for _ in range(2)]
        tracer = Tracer()
        tracer.install(dasopt)
        traced, recorded, layers = [], [], []
        for _ in range(2):
            tracer.reset()
            traced.append(iteration())
            recorded.append(tracer.spans())
            layers.append(layer_metrics(tracer, recorded[-1], outcomes[-1]))
        tracer.uninstall()
        for key in DETERMINISTIC:
            if layers[0].get(key) != layers[1].get(key):
                problems.append(f"traced count {key} differs between runs: "
                                f"{layers[0].get(key)} vs {layers[1].get(key)}")
        layers[-1]["trace.overhead_s"] = float(np.median(traced) - np.median(walls))
        per_layer = {k: {"value": layers[-1][k], "unit": unit}
                     for k, unit in PER_LAYER.items() if k in layers[-1]}
        absent = [k for k in PER_LAYER if k not in per_layer]
        os.makedirs(OUT, exist_ok=True)
        write_spans(os.path.join(OUT, f"spans-{args.workload}.npz"), tracer, recorded,
                    args.workload, wl.labels, wl.replicas)

    first = outcomes[0]
    for o in outcomes:
        problems.extend(o.problems)
    if any(o.fingerprint != first.fingerprint for o in outcomes[1:]):
        problems.append("outputs differ between repeats of the same inputs")
    if any(o.events != first.events for o in outcomes[1:]):
        problems.append("event counts differ between repeats of the same inputs")
    result = {
        "walls": walls,
        "events": first.events,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "problems": sorted(set(problems)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
        "per_layer": per_layer,
        "absent": absent,
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
