"""Experiment configuration, execution, Monte-Carlo aggregation, and reports.

A config fully determines a run: two runs from equal configs produce
byte-identical CSV outputs. Replica seeds follow the documented splitting
rule `master_seed + replica_index`, so any subset of replicas can be
regenerated independently; within a replica, component generators use fixed
offsets from the replica seed (objective +0, graph +1000003, activations
+2000003, delays +3000003).
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import augmented, engine, graph as graph_mod, metrics, objectives, pushsum, schedule

TRACE_HEADER = "k,round,Msc,MF,J,mass_residual,gamma"
CONSENSUS_HEADER = "k,active_agent,consensus_error,mass_error"

_GRAPH_SEED_OFFSET = 1000003
_ACTIVATION_SEED_OFFSET = 2000003
_DELAY_SEED_OFFSET = 3000003


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")


def _write_config(path, config):
    # the emitted config alone regenerates the run bit-exactly
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
        fh.write("\n")


def preset(name: str) -> dict:
    """Named experiment configurations; `ls-paper` mirrors the benchmark
    least-squares setup with constant, diminishing, and synchronous variants."""
    if name == "ls-paper":
        return {
            "name": "ls-paper",
            "kind": "optimize",
            "objective": {"family": "least-squares", "I": 30, "n": 200,
                          "d_i": 30, "noise_var": 0.04},
            "graph": {"I": 30, "extra_out_degree": 2},
            "activation": {"model": "cyclic-permuted", "rounds": 400},
            "delay": {"kind": "traveling-time", "D_tv": 40},
            "policy_variants": [
                {"label": "constant", "kind": "constant", "gamma": 3.5},
                {"label": "diminishing", "kind": "local-diminishing",
                 "alpha0": 3.5, "c": 0.001},
                # synchronous instance = parallel (Jacobi) execution of the
                # asynchronous map; the lockstep ratio-tracking baseline
                # ("sync") is unstable at useful steps on these sparse digraphs
                {"label": "sync", "kind": "sync-parallel", "gamma": 0.8},
            ],
            "replicas": 100,
            "master_seed": 0,
            "metrics_stride": 30,
            "x0": "zeros",
        }
    if name == "ls-desk":
        return {
            "name": "ls-desk",
            "kind": "optimize",
            "objective": {"family": "least-squares", "I": 10, "n": 20,
                          "d_i": 5, "noise_var": 0.04},
            "graph": {"I": 10, "extra_out_degree": 2},
            "activation": {"model": "cyclic-permuted", "rounds": 3000},
            "delay": {"kind": "traveling-time", "D_tv": 5},
            "policy_variants": [
                {"label": "constant", "kind": "constant", "gamma": 2.0},
            ],
            "replicas": 1,
            "master_seed": 0,
            "metrics_stride": 10,
            "x0": "zeros",
        }
    raise ValueError(f"unknown preset: {name}")


def merge_config(base: dict, override: dict) -> dict:
    """Recursive merge; `override` wins (config files override flags)."""
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], val)
        else:
            out[key] = val
    return out


def _build_objective(spec: dict, seed: int):
    family = spec["family"]
    if family == "least-squares":
        return objectives.make_least_squares(
            spec["I"], spec["n"], spec["d_i"], spec.get("noise_var", 0.04), seed)
    if family == "logistic":
        return objectives.make_logistic(
            spec["I"], spec["n"], spec["samples_per_agent"],
            spec.get("lam_reg", 0.01), seed)
    if family == "robust-classification":
        if "dataset_path" in spec:
            with open(spec["dataset_path"]) as fh:
                ds = objectives.load_classification_text(fh.read(), spec["I"])
        else:
            ds = objectives.make_synthetic_classification(
                spec["I"], spec["samples_per_agent"],
                spec.get("n_features", 13), seed,
                flip_rate=spec.get("flip_rate", 0.1))
        return objectives.make_robust_classification(ds, spec.get("lam_reg", 0.01))
    raise ValueError(f"unknown objective family: {family}")


def _x0(kind, I, n, seed):
    if kind == "zeros":
        return np.zeros((I, n))
    if kind == "normal":
        return np.random.default_rng(seed).normal(size=(I, n))
    raise ValueError(f"unknown x0 kind: {kind}")


def _policy(spec: dict):
    if spec["kind"] == "constant":
        return engine.StepSizePolicy.constant(spec["gamma"])
    if spec["kind"] == "local-diminishing":
        return engine.StepSizePolicy.local_diminishing(spec["alpha0"], spec["c"])
    raise ValueError(f"unknown policy kind: {spec['kind']}")


@dataclass
class Instance:
    """One replica's problem: objective (None without an "objective" spec),
    graph and weights, activations with their 1-based rounds, and the delay
    model that turns them into `sched`."""

    objective: objectives.Objective
    graph: graph_mod.DiGraph
    weights: graph_mod.WeightMatrices
    activations: list
    rounds: np.ndarray
    delay_model: schedule.DelayModel

    @functools.cached_property
    def sched(self) -> schedule.Schedule:
        """The activations under the delay model, built on first use: the
        synchronous variants never read it."""
        return schedule.assign_delays(self.activations, self.graph, self.delay_model)


def build_instance(config: dict, seed: int) -> Instance:
    """The instance of replica seed `seed`, each component from its own offset."""
    obj = _build_objective(config["objective"], seed) if "objective" in config else None
    spec = config["graph"]
    g = graph_mod.build_cycle_plus_random(spec["I"], spec.get("extra_out_degree", 0),
                                          seed + _GRAPH_SEED_OFFSET)
    spec, I = config["activation"], g.node_count
    model, rounds = spec.get("model", "cyclic-permuted"), spec.get("rounds", 100)
    if model == "cyclic-permuted":
        acts = schedule.gen_cyclic_permuted(I, rounds, seed + _ACTIVATION_SEED_OFFSET)
        round_of = np.repeat(np.arange(1, rounds + 1), I)
    elif model == "random-rounds":
        acts, round_of = schedule.random_rounds_with_boundaries(
            I, spec["T_max"], rounds, seed + _ACTIVATION_SEED_OFFSET)
        round_of = np.asarray(round_of)
    else:
        raise ValueError(f"unknown activation model: {model}")
    spec = config.get("delay", {})
    delay = schedule.DelayModel(
        kind=spec.get("kind", "zero"), D_tv=spec.get("D_tv", 0),
        loss_rate=spec.get("loss_rate", 0.0), D_ls=spec.get("D_ls", 1),
        seed=seed + _DELAY_SEED_OFFSET, hard_cap=spec.get("hard_cap"))
    return Instance(obj, g, graph_mod.build_uniform_weights(g), acts, round_of, delay)


def _run_replica(config: dict, variant: dict, inst: Instance, replica_seed: int):
    obj, g, w = inst.objective, inst.graph, inst.weights
    x0 = _x0(config.get("x0", "zeros"), g.node_count, obj.dimension, replica_seed)
    n_rounds = int(inst.rounds[-1])
    if variant["kind"] == "sync":
        return engine.sync_tracking_run(obj, g, w, variant["alpha"], x0, n_rounds)
    if variant["kind"] == "sync-parallel":
        jac = schedule.jacobi_rounds(g, n_rounds)
        return engine.run(obj, g, w, jac, _policy({"kind": "constant",
                                                   "gamma": variant["gamma"]}),
                          x0, metrics_stride=g.node_count)
    return engine.run(obj, g, w, inst.sched, _policy(variant), x0,
                      metrics_stride=config.get("metrics_stride", 1),
                      round_index=inst.rounds)


def aggregate_mean(traces):
    """Arithmetic mean of the metric columns on the common record grid."""
    min_len = min(len(t.k) for t in traces)
    cols = {name: np.vstack([getattr(t, name)[:min_len] for t in traces]).mean(axis=0)
            for name in ("Msc", "MF", "J", "mass_residual", "gamma")}
    cols.update(k=traces[0].k[:min_len], round=traces[0].round[:min_len])
    return cols


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def run_experiment(config: dict, output_dir: str = None) -> dict:
    """Execute every replica of every policy variant and emit CSVs + summary.

    Returns the summary dict; files land under `output_dir` (default
    config["output_dir"], else "out/<name>"). Replicas own isolated state, so
    they are trivially parallel; execution here is sequential for
    reproducible aggregate logs.
    """
    name = config.get("name", "experiment")
    out = output_dir or config.get("output_dir") or os.path.join("out", name)
    os.makedirs(out, exist_ok=True)
    _write_config(os.path.join(out, "config.json"), config)
    replicas = int(config.get("replicas", 1))
    master = int(config.get("master_seed", 0))
    variants = config.get("policy_variants")
    if variants is None:
        variants = [dict(config["policy"], label=config["policy"].get("label", "run"))]
    summary = {"name": name, "replicas": replicas, "master_seed": master,
               "variants": {}}
    theory = None
    for variant in variants:
        label = variant["label"]
        traces = []
        diverged = []
        for r in range(replicas):
            seed = master + r
            inst = build_instance(config, seed)
            if theory is None:
                theory = _theory_report(inst)
            try:
                tr = _run_replica(config, variant, inst, seed)
            except engine.DivergenceError as exc:
                diverged.append({"replica": r, "seed": seed, "error": str(exc)})
                continue
            traces.append(tr)
            _write_csv(os.path.join(out, f"{label}_replica_{r:03d}.csv"), TRACE_HEADER,
                       tr.rows())
        if not traces:
            summary["variants"][label] = {"diverged": diverged}
            continue
        cols = aggregate_mean(traces)
        _write_csv(os.path.join(out, f"{label}_mean.csv"), TRACE_HEADER, zip(*(
            cols[c] for c in ("k", "round", "Msc", "MF", "J", "mass_residual", "gamma"))))
        series = cols["J"] if np.all(np.isfinite(cols["J"])) else cols["MF"]
        ks, vals = _positive_tail(cols["k"], series)
        fit = metrics.fit_linear_rate(ks, vals) if ks.size >= 2 else (np.nan, np.nan)
        summary["variants"][label] = {
            "final_J": float(cols["J"][-1]),
            "final_MF": float(cols["MF"][-1]),
            "final_Msc": float(cols["Msc"][-1]),
            "max_mass_residual": float(np.max(cols["mass_residual"])),
            "rate_slope": float(fit[0]),
            "rate_r2": float(fit[1]),
            "diverged": diverged,
        }
    if theory is None:
        theory = _theory_report(build_instance(config, master))
    _write_summary(os.path.join(out, "summary.txt"), summary, theory)
    return summary


def _positive_tail(ks, vals, fraction=0.5, floor=1e-13):
    """Final-`fraction` segment of a trace, truncated at the numeric floor."""
    vals = np.asarray(vals, dtype=float)
    ks = np.asarray(ks, dtype=float)
    ok = np.isfinite(vals) & (vals > floor)
    ks, vals = ks[ok], vals[ok]
    start = int(len(vals) * (1.0 - fraction))
    return ks[start:], vals[start:]


def _theory_report(inst: Instance) -> str:
    """Theory constants for an instance, when representable."""
    try:
        obj, g, sched = inst.objective, inst.graph, inst.sched
        tc = metrics.theory_constants(
            inst.weights.m_bar, g.node_count, len(g.edge_list),
            sched.certified_T, sched.certified_D,
            obj.C_L, obj.L, obj.tau if obj.tau > 0 else 1e-12)
        return tc.report()
    except ValueError as exc:
        return f"theory constants unavailable: {exc}"


def _write_summary(path, summary, theory):
    lines = [f"experiment = {summary['name']}",
             f"replicas = {summary['replicas']}",
             f"master_seed = {summary['master_seed']}"]
    for label in sorted(summary["variants"]):
        info = summary["variants"][label]
        lines.append(f"[{label}]")
        for key in sorted(info):
            if key == "diverged":
                lines.append(f"{label}.diverged = {len(info[key])}")
            else:
                lines.append(f"{label}.{key} = {_fmt(info[key])}")
    lines.append("[theory]")
    lines.append(theory)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# consensus / tracking runs
# ---------------------------------------------------------------------------

def run_consensus_experiment(config: dict, output_dir: str = None) -> dict:
    """Average-consensus (or signal-tracking) run with a CSV trace per replica."""
    name = config.get("name", "consensus")
    out = output_dir or config.get("output_dir") or os.path.join("out", name)
    os.makedirs(out, exist_ok=True)
    _write_config(os.path.join(out, "config.json"), config)
    replicas = int(config.get("replicas", 1))
    master = int(config.get("master_seed", 0))
    finals = []
    for r in range(replicas):
        seed = master + r
        inst = build_instance(config, seed)
        g, w, sched = inst.graph, inst.weights, inst.sched
        rng = np.random.default_rng(seed)
        n = int(config.get("dimension", 1))
        if config.get("kind") == "track":
            c = rng.normal(size=(g.node_count, n))
            rr = rng.normal(size=(g.node_count, n))
            trace = pushsum.run_tracking(g, w, sched, lambda k: c + rr / (k + 1.0))
        else:
            z0 = rng.normal(size=(g.node_count, n))
            trace = pushsum.run_consensus(g, w, sched, z0)
        _write_csv(os.path.join(out, f"replica_{r:03d}.csv"), CONSENSUS_HEADER,
                   zip(trace.k, trace.active, trace.consensus_error, trace.mass_error))
        finals.append(float(trace.consensus_error[-1]))
    summary = {"name": name, "replicas": replicas,
               "final_errors": finals, "max_final_error": max(finals)}
    with open(os.path.join(out, "summary.txt"), "w") as fh:
        fh.write(f"experiment = {name}\nreplicas = {replicas}\n"
                 f"max_final_error = {_fmt(max(finals))}\n")
    return summary


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}: {self.detail}"


def verify_suite(scale: str = "small") -> list:
    """Invariant battery: oracle equivalence, mass conservation, matrix
    stochasticity, scrambling bounds, consensus decay, Jacobi equivalence.

    Returns a list of CheckResult; a failure names the offending seed and
    iteration.
    """
    if scale == "small":
        sizes, depths, steps, seeds = (3, 5, 6), (0, 2, 4), 1000, range(20)
    elif scale == "full":
        sizes, depths, steps, seeds = (3, 4, 5, 6, 8), (0, 1, 2, 3, 4, 5), 2000, range(30)
    else:
        raise ValueError("scale must be 'small' or 'full'")
    return [
        _check_equivalence_and_mass(sizes, depths, steps, seeds),
        _check_stochasticity(sizes, depths, seeds),
        _check_scrambling(seeds),
        _check_consensus_decay(scale),
        _check_jacobi(),
    ]


def _worst_at(name, where):
    return f" ({name} worst at I={where[0]} D={where[1]} seed={where[2]} k={where[3]})"


def _worse(value, worst) -> bool:
    """Whether `value` replaces `worst` as the largest seen: the first NaN or
    inf becomes the worst and stays it, so no check passes over one."""
    return not value <= worst and worst < np.inf


def _check_equivalence_and_mass(sizes, depths, steps, seeds):
    worst_eq, worst_mass, where_eq, where_mass = 0.0, 0.0, None, None
    for I in sizes:
        for D in depths:
            for s in seeds:
                g = graph_mod.build_cycle_plus_random(I, 1, seed=s)
                w = graph_mod.build_uniform_weights(g)
                acts = schedule.gen_cyclic_permuted(I, steps // I + 1, seed=s + 1)
                sched = schedule.gen_uniform_event_delays(acts, g, D, seed=s + 2)
                rng = np.random.default_rng(s + 3)
                z0 = rng.normal(size=(I, 1))
                st = pushsum.init(g, w, z0, sched.certified_D)
                aug = augmented.init_augmented(g, z0, sched.certified_D)
                expected = z0.sum(axis=0)
                for ev in sched.events[:steps]:
                    eps = 0.05 * rng.normal(size=1)
                    pushsum.step(st, ev, eps)
                    augmented.step_augmented(aug, ev, w, eps)
                    expected = expected + eps
                    rep = augmented.check_equivalence(st, aug)
                    mass = float(np.linalg.norm(pushsum.total_mass(st) - expected)
                                 / (1.0 + np.linalg.norm(expected)))
                    if _worse(rep.max_diff, worst_eq):
                        worst_eq, where_eq = rep.max_diff, (I, D, s, ev.k)
                    if _worse(mass, worst_mass):
                        worst_mass, where_mass = mass, (I, D, s, ev.k)
    ok_eq, ok_mass = worst_eq <= 1e-12, worst_mass <= 1e-10
    return CheckResult(
        "oracle-equivalence+mass-conservation", ok_eq and ok_mass,
        f"max equivalence diff {worst_eq:.2e}, max mass residual {worst_mass:.2e}"
        + ("" if ok_eq else _worst_at("equivalence", where_eq))
        + ("" if ok_mass else _worst_at("mass residual", where_mass)))


def _check_stochasticity(sizes, depths, seeds):
    worst_col, worst_row, where_col, where_row = 0.0, 0.0, None, None
    for I in sizes:
        for D in depths:
            for s in list(seeds)[:5]:
                g = graph_mod.build_cycle_plus_random(I, 1, seed=s)
                w = graph_mod.build_uniform_weights(g)
                acts = schedule.gen_cyclic_permuted(I, 10, seed=s)
                sched = schedule.gen_uniform_event_delays(acts, g, D, seed=s + 1)
                aug = augmented.init_augmented(g, np.zeros((I, 1)), D)
                tau = {e: -D for e in g.edge_list}
                for ev in sched.events:
                    M = augmented.transition_matrix(aug, ev, w)
                    col = float(np.max(np.abs(M.sum(axis=0) - 1.0)))
                    eff = augmented.purge(tau, ev)
                    Wh = augmented.build_consensus_matrix(g, w, ev, eff, D)
                    row = float(np.max(np.abs(Wh.sum(axis=1) - 1.0)))
                    if _worse(col, worst_col):
                        worst_col, where_col = col, (I, D, s, ev.k)
                    if _worse(row, worst_row):
                        worst_row, where_row = row, (I, D, s, ev.k)
    ok_col, ok_row = worst_col <= 1e-12, worst_row <= 1e-12
    return CheckResult(
        "transition-stochasticity", ok_col and ok_row,
        f"max column gap {worst_col:.2e}, max row gap {worst_row:.2e}"
        + ("" if ok_col else _worst_at("column gap", where_col))
        + ("" if ok_row else _worst_at("row gap", where_row)))


def _check_scrambling(seeds):
    failures = []
    worst_margin = np.inf
    for I in (2, 3, 4):
        for s in list(seeds)[:4]:
            g = graph_mod.build_cycle_plus_random(I, 0, seed=s)
            w = graph_mod.build_uniform_weights(g)
            acts = schedule.gen_cyclic_permuted(I, 40 * I, seed=s + 1)
            sched = schedule.gen_uniform_event_delays(acts, g, min(2, I - 1), seed=s + 2)
            K1 = (2 * I - 1) * sched.certified_T + I * sched.certified_D
            step_by = max(1, (sched.horizon - K1) // 3)
            for start in range(0, sched.horizon - K1, step_by):
                lo, bound = augmented.scrambling_lower_bound(g, w, sched, start)
                worst_margin = min(worst_margin, lo - bound)
                if not lo >= bound:
                    failures.append(f"I={I} seed={s} start={start}: {lo:.3e} < {bound:.3e}")
    ok = not failures
    return CheckResult("scrambling-lower-bound", ok,
                       f"min margin {worst_margin:.3e}" if ok else "; ".join(failures[:3]))


def _check_consensus_decay(scale):
    g = graph_mod.build_cycle_plus_random(5, 1, seed=0)
    w = graph_mod.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(5, 1200 if scale == "small" else 3000, seed=1)
    sched = schedule.assign_delays(
        acts, g, schedule.DelayModel(kind="traveling-time", D_tv=6, seed=2))
    z0 = np.random.default_rng(3).normal(size=(5, 1))
    tr = pushsum.run_consensus(g, w, sched, z0)
    ks, vals = _positive_tail(tr.k, tr.consensus_error)
    slope, r2 = metrics.fit_linear_rate(ks, vals)
    ok = tr.consensus_error[-1] <= 1e-8 and slope < 0
    return CheckResult("consensus-geometric-decay", ok,
                       f"final {tr.consensus_error[-1]:.2e}, slope {slope:.2e}, R2 {r2:.3f}")


def _check_jacobi():
    g = graph_mod.build_cycle_plus_random(5, 1, seed=7)
    w = graph_mod.build_uniform_weights(g)
    obj = objectives.make_least_squares(5, 6, 3, 0.04, seed=7)
    sched = schedule.jacobi_rounds(g, 40, seed=11)
    xs, zs = engine.run_parallel_rounds(obj, g, w, 0.3, np.zeros((5, 6)), 40)
    pol = engine.StepSizePolicy.constant(0.3)
    st = engine.init(obj, g, w, np.zeros((5, 6)), sched.certified_D, pol)
    worst, where = 0.0, None
    for ev in sched.events:
        engine.step(st, ev, pol)
        if (ev.k + 1) % 5 == 0:
            r = (ev.k + 1) // 5
            for diff in (float(np.max(np.abs(st.x - xs[r]))), float(np.max(np.abs(st.z - zs[r])))):
                if _worse(diff, worst):
                    worst, where = diff, r
    ok = worst <= 1e-12
    return CheckResult("jacobi-parallel-equivalence", ok, f"max per-round diff {worst:.2e}"
                       + ("" if ok else f" (worst at round {where})"))
