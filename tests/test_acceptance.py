"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 5 includes the full-scale benchmark reproduction (100 averaged
replicas); everything else runs at desk scale.
"""

import time

import numpy as np
import pytest

from dasopt import augmented, engine, graph, harness, metrics, objectives, pushsum, schedule

from oracles import companion_spectral_radius


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. total-mass conservation under arbitrary bounded-delay schedules
# ---------------------------------------------------------------------------

def test_criterion_01_mass_conservation():
    t0 = time.time()
    worst = 0.0
    for I in (3, 5, 8):
        for D in (0, 2, 5):
            for s in range(20):
                g = graph.build_cycle_plus_random(I, 1, seed=s)
                w = graph.build_uniform_weights(g)
                acts = schedule.gen_cyclic_permuted(I, 5000 // I + 1, seed=s + 1)
                sched = schedule.gen_uniform_event_delays(acts, g, D, seed=s + 2)
                rng = np.random.default_rng(s + 3)
                z0 = rng.normal(size=(I, 1))
                st = pushsum.init(g, w, z0, sched.certified_D)
                expected = float(z0.sum())
                for ev in sched.events[:5000]:
                    eps = float(rng.normal())
                    pushsum.step(st, ev, np.array([eps]))
                    expected += eps
                    dev = abs(float(pushsum.total_mass(st)[0]) - expected) \
                        / (1.0 + abs(expected))
                    if harness._worse(dev, worst):
                        worst = dev
    elapsed = time.time() - t0
    report("criterion 1 (mass conservation)",
           worst <= 1e-10 and elapsed < 60,
           f"max relative deviation {worst:.2e} over 180 runs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. engine vs augmented-graph oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for I in (2, 3, 4, 5, 6):
        for D in (0, 1, 2, 3, 4):
            for s in range(10):
                g = graph.build_cycle_plus_random(I, min(1, I - 2), seed=s)
                w = graph.build_uniform_weights(g)
                acts = schedule.gen_cyclic_permuted(I, 1000 // I + 1, seed=s + 1)
                sched = schedule.gen_uniform_event_delays(acts, g, D, seed=s + 2)
                rng = np.random.default_rng(s + 3)
                z0 = rng.normal(size=(I, 1))
                st = pushsum.init(g, w, z0, sched.certified_D)
                aug = augmented.init_augmented(g, z0, sched.certified_D)
                for ev in sched.events[:1000]:
                    eps = 0.1 * rng.normal(size=1)
                    pushsum.step(st, ev, eps)
                    augmented.step_augmented(aug, ev, w, eps)
                    diff = augmented.check_equivalence(st, aug).max_diff
                    if harness._worse(diff, worst):
                        worst = diff
    elapsed = time.time() - t0
    report("criterion 2 (delay-free oracle equivalence)",
           worst <= 1e-12 and elapsed < 120,
           f"max abs difference {worst:.2e} over 250 runs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. asynchronous average consensus with packet losses
# ---------------------------------------------------------------------------

def test_criterion_03_async_consensus_with_losses():
    g = graph.build_cycle_plus_random(10, 2, seed=0)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_random_rounds(10, 15, 800, seed=1)
    model = schedule.DelayModel(kind="traveling-time-with-loss", D_tv=5,
                                loss_rate=0.25, D_ls=2, seed=2)
    sched = schedule.assign_delays(acts, g, model)
    assert len(sched.lost_packets) > 0
    z0 = np.random.default_rng(3).normal(size=(10, 1))
    tr = pushsum.run_consensus(g, w, sched, z0)
    horizon = min(10_000, sched.horizon)
    err = tr.consensus_error[:horizon]
    final = float(err[-1])
    keep = np.nonzero(err > 1e-13)[0]
    tail = keep[len(keep) // 2:]
    slope, r2 = metrics.fit_linear_rate(tail, err[tail])
    report("criterion 3 (asynchronous consensus with losses)",
           final <= 1e-8 and slope < 0 and r2 >= 0.99,
           f"final error {final:.2e} at k={horizon}, slope {slope:.2e}, R2 {r2:.4f}")


# ---------------------------------------------------------------------------
# 4. scrambling lower bound on window products
# ---------------------------------------------------------------------------

def test_criterion_04_scrambling_bound():
    t0 = time.time()
    tested = 0
    worst_margin = np.inf
    ok = True
    for I in (2, 3, 4):
        for s in range(3):
            g = graph.build_cycle_plus_random(I, 0, seed=s)
            w = graph.build_uniform_weights(g)
            acts = schedule.gen_cyclic_permuted(I, 80 * I, seed=s + 1)
            sched = schedule.gen_uniform_event_delays(acts, g, min(2, I - 1), seed=s + 2)
            K1 = (2 * I - 1) * sched.certified_T + I * sched.certified_D
            starts = np.linspace(0, sched.horizon - K1 - 1, 12, dtype=int)
            for start in starts:
                lo, bound = augmented.scrambling_lower_bound(g, w, sched, int(start))
                worst_margin = min(worst_margin, lo - bound)
                ok = ok and lo >= bound
                tested += 1
    elapsed = time.time() - t0
    report("criterion 4 (scrambling lower bound)",
           ok and tested >= 100 and elapsed < 60,
           f"{tested} windows, min margin {worst_margin:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. linear convergence: desk scale, then the full benchmark reproduction
# ---------------------------------------------------------------------------

def test_criterion_05a_linear_convergence_desk():
    obj = objectives.make_least_squares(10, 20, 5, 0.04, seed=21)
    g = graph.build_cycle_plus_random(10, 2, seed=4)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(10, 4000, seed=13)
    sched = schedule.assign_delays(
        acts, g, schedule.DelayModel(kind="traveling-time", D_tv=5, seed=17))
    assert sched.certified_D <= 40
    tr = engine.run(obj, g, w, sched, engine.StepSizePolicy.constant(2.0),
                    np.zeros((10, 20)), metrics_stride=10)
    hit = np.nonzero(tr.Msc <= 1e-6)[0]
    hit_k = int(tr.k[hit[0]]) if hit.size else None
    keep = tr.Msc > 1e-11
    ks, vals = tr.k[keep], tr.Msc[keep]
    slope, r2 = metrics.fit_linear_rate(ks[len(ks) // 2:], vals[len(vals) // 2:])
    report("criterion 5a (desk-scale linear convergence)",
           hit_k is not None and hit_k <= 200_000 and slope < 0 and r2 >= 0.99,
           f"Msc<=1e-6 at k={hit_k}, tail slope {slope:.2e}, R2 {r2:.4f}")


def test_criterion_05b_full_benchmark_reproduction(tmp_path):
    t0 = time.time()
    cfg = harness.merge_config(harness.preset("ls-paper"), {
        "policy_variants": [{"label": "constant", "kind": "constant", "gamma": 3.5}],
        "output_dir": str(tmp_path / "lsp"),
    })
    summary = harness.run_experiment(cfg)
    info = summary["variants"]["constant"]
    assert not info["diverged"]
    rows = open(tmp_path / "lsp" / "constant_mean.csv").read().strip().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    ks, J = data[:, 0], data[:, 4]
    keep = J > 1e-13
    tail_k, tail_J = harness._positive_tail(ks[keep], J[keep])
    slope, r2 = metrics.fit_linear_rate(tail_k, tail_J)
    monotone = bool(np.all(np.diff(J[keep]) <= J[keep][:-1] * 1e-3))
    elapsed = time.time() - t0
    report("criterion 5b (full-scale benchmark, 100 replicas)",
           slope < 0 and r2 >= 0.99 and monotone and elapsed < 1800,
           f"mean-J slope {slope:.2e}, R2 {r2:.4f}, monotone {monotone}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 6. sublinear first-passage behavior on the nonconvex classifier
# ---------------------------------------------------------------------------

def test_criterion_06_nonconvex_first_passage():
    ds = objectives.make_synthetic_classification(10, 12, 13, seed=5)
    obj = objectives.make_robust_classification(ds, 0.05)
    g = graph.build_cycle_plus_random(10, 2, seed=14)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_random_rounds(10, 20, 1600, seed=31)
    sched = schedule.assign_delays(
        acts, g, schedule.DelayModel(kind="traveling-time", D_tv=8, seed=7))
    rng = np.random.default_rng(3)
    x0 = np.tile(rng.normal(size=14) * 2.0, (10, 1)) + rng.normal(size=(10, 14)) * 0.5
    tr = engine.run(obj, g, w, sched, engine.StepSizePolicy.constant(1.6), x0,
                    metrics_stride=1)
    mf = tr.MF

    def first_passage(delta):
        idx = np.argmax(mf <= delta)
        return int(tr.k[idx]) if mf[idx] <= delta else None

    T1, T2, T3 = first_passage(1e-1), first_passage(1e-2), first_passage(1e-3)
    ok = (T1 is not None and T2 is not None and T3 is not None
          and T1 >= 1 and T2 <= 15 * T1 and T3 <= 15 * T2
          and float(mf[-1]) <= 1e-3)
    report("criterion 6 (nonconvex sublinear first passage)", ok,
           f"T(1e-1)={T1}, T(1e-2)={T2}, T(1e-3)={T3}, final MF {mf[-1]:.2e}")


# ---------------------------------------------------------------------------
# 7. uncoordinated diminishing step sizes
# ---------------------------------------------------------------------------

def test_criterion_07_uncoordinated_diminishing_steps():
    obj = objectives.make_least_squares(10, 20, 5, 0.04, seed=21)
    g = graph.build_cycle_plus_random(10, 2, seed=4)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(10, 5000, seed=13)
    sched = schedule.assign_delays(
        acts, g, schedule.DelayModel(kind="traveling-time", D_tv=5, seed=17))
    pol = engine.StepSizePolicy.local_diminishing(3.5, 0.001)
    tr = engine.run(obj, g, w, sched, pol, np.zeros((10, 20)), metrics_stride=50)
    gam = engine.induced_global_steps(sched, pol)
    per_agent = {}
    for ev, v in zip(sched.events, gam):
        per_agent.setdefault(ev.agent, []).append(v)
    decreasing = all(np.all(np.diff(seq) < 0) for seq in per_agent.values())
    toward_zero = all(seq[-1] < 0.3 * seq[0] for seq in per_agent.values())
    sums = np.cumsum(gam)
    # harmonic-like decay: the second half must still add a sizable fraction
    growing = sums[-1] > 1.2 * sums[len(sums) // 2]
    ok = float(tr.MF[-1]) <= 1e-4 and decreasing and toward_zero and growing
    report("criterion 7 (uncoordinated diminishing steps)", ok,
           f"final MF {tr.MF[-1]:.2e}, per-agent steps decreasing={decreasing}, "
           f"partial sums growing={growing}")


# ---------------------------------------------------------------------------
# 8. signal-average tracking
# ---------------------------------------------------------------------------

def test_criterion_08_signal_tracking():
    g = graph.build_cycle_plus_random(5, 1, seed=2)
    w = graph.build_uniform_weights(g)
    rng = np.random.default_rng(3)
    c = rng.normal(size=(5, 2))
    r = rng.normal(size=(5, 2))
    acts = schedule.gen_cyclic_permuted(5, 700, seed=8)
    sched = schedule.assign_delays(
        acts, g, schedule.DelayModel(kind="traveling-time", D_tv=4, seed=5))
    tr = pushsum.run_tracking(g, w, sched, lambda k: c + r / (k + 1.0))
    final = float(tr.consensus_error[-1])
    mass = float(np.max(tr.mass_error))
    report("criterion 8 (signal-average tracking)",
           final <= 1e-4 and mass <= 1e-12,
           f"final tracking error {final:.2e}, max held-mass gap {mass:.2e}")


# ---------------------------------------------------------------------------
# 9. theory-constants self-consistency
# ---------------------------------------------------------------------------

def test_criterion_09_theory_constants():
    worst_boundary = 0.0
    ok = True
    for args in [(0.5, 2, 2, 2, 0, 1.0, 2.0, 0.5),
                 (0.25, 3, 3, 3, 1, 2.0, 6.0, 1.45),
                 (0.5, 4, 8, 4, 0, 2.0, 8.0, 0.8),
                 (0.9, 1, 0, 1, 0, 1.0, 1.0, 1.0)]:
        tc = metrics.theory_constants(*args)
        gap = abs(metrics.stability_bound(tc, 1.0, tc.gamma_bar1) - 1.0)
        if harness._worse(gap, worst_boundary):
            worst_boundary = gap
        ok = ok and gap <= 1e-9 and tc.gamma_bar1 < 1.0 / tc.L
    rng = np.random.default_rng(7)
    agreements = 0
    comparisons = 0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        a = rng.uniform(0, 2.0 / m, size=m)
        if abs(1.0 - a.sum()) < 1e-9:
            continue
        comparisons += 1
        if metrics.polynomial_stability(a) == (companion_spectral_radius(a) < 1.0):
            agreements += 1
    ok = ok and agreements == comparisons
    report("criterion 9 (theory constants self-consistency)", ok,
           f"max boundary gap {worst_boundary:.2e}, eigenvalue agreement "
           f"{agreements}/{comparisons}")


# ---------------------------------------------------------------------------
# 10. degenerate-network identities
# ---------------------------------------------------------------------------

def test_criterion_10_degenerate_identities():
    obj = objectives.least_squares_objective([np.eye(3)], [np.array([1.0, -2.0, 0.5])])
    g1 = graph.DiGraph(1, frozenset())
    w1 = graph.WeightMatrices(W=np.ones((1, 1)), A=np.ones((1, 1)), m_bar=1.0)
    sched1 = schedule.assign_delays([0] * 1000, g1, schedule.DelayModel(kind="zero"))
    st = engine.init(obj, g1, w1, np.array([[4.0, 4.0, 4.0]]), 0,
                     engine.StepSizePolicy.constant(0.3))
    pol = engine.StepSizePolicy.constant(0.3)
    x_ref = np.array([4.0, 4.0, 4.0])
    worst_gd = 0.0
    for ev in sched1.events:
        engine.step(st, ev, pol)
        x_ref = x_ref - 0.3 * obj.grad(x_ref)
        gap = float(np.max(np.abs(st.x[0] - x_ref)))
        if harness._worse(gap, worst_gd):
            worst_gd = gap

    obj2 = objectives.make_least_squares(6, 8, 4, 0.04, seed=11)
    g2 = graph.build_cycle_plus_random(6, 1, seed=12)
    w2 = graph.build_uniform_weights(g2)
    xs_ref, zs_ref = engine.run_parallel_rounds(obj2, g2, w2, 0.3,
                                                np.zeros((6, 8)), 60)
    sched2 = schedule.jacobi_rounds(g2, 60, seed=9)
    st2 = engine.init(obj2, g2, w2, np.zeros((6, 8)), sched2.certified_D)
    worst_jacobi = 0.0
    for ev in sched2.events:
        engine.step(st2, ev, pol)
        if (ev.k + 1) % 6 == 0:
            rnd = (ev.k + 1) // 6
            for gap in (float(np.max(np.abs(st2.x - xs_ref[rnd]))),
                        float(np.max(np.abs(st2.z - zs_ref[rnd])))):
                if harness._worse(gap, worst_jacobi):
                    worst_jacobi = gap
    report("criterion 10 (degenerate-network identities)",
           worst_gd <= 1e-12 and worst_jacobi <= 1e-12,
           f"centralized-GD gap {worst_gd:.2e}, parallel-round gap {worst_jacobi:.2e}")
