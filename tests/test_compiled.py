"""Compiled schedules and the batched engine.

The compiled reads are checked against a direct replay of the purge rule,
the batches against their independence contract, and the batched `run`
against event-by-event `step` on random instances.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from dasopt import engine, graph, metrics, objectives, schedule


def small_instance(I=6, n=5, seed=3, extra=1):
    obj = objectives.make_least_squares(I, n, 3, 0.04, seed)
    g = graph.build_cycle_plus_random(I, extra, seed=seed + 1)
    return obj, g, graph.build_uniform_weights(g)


def with_v_delays(sched, max_delay, seed):
    rng = np.random.default_rng(seed)
    return schedule._certify(tuple(
        schedule.Event(k=ev.k, agent=ev.agent, delays=ev.delays,
                       v_delays={j: int(rng.integers(0, min(max_delay, ev.k) + 1))
                                 for j in ev.delays})
        for ev in sched.events), sched.n_agents, sched.lost_packets)


def replay_counts(sched, g, stream):
    """Per event and in-edge: the sender's activation count at the purged
    index, by running tau = max(tau, k - d) and counting activations."""
    tau = {e: -sched.certified_D for e in g.edge_list}
    seen = []
    out = []
    for ev in sched.events:
        delays = getattr(ev, stream) or ev.delays
        for j in g.in_neighbors(ev.agent):
            e = (j, ev.agent)
            tau[e] = max(tau[e], ev.k - delays[j])
            out.append(sum(1 for a in seen[:max(tau[e], 0)] if a == j))
        seen.append(ev.agent)
    return np.array(out)


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------

def test_compile_resolves_the_purge_rule_to_sender_counts():
    _, g, _ = small_instance()
    acts = schedule.gen_random_rounds(6, 10, 30, seed=4)
    sched = with_v_delays(schedule.gen_uniform_event_delays(acts, g, 7, seed=5), 4, 6)
    cs = schedule.compile(sched, g, couple_delays=False)
    assert np.array_equal(cs.agent, acts)
    assert np.array_equal(cs.count, [acts[:k].count(a) for k, a in enumerate(acts)])
    senders = [j for a in acts for j in g.in_neighbors(a)]
    assert np.array_equal(cs.sender, senders)
    edges = [g.edge_list.index((j, a)) for a in acts for j in g.in_neighbors(a)]
    assert np.array_equal(cs.edge, edges)
    assert np.array_equal(cs.indptr, np.cumsum([0] + [g.in_degree(a) for a in acts]))
    assert np.array_equal(cs.consumed, replay_counts(sched, g, "delays"))
    assert np.array_equal(cs.consumed_v, replay_counts(sched, g, "v_delays"))
    coupled = schedule.compile(sched, g)
    assert coupled.consumed_v is coupled.consumed
    assert np.array_equal(coupled.consumed, cs.consumed)
    now = np.array([acts[:k].count(j) for k, a in enumerate(acts) for j in g.in_neighbors(a)])
    lag = max(np.max(now - cs.consumed), np.max(now - cs.consumed_v))
    assert cs.depth == lag + 2
    for arr in (cs.agent, cs.count, cs.indptr, cs.sender, cs.edge, cs.consumed, cs.batches):
        assert arr.dtype == np.int32


@pytest.mark.parametrize("stops", [(), (0, 7, 19, 40)])
def test_compiled_batches_are_independent(stops):
    _, g, _ = small_instance(I=7, extra=2)
    acts = schedule.gen_cyclic_permuted(7, 20, seed=8)
    sched = schedule.assign_delays(
        acts, g, schedule.DelayModel(kind="traveling-time-with-loss", D_tv=9,
                                     loss_rate=0.3, D_ls=3, seed=9))
    cs = schedule.compile(sched, g, stops=stops)
    cuts = cs.batches
    assert cuts[0] == 0 and cuts[-1] == sched.horizon and np.all(np.diff(cuts) > 0)
    assert set(s + 1 for s in stops) <= set(cuts.tolist())
    assert np.mean(np.diff(cuts)) > 1.5
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        agents = cs.agent[lo:hi]
        assert len(set(agents.tolist())) == hi - lo
        before = {int(a): int(c) for a, c in zip(agents, cs.count[lo:hi])}
        for p in range(cs.indptr[lo], cs.indptr[hi]):
            j = int(cs.sender[p])
            assert j not in before or cs.consumed[p] <= before[j]


def test_jacobi_rounds_compile_to_one_batch_per_round():
    _, g, _ = small_instance(I=5)
    for seed in (None, 3):
        cs = schedule.compile(schedule.jacobi_rounds(g, 12, seed=seed), g)
        assert np.array_equal(cs.batches, np.arange(0, 61, 5))


def test_compile_rejects_bad_events():
    g = graph.DiGraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    ok = (schedule.Event(0, 0, {2: 0}), schedule.Event(1, 1, {0: 0}))
    with pytest.raises(ValueError, match=r"k=1: no delay for edge \(0,1\)"):
        schedule.compile(schedule._certify((ok[0], schedule.Event(1, 1, {}))), g)
    with pytest.raises(ValueError, match=r"k=1: delay -1 on edge \(0,1\) is negative"):
        schedule.compile(schedule._certify((ok[0], schedule.Event(1, 1, {0: -1}))), g)
    with pytest.raises(ValueError, match="event 1 has k=5"):
        schedule.compile(schedule._certify((ok[0], schedule.Event(5, 1, {0: 0}))), g)


def test_run_rejects_a_delay_before_the_padded_window():
    obj = objectives.make_least_squares(3, 2, 2, 0.04, seed=0)
    g = graph.DiGraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    w = graph.build_uniform_weights(g)
    events = (schedule.Event(0, 0, {2: 0}), schedule.Event(1, 1, {0: 3}),
              schedule.Event(2, 2, {1: 0}))
    sched = dataclasses.replace(schedule._certify(events, 3), certified_D=1)
    with pytest.raises(ValueError, match=r"k=1: delay 3 on edge \(0,1\) precedes the padded"):
        engine.run(obj, g, w, sched, engine.StepSizePolicy.constant(0.1), np.zeros((3, 2)))


def test_step_rejects_a_read_the_ring_no_longer_holds():
    obj = objectives.make_least_squares(2, 2, 2, 0.04, seed=0)
    g = graph.DiGraph(2, frozenset({(0, 1), (1, 0)}))
    w = graph.build_uniform_weights(g)
    pol = engine.StepSizePolicy.constant(0.1)
    st = engine.init(obj, g, w, np.zeros((2, 2)), schedule_D=0)
    for k in range(3):
        engine.step(st, schedule.Event(k, 0, {1: 0}), pol)
    with pytest.raises(ValueError, match=r"k=3: delay 3 on edge \(0,1\) reaches past"):
        engine.step(st, schedule.Event(3, 1, {0: 3}), pol)


# ---------------------------------------------------------------------------
# divergence guard
# ---------------------------------------------------------------------------

def test_nan_gradient_trips_the_guard_at_the_first_bad_event():
    base, g, w = small_instance(I=5, n=4)
    bad = 3
    gi = [(lambda x: np.full(4, np.nan)) if i == bad else base._gi[i] for i in range(5)]
    obj = objectives.Objective(name="nan", agent_count=5, dimension=4,
                               lipschitz=base.lipschitz, tau=0.0, _fi=base._fi, _gi=gi)
    acts = schedule.gen_cyclic_permuted(5, 20, seed=1)
    sched = schedule.assign_delays(
        acts, g, schedule.DelayModel(kind="traveling-time", D_tv=3, seed=2))
    with pytest.raises(engine.DivergenceError, match=f"k={acts.index(bad)};"):
        engine.run(obj, g, w, sched, engine.StepSizePolicy.constant(0.1),
                   np.zeros((5, 4)), metrics_stride=50)


# ---------------------------------------------------------------------------
# batched run == event-by-event step
# ---------------------------------------------------------------------------

@hs.composite
def instances(draw):
    I = draw(hs.integers(2, 7))
    seed = draw(hs.integers(0, 10_000))
    g = graph.build_cycle_plus_random(I, draw(hs.integers(0, I - 2)), seed)
    rounds = draw(hs.integers(1, 12))
    if draw(hs.booleans()):
        acts = schedule.gen_cyclic_permuted(I, rounds, seed + 1)
    else:
        acts = schedule.gen_random_rounds(I, I + draw(hs.integers(0, 5)), rounds, seed + 1)
    kind = draw(hs.sampled_from(["zero", "traveling-time", "with-loss", "uniform"]))
    if kind == "uniform":
        sched = schedule.gen_uniform_event_delays(acts, g, draw(hs.integers(0, 12)), seed + 2)
    else:
        model = schedule.DelayModel(
            kind="traveling-time-with-loss" if kind == "with-loss" else kind,
            D_tv=draw(hs.integers(0, 10)) if kind != "zero" else 0,
            loss_rate=0.3 if kind == "with-loss" else 0.0,
            D_ls=draw(hs.integers(1, 4)) if kind == "with-loss" else 1, seed=seed + 2)
        sched = schedule.assign_delays(acts, g, model)
    coupled = draw(hs.booleans())
    if not coupled:
        sched = with_v_delays(sched, draw(hs.integers(0, 8)), seed + 3)
    if draw(hs.booleans()):
        pol = engine.StepSizePolicy.constant(draw(hs.floats(0.05, 0.4)))
    else:
        pol = engine.StepSizePolicy.local_diminishing(draw(hs.floats(0.05, 0.4)), 0.01)
    stride = draw(hs.integers(1, sched.horizon))
    return I, seed, g, sched, coupled, pol, stride


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(instances())
def test_batched_run_matches_event_by_event_step(case):
    I, seed, g, sched, coupled, pol, stride = case
    n = 3
    obj = objectives.make_least_squares(I, n, 2, 0.04, seed)
    w = graph.build_uniform_weights(g)
    x0 = np.random.default_rng(seed).normal(size=(I, n))
    tr = engine.run(obj, g, w, sched, pol, x0, metrics_stride=stride, couple_delays=coupled)

    st = engine.init(obj, g, w, x0, sched.certified_D, pol, couple_delays=coupled)
    rows = []
    for ev in sched.events:
        gam = engine.step(st, ev, pol)
        if ev.k % stride == 0 or ev.k == sched.horizon - 1:
            rows.append((ev.k, metrics.merit_Msc(st.x, obj.x_star), metrics.merit_MF(st.x, obj),
                         engine.tracking_mass_residual(st), gam))
    ref = np.array(rows)
    got = np.column_stack([tr.k, tr.Msc, tr.MF, tr.mass_residual, tr.gamma])
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert np.max(np.abs(tr.final_x - st.x)) <= 1e-12
    assert np.max(tr.mass_residual) <= 1e-12
