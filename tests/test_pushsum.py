import copy

import numpy as np
import pytest

from dasopt import graph, metrics, pushsum, schedule


def single_agent():
    g = graph.DiGraph(1, frozenset())
    w = graph.WeightMatrices(W=np.ones((1, 1)), A=np.ones((1, 1)), m_bar=1.0)
    return g, w


def two_node():
    g = graph.DiGraph(2, frozenset({(0, 1), (1, 0)}))
    return g, graph.build_uniform_weights(g)


def test_init_state():
    g, w = two_node()
    st = pushsum.init(g, w, np.array([[1.0], [2.0]]), schedule_D=3)
    assert np.array_equal(st.phi, [1.0, 1.0])
    assert np.array_equal(st.y, [[1.0], [2.0]])  # raw z/phi before any step
    assert float(pushsum.total_mass(st)[0]) == 3.0
    assert all(st.tau[e] == -3 for e in g.edge_list)


def test_single_agent_fixed_point():
    g, w = single_agent()
    st = pushsum.init(g, w, np.array([[5.0]]), 0)
    for k in range(10):
        pushsum.step(st, schedule.Event(k=k, agent=0, delays={}))
        assert st.y[0, 0] == 5.0
        assert st.phi[0] == 1.0


def test_two_node_alternating_converges_geometrically():
    g, w = two_node()
    acts = [0, 1] * 300
    sched = schedule.assign_delays(acts, g, schedule.DelayModel(kind="zero"))
    tr = pushsum.run_consensus(g, w, sched, np.array([[0.0], [2.0]]))
    assert tr.consensus_error[-1] <= 1e-12
    ks, vals = zip(*[(k, v) for k, v in zip(tr.k, tr.consensus_error)
                     if v > 1e-13])
    slope, r2 = metrics.fit_linear_rate(ks[len(ks) // 2:], vals[len(vals) // 2:])
    assert slope < 0


def test_stale_packet_is_a_no_op_on_buffers():
    g, w = two_node()
    st = pushsum.init(g, w, np.array([[1.0], [2.0]]), schedule_D=5)
    pushsum.step(st, schedule.Event(k=0, agent=0, delays={1: 0}))
    pushsum.step(st, schedule.Event(k=1, agent=1, delays={0: 0}))  # consumes stamp 1
    tau_before = st.tau[(0, 1)]
    buf_before = st.rho_tilde[(0, 1)].copy()
    sig_before = st.sigma_tilde[(0, 1)]
    # delay 2 points at stamp 0, older than the consumed stamp 1: purged
    pushsum.step(st, schedule.Event(k=2, agent=1, delays={0: 2}))
    assert st.tau[(0, 1)] == tau_before
    assert np.array_equal(st.rho_tilde[(0, 1)], buf_before)
    assert st.sigma_tilde[(0, 1)] == sig_before


def test_duplicate_delivery_adds_no_mass():
    g, w = two_node()
    st = pushsum.init(g, w, np.array([[1.0], [2.0]]), schedule_D=5)
    pushsum.step(st, schedule.Event(k=0, agent=0, delays={1: 0}))
    before = pushsum.total_mass(st).copy()
    # agent 1 consumes stamp 1 twice in a row; the second pass must find
    # nothing new on the edge
    pushsum.step(st, schedule.Event(k=1, agent=1, delays={0: 0}))
    pushsum.step(st, schedule.Event(k=2, agent=1, delays={0: 1}))
    assert np.allclose(pushsum.total_mass(st), before, atol=1e-14)


def test_mass_conservation_z_and_phi_random_runs():
    rng = np.random.default_rng(0)
    for trial in range(5):
        I = int(rng.integers(3, 7))
        g = graph.build_cycle_plus_random(I, 1, seed=trial)
        w = graph.build_uniform_weights(g)
        acts = schedule.gen_cyclic_permuted(I, 300 // I + 1, seed=trial + 1)
        sched = schedule.gen_uniform_event_delays(acts, g, 4, seed=trial + 2)
        z0 = rng.normal(size=(I, 2))
        st = pushsum.init(g, w, z0, sched.certified_D)
        expected = z0.sum(axis=0).copy()
        for ev in sched.events:
            eps = rng.normal(size=2)
            pushsum.step(st, ev, eps)
            expected += eps
            m = pushsum.total_mass(st)
            assert np.linalg.norm(m - expected) <= 1e-10 * (1 + np.linalg.norm(expected))
            phi_mass = pushsum.total_phi_mass(st)
            assert abs(phi_mass - I) <= 1e-10 * I


def test_total_mass_examples():
    g, w = two_node()
    z0 = np.array([[1.0], [2.0]])
    acts = [0, 1, 0, 1, 1, 0] * 20
    sched = schedule.gen_uniform_event_delays(acts, g, 2, seed=0)

    st = pushsum.init(g, w, z0, sched.certified_D)
    for ev in sched.events:
        pushsum.step(st, ev)
        assert pushsum.total_mass(st)[0] == pytest.approx(3.0, abs=1e-12)

    st = pushsum.init(g, w, z0, sched.certified_D)
    for ev in sched.events:
        pushsum.step(st, ev, np.array([1.0]))
        assert pushsum.total_mass(st)[0] == pytest.approx(3.0 + ev.k + 1, abs=1e-10)

    rng = np.random.default_rng(1)
    st = pushsum.init(g, w, z0, sched.certified_D)
    running = 3.0
    for ev in sched.events:
        e = float(rng.normal())
        pushsum.step(st, ev, np.array([e]))
        running += e
        assert pushsum.total_mass(st)[0] == pytest.approx(running, rel=1e-10, abs=1e-10)


def test_consensus_on_agreeing_initial_state_is_exact():
    g = graph.build_cycle_plus_random(4, 1, seed=2)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(4, 30, seed=3)
    sched = schedule.gen_uniform_event_delays(acts, g, 3, seed=4)
    c = 2.5
    tr = pushsum.run_consensus(g, w, sched, np.full((4, 1), c))
    assert np.max(tr.consensus_error) <= 1e-12


def test_consensus_small_network_hits_tolerance():
    g = graph.build_cycle_plus_random(5, 1, seed=6)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_random_rounds(5, 9, 700, seed=7)
    sched = schedule.gen_uniform_event_delays(acts, g, 6, seed=8)
    assert sched.certified_T <= 17 and sched.certified_D <= 6
    z0 = np.random.default_rng(9).normal(size=(5, 1))
    tr = pushsum.run_consensus(g, w, sched, z0)
    below = np.nonzero(tr.consensus_error <= 1e-8)[0]
    assert below.size > 0 and below[0] < 5000


def test_relabeling_symmetry():
    g = graph.build_cycle_plus_random(5, 1, seed=10)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(5, 60, seed=11)
    sched = schedule.gen_uniform_event_delays(acts, g, 3, seed=12)
    z0 = np.random.default_rng(13).normal(size=(5, 1))
    tr = pushsum.run_consensus(g, w, sched, z0)

    perm = [2, 0, 4, 1, 3]  # relabel i -> perm[i]
    edges2 = frozenset((perm[j], perm[i]) for (j, i) in g.edges)
    g2 = graph.DiGraph(5, edges2)
    w2 = graph.build_uniform_weights(g2)
    events2 = tuple(
        schedule.Event(k=ev.k, agent=perm[ev.agent],
                       delays={perm[j]: d for j, d in ev.delays.items()})
        for ev in sched.events)
    sched2 = schedule._certify(events2, 5)
    z0_2 = np.empty_like(z0)
    for i in range(5):
        z0_2[perm[i]] = z0[i]
    tr2 = pushsum.run_consensus(g2, w2, sched2, z0_2)
    assert np.allclose(tr.consensus_error, tr2.consensus_error, atol=1e-12)
    assert np.allclose(tr.mass_error, tr2.mass_error, atol=1e-12)


def test_tracking_constant_signals_reduces_to_consensus():
    g = graph.build_cycle_plus_random(4, 1, seed=14)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(4, 50, seed=15)
    sched = schedule.gen_uniform_event_delays(acts, g, 2, seed=16)
    c = np.random.default_rng(17).normal(size=(4, 2))
    tr_track = pushsum.run_tracking(g, w, sched, lambda k: c)
    tr_cons = pushsum.run_consensus(g, w, sched, c)
    assert np.array_equal(tr_track.final_y, tr_cons.final_y)
    assert np.array_equal(tr_track.consensus_error, tr_cons.consensus_error)


def test_tracking_decaying_signals():
    g = graph.build_cycle_plus_random(5, 1, seed=18)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(5, 600, seed=19)
    sched = schedule.gen_uniform_event_delays(acts, g, 3, seed=20)
    rng = np.random.default_rng(21)
    c = rng.normal(size=(5, 1))
    tr = pushsum.run_tracking(g, w, sched, lambda k: c / (k + 1.0))
    assert tr.consensus_error[-1] <= 1e-4
    assert np.max(tr.mass_error) <= 1e-12  # m_z = sum of held signals, exactly


def test_step_touches_only_active_agent_state():
    g = graph.build_cycle_plus_random(5, 1, seed=22)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(5, 20, seed=23)
    sched = schedule.gen_uniform_event_delays(acts, g, 3, seed=24)
    st = pushsum.init(g, w, np.random.default_rng(25).normal(size=(5, 1)),
                      sched.certified_D)
    for ev in sched.events:
        before = copy.deepcopy(st)
        pushsum.step(st, ev)
        i = ev.agent
        for m in range(5):
            if m == i:
                continue
            assert np.array_equal(st.z[m], before.z[m])
            assert st.phi[m] == before.phi[m]
            assert np.array_equal(st.y[m], before.y[m])
        for e in g.edge_list:
            sender, receiver = e[0], e[1]
            if sender != i:  # outgoing cumulative masses only move for i
                assert np.array_equal(st.rho[e].current(), before.rho[e].current())
            if receiver != i:  # buffers and ages only move for i's in-edges
                assert np.array_equal(st.rho_tilde[e], before.rho_tilde[e])
                assert st.tau[e] == before.tau[e]


def test_geometric_envelope_with_window_ratio():
    # near-identity weights slow the mixing enough that a full 10*K1 window
    # fits inside the representable decay range
    g = graph.DiGraph(2, frozenset({(0, 1), (1, 0)}))
    M = np.array([[0.9, 0.1], [0.1, 0.9]])
    w = graph.custom_weights(g, M, M)
    acts = [0, 1] * 750
    sched = schedule.assign_delays(acts, g, schedule.DelayModel(kind="zero"))
    assert sched.certified_T == 2 and sched.certified_D == 0
    K1 = (2 * 2 - 1) * sched.certified_T + 2 * sched.certified_D
    W = 10 * K1
    tr = pushsum.run_consensus(g, w, sched, np.array([[1.0], [-1.0]]))
    err = tr.consensus_error
    ks = np.nonzero(err > 1e-13)[0]
    tail = ks[len(ks) // 3:]
    slope, r2 = metrics.fit_linear_rate(tail, err[tail])
    rho_fit = float(np.exp(slope))
    assert rho_fit < 1.0 and rho_fit ** W < 1.0
    checked = 0
    for k in tail[:-W]:
        if k + W <= tail[-1]:
            assert err[k + W] / err[k] <= 50 * rho_fit ** W
            checked += 1
    assert checked > 0


def test_phi_guard_aborts_on_starving_schedule():
    # one agent hammered forever while never hearing back: phi underflows
    g = graph.DiGraph(2, frozenset({(0, 1), (1, 0)}))
    w = graph.build_uniform_weights(g)
    events = tuple(schedule.Event(k=k, agent=0, delays={1: k}) for k in range(2000))
    st = pushsum.init(g, w, np.ones((2, 1)), 0)
    with pytest.raises(pushsum.RatioGuardError):
        for ev in events:
            pushsum.step(st, ev)
            if st.ratio_skips:
                raise pushsum.RatioGuardError("phi floor hit")


def test_tracking_signal_array_matches_the_callable():
    g = graph.build_cycle_plus_random(5, 1, seed=30)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(5, 60, seed=31)
    sched = schedule.assign_delays(acts, g, schedule.DelayModel(
        kind="traveling-time-with-loss", D_tv=3, loss_rate=0.3, D_ls=3, seed=32))
    assert sched.lost_packets
    rng = np.random.default_rng(33)
    c, r = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
    signals = np.stack([c + r / (k + 1.0) for k in range(sched.horizon + 1)])
    tr_array = pushsum.run_tracking(g, w, sched, signals)
    tr_call = pushsum.run_tracking(g, w, sched, lambda k: c + r / (k + 1.0))
    for f in ("k", "active", "consensus_error", "mass_error", "final_y"):
        a, b = getattr(tr_array, f), getattr(tr_call, f)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f
