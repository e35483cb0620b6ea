import numpy as np
import pytest

from dasopt import graph, schedule

from oracles import min_covering_window_bruteforce


def ring(I):
    return graph.DiGraph(I, frozenset((i, (i + 1) % I) for i in range(I)))


# ---------------------------------------------------------------------------
# activation generators
# ---------------------------------------------------------------------------

def test_cyclic_permuted_is_concatenation_of_permutations():
    acts = schedule.gen_cyclic_permuted(3, 2, seed=0)
    assert len(acts) == 6
    assert sorted(acts[:3]) == [0, 1, 2]
    assert sorted(acts[3:]) == [0, 1, 2]


def test_cyclic_permuted_single_agent_constant():
    assert schedule.gen_cyclic_permuted(1, 4, seed=5) == [0, 0, 0, 0]


def test_cyclic_permuted_window_bound():
    acts = schedule.gen_cyclic_permuted(5, 50, seed=3)
    T, _ = schedule._min_covering_window(acts, 5)
    assert T <= 2 * 5 - 1


def test_random_rounds_structure():
    I, T_max = 4, 9
    acts, bounds = schedule.random_rounds_with_boundaries(I, T_max, 20, seed=11)
    assert len(acts) == len(bounds)
    for r in range(1, 21):
        block = [a for a, b in zip(acts, bounds) if b == r]
        assert I <= len(block) <= T_max
        assert set(block) == set(range(I))


def test_random_rounds_two_agents_minimal():
    acts = schedule.gen_random_rounds(2, 2, 10, seed=1)
    for start in range(0, len(acts), 2):
        assert set(acts[start:start + 2]) == {0, 1}


def test_random_rounds_rejects_small_window():
    with pytest.raises(ValueError):
        schedule.gen_random_rounds(5, 4, 3, seed=0)


def test_random_rounds_benchmark_certificate():
    g = graph.build_cycle_plus_random(30, 2, seed=0)
    acts = schedule.gen_random_rounds(30, 90, 30, seed=2)
    sched = schedule.assign_delays(acts, g, schedule.DelayModel(kind="zero"))
    T, D = schedule.verify_assumption5(sched)
    assert T <= 2 * 90 - 1
    assert D == 0


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_round_robin_window_is_agent_count():
    acts = [0, 1, 2] * 20
    g = ring(3)
    sched = schedule.assign_delays(acts, g, schedule.DelayModel(kind="zero"))
    T, D = schedule.verify_assumption5(sched)
    assert T == 3
    assert D == 0


def test_certified_window_matches_bruteforce_oracle():
    rng = np.random.default_rng(9)
    for trial in range(20):
        I = int(rng.integers(2, 5))
        acts = schedule.gen_random_rounds(I, I + 3, 6, seed=trial)
        T, ok = schedule._min_covering_window(acts, I)
        assert ok
        assert T == min_covering_window_bruteforce(acts, I)


def test_missing_agent_flags_schedule():
    g = ring(3)
    sched = schedule.assign_delays([0, 1, 0, 1], g, schedule.DelayModel(kind="zero"))
    assert not sched.covering_ok
    assert sched.certified_T == sched.horizon


# ---------------------------------------------------------------------------
# delay models
# ---------------------------------------------------------------------------

def test_zero_model_emits_zero_delays():
    g = ring(4)
    acts = schedule.gen_cyclic_permuted(4, 5, seed=0)
    sched = schedule.assign_delays(acts, g, schedule.DelayModel(kind="zero"))
    assert sched.certified_D == 0
    assert all(d == 0 for ev in sched.events for d in ev.delays.values())


def test_traveling_time_benchmark_certificate_finite():
    g = graph.build_cycle_plus_random(30, 2, seed=1)
    acts = schedule.gen_cyclic_permuted(30, 20, seed=1)
    model = schedule.DelayModel(kind="traveling-time", D_tv=40, seed=2)
    sched = schedule.assign_delays(acts, g, model)
    assert sched.covering_ok
    assert 0 < sched.certified_D < sched.horizon
    # emitted delays never exceed the certificate
    assert max(d for ev in sched.events for d in ev.delays.values()) == sched.certified_D


def test_assign_delays_deterministic():
    g = graph.build_cycle_plus_random(6, 1, seed=4)
    acts = schedule.gen_cyclic_permuted(6, 10, seed=5)
    model = schedule.DelayModel(kind="traveling-time-with-loss", D_tv=7,
                                loss_rate=0.4, D_ls=3, seed=6)
    s1 = schedule.assign_delays(acts, g, model)
    s2 = schedule.assign_delays(acts, g, model)
    assert s1.to_text() == s2.to_text()


def test_used_indices_are_valid_generation_stamps_and_monotone():
    g = graph.build_cycle_plus_random(5, 1, seed=7)
    acts = schedule.gen_cyclic_permuted(5, 40, seed=8)
    model = schedule.DelayModel(kind="traveling-time-with-loss", D_tv=6,
                                loss_rate=0.3, D_ls=2, seed=9)
    sched = schedule.assign_delays(acts, g, model)
    stamps = {j: {0} for j in range(5)}  # 0 = the initial state
    for ev in sched.events:
        for j, d in ev.delays.items():
            assert ev.k - d in stamps[j]
        stamps[ev.agent].add(ev.k + 1)


def test_lost_packets_are_never_used():
    g = graph.build_cycle_plus_random(5, 1, seed=7)
    acts = schedule.gen_cyclic_permuted(5, 60, seed=8)
    model = schedule.DelayModel(kind="traveling-time-with-loss", D_tv=6,
                                loss_rate=0.5, D_ls=2, seed=10)
    sched = schedule.assign_delays(acts, g, model)
    assert len(sched.lost_packets) > 0
    lost = set(sched.lost_packets)
    for ev in sched.events:
        for j, d in ev.delays.items():
            assert ((j, ev.agent), ev.k - d) not in lost


def test_loss_streak_capped_by_dls():
    g = ring(2)
    acts = [0, 1] * 200
    model = schedule.DelayModel(kind="traveling-time-with-loss", D_tv=0,
                                loss_rate=0.9, D_ls=3, seed=3)
    sched = schedule.assign_delays(acts, g, model)
    lost_by_edge = {}
    for (edge, stamp) in sched.lost_packets:
        lost_by_edge.setdefault(edge, []).append(stamp)
    # every edge sends one packet per activation of its tail; with D_ls = 3
    # at most 2 consecutive packets may vanish
    for e, stamps in lost_by_edge.items():
        stamps = sorted(stamps)
        run = 1
        for a, b in zip(stamps, stamps[1:]):
            run = run + 1 if b == a + 2 else 1  # consecutive sends are 2 apart here
            assert run <= 2


def test_hard_cap_violation_raises():
    g = ring(3)
    acts = [0, 1, 2] * 30
    model = schedule.DelayModel(kind="traveling-time", D_tv=50, seed=0, hard_cap=2)
    with pytest.raises(schedule.UnboundedDelayError):
        schedule.assign_delays(acts, g, model)


def test_purged_ages_monotone_under_reordering():
    # raw delays may regress; after the engine's max-purge the consumed index
    # never moves backwards
    g = graph.build_cycle_plus_random(4, 1, seed=2)
    acts = schedule.gen_cyclic_permuted(4, 50, seed=3)
    model = schedule.DelayModel(kind="traveling-time", D_tv=9, seed=4)
    sched = schedule.assign_delays(acts, g, model)
    tau = {e: -sched.certified_D for e in g.edge_list}
    for ev in sched.events:
        for j, d in ev.delays.items():
            e = (j, ev.agent)
            new = max(tau[e], ev.k - d)
            assert new >= tau[e]
            tau[e] = new


# ---------------------------------------------------------------------------
# closed-form (T, D) estimates
# ---------------------------------------------------------------------------

def test_theory_bounds_direct_substitution():
    assert schedule.theory_TD_bounds(2, 1, 1, 0, 1) == (2, 2)


def test_theory_bounds_benchmark_arithmetic():
    assert schedule.theory_TD_bounds(30, 1, 3, 40, 1) == (88, 1200)


def test_theory_bounds_equal_periods():
    T, _ = schedule.theory_TD_bounds(7, 2.0, 2.0, 5, 1)
    assert T == 7


# ---------------------------------------------------------------------------
# serialization and special schedules
# ---------------------------------------------------------------------------

def test_schedule_text_round_trip():
    g = graph.build_cycle_plus_random(4, 1, seed=0)
    acts = schedule.gen_cyclic_permuted(4, 6, seed=1)
    model = schedule.DelayModel(kind="traveling-time", D_tv=3, seed=2)
    sched = schedule.assign_delays(acts, g, model)
    again = schedule.Schedule.from_text(sched.to_text())
    assert again.events == tuple(
        schedule.Event(k=e.k, agent=e.agent, delays=e.delays) for e in sched.events)
    assert again.certified_T == sched.certified_T
    assert again.certified_D == sched.certified_D


def test_exported_schedule_replays_bitwise():
    from dasopt import pushsum

    g = graph.build_cycle_plus_random(5, 1, seed=20)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(5, 80, seed=21)
    model = schedule.DelayModel(kind="traveling-time-with-loss", D_tv=6,
                                loss_rate=0.3, D_ls=2, seed=22)
    sched = schedule.assign_delays(acts, g, model)
    replayed = schedule.Schedule.from_text(sched.to_text())
    z0 = np.random.default_rng(23).normal(size=(5, 1))
    tr1 = pushsum.run_consensus(g, w, sched, z0)
    tr2 = pushsum.run_consensus(g, w, replayed, z0)
    assert np.array_equal(tr1.consensus_error, tr2.consensus_error)
    assert np.array_equal(tr1.mass_error, tr2.mass_error)
    assert np.array_equal(tr1.final_y, tr2.final_y)


def test_jacobi_rounds_point_to_round_boundary():
    g = graph.build_cycle_plus_random(5, 1, seed=3)
    sched = schedule.jacobi_rounds(g, 4, seed=2)
    for ev in sched.events:
        r = ev.k // 5
        for j, d in ev.delays.items():
            assert ev.k - d == r * 5
    T, D = schedule.verify_assumption5(sched)
    assert T <= 2 * 5 - 1
    assert D <= 4


def test_schedule_text_round_trip_keeps_an_agent_that_never_acts():
    g = graph.build_cycle_plus_random(3, 0, seed=0)
    acts = [0, 1] * 20  # agent 2 never acts
    sched = schedule.assign_delays(
        acts, g, schedule.DelayModel(kind="traveling-time", D_tv=2, seed=1))
    assert sched.n_agents == 3 and not sched.covering_ok
    again = schedule.Schedule.from_text(sched.to_text())
    assert (again.n_agents, again.certified_T, again.certified_D, again.covering_ok) == \
        (sched.n_agents, sched.certified_T, sched.certified_D, sched.covering_ok)
    # a headerless trace still loads, sizing the agent set from the events
    headerless = "\n".join(ln for ln in sched.to_text().splitlines()
                           if not ln.startswith("#"))
    assert schedule.Schedule.from_text(headerless).n_agents == 2


def test_schedule_text_header_must_cover_every_agent():
    with pytest.raises(ValueError, match="agents=2"):
        schedule.Schedule.from_text("# agents=2\n0 0\n1 2\n")


def test_certification_rejects_a_negative_delay():
    with pytest.raises(ValueError, match=r"event k=0: delay -3 on edge \(1,0\) is negative"):
        schedule._certify((schedule.Event(0, 0, {1: -3}),), 2)
    with pytest.raises(ValueError, match=r"event k=0: delay -3 on edge \(1,0\) is negative"):
        schedule.Schedule.from_text("# agents=2\n0 0 1:-3\n")
    # the consensus-stream age is checked too
    with pytest.raises(ValueError, match=r"event k=1: delay -2 on edge \(1,0\) is negative"):
        schedule.Schedule.from_text("# agents=2\n0 1 0:0\n1 0 1:0/-2\n")
