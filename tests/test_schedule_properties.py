"""Array-native schedules against loop transcriptions, and lossless replay.

`assign_delays`, the covering-window certificate and the synthetic delay
generators are checked bitwise against packet-by-packet and draw-by-draw
loops; a replayed schedule must keep every event, its consensus-stream ages,
its lost packets and its certificates.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from dasopt import graph, schedule

from oracles import assign_delays_loop, min_covering_window_loop

DERANDOMIZED = settings.get_profile("derandomized")


@hs.composite
def digraphs(draw, max_agents=8):
    """A directed cycle through a random permutation plus random extra edges:
    strongly connected, with no node order built in."""
    I = draw(hs.integers(2, max_agents))
    perm = draw(hs.permutations(range(I)))
    edges = {(perm[m], perm[(m + 1) % I]) for m in range(I)}
    pairs = hs.tuples(hs.integers(0, I - 1), hs.integers(0, I - 1))
    edges |= draw(hs.sets(pairs.filter(lambda e: e[0] != e[1]), max_size=2 * I))
    return graph.DiGraph(I, frozenset(edges))


@hs.composite
def channels(draw):
    g = draw(digraphs())
    acts = draw(hs.lists(hs.integers(0, g.node_count - 1), min_size=1, max_size=80))
    kind = draw(hs.sampled_from(["zero", "traveling-time", "traveling-time-with-loss"]))
    model = schedule.DelayModel(
        kind=kind, D_tv=draw(hs.integers(0, 10)),
        loss_rate=draw(hs.sampled_from([0.0, 0.2, 0.5, 0.9])),
        D_ls=draw(hs.integers(1, 4)), seed=draw(hs.integers(0, 2 ** 32 - 1)),
        hard_cap=draw(hs.none() | hs.integers(0, 8)))
    return g, acts, model


def with_v_delays(sched, max_delay, seed):
    rng = np.random.default_rng(seed)
    return schedule._certify(tuple(
        schedule.Event(k=ev.k, agent=ev.agent, delays=ev.delays,
                       v_delays={j: int(rng.integers(0, min(max_delay, ev.k) + 1))
                                 for j in ev.delays})
        for ev in sched.events), sched.n_agents, sched.lost_packets)


def effective(sched):
    return [(ev.k, ev.agent, ev.delays, ev.v_delays or ev.delays) for ev in sched.events]


@settings(DERANDOMIZED, max_examples=300)
@given(channels())
def test_assign_delays_equals_the_packet_loop(case):
    g, acts, model = case
    try:
        want, lost = assign_delays_loop(acts, g, model.kind, model.D_tv, model.loss_rate,
                                        model.D_ls, model.seed, model.hard_cap)
    except ValueError as exc:
        with pytest.raises(schedule.UnboundedDelayError) as got:
            schedule.assign_delays(acts, g, model)
        assert str(got.value) == str(exc)
        return
    sched = schedule.assign_delays(acts, g, model)
    assert [(ev.k, ev.agent, ev.delays, ev.v_delays) for ev in sched.events] == \
        [(k, a, d, None) for k, a, d in want]
    assert list(sched.lost_packets) == lost
    assert sched.certified_D == max([0] + [d for _, _, ds in want for d in ds.values()])
    assert (sched.certified_T, sched.covering_ok) == min_covering_window_loop(acts, g.node_count)
    assert sched.n_agents == g.node_count and sched.horizon == len(acts)


@settings(DERANDOMIZED, max_examples=500)
@given(hs.integers(1, 6).flatmap(lambda I: hs.tuples(
    hs.just(I), hs.lists(hs.integers(0, I - 1), max_size=60))))
def test_covering_window_equals_the_loop(case):
    I, acts = case
    assert schedule._min_covering_window(acts, I) == min_covering_window_loop(acts, I)
    assert schedule._min_covering_window(np.array(acts), I) == min_covering_window_loop(acts, I)


@settings(DERANDOMIZED, max_examples=150)
@given(channels(), hs.none() | hs.integers(0, 6))
def test_replay_round_trip_is_lossless(case, v_max):
    g, acts, model = case
    sched = schedule.assign_delays(acts, g, dataclasses.replace(model, hard_cap=None))
    if v_max is not None:
        sched = with_v_delays(sched, v_max, model.seed)
    text = sched.to_text()
    again = schedule.Schedule.from_text(text)
    assert effective(again) == effective(sched)
    assert again.lost_packets == sched.lost_packets
    assert (again.n_agents, again.certified_T, again.certified_D, again.covering_ok) == \
        (sched.n_agents, sched.certified_T, sched.certified_D, sched.covering_ok)
    assert again.to_text() == text


def test_replay_keeps_decoupled_consensus_ages():
    events = (schedule.Event(0, 0, {1: 0}, {1: 0}), schedule.Event(1, 1, {0: 0}, {0: 1}))
    sched = schedule._certify(events, 2)
    assert sched.certified_D == 1
    again = schedule.Schedule.from_text(sched.to_text())
    assert again.certified_D == 1
    assert again.events[1].v_delays == {0: 1}


def test_replay_keeps_lost_packets():
    g = graph.build_cycle_plus_random(3, 1, seed=4)
    acts = schedule.gen_cyclic_permuted(3, 30, seed=5)
    sched = schedule.assign_delays(acts, g, schedule.DelayModel(
        kind="traveling-time-with-loss", D_tv=3, loss_rate=0.4, D_ls=3, seed=6))
    assert len(sched.lost_packets) > 0
    again = schedule.Schedule.from_text(sched.to_text())
    assert again.lost_packets == sched.lost_packets
    # a trace with only the agents header still loads, without lost packets
    old = "\n".join(ln for ln in sched.to_text().splitlines() if not ln.startswith("# lost"))
    assert schedule.Schedule.from_text(old).lost_packets == ()
    assert effective(schedule.Schedule.from_text(old)) == effective(sched)


@pytest.mark.parametrize("max_delay", [0, 3, 9])
def test_uniform_event_delays_draw_one_value_per_read_in_order(max_delay):
    g = graph.build_cycle_plus_random(6, 2, seed=1)
    acts = schedule.gen_random_rounds(6, 9, 20, seed=2)
    sched = schedule.gen_uniform_event_delays(acts, g, max_delay, seed=3)
    rng = np.random.default_rng(3)
    assert [(ev.k, ev.agent, ev.delays) for ev in sched.events] == [
        (k, a, {j: int(rng.integers(0, min(max_delay, k) + 1)) for j in g.in_neighbors(a)})
        for k, a in enumerate(acts)]


@pytest.mark.parametrize("seed", [None, 4])
def test_jacobi_rounds_read_the_round_boundary_in_every_order(seed):
    g = graph.build_cycle_plus_random(5, 2, seed=0)
    sched = schedule.jacobi_rounds(g, 6, seed=seed)
    rng = None if seed is None else np.random.default_rng(seed)
    order = [a for _ in range(6)
             for a in (range(5) if rng is None else rng.permutation(5).tolist())]
    assert [(ev.k, ev.agent, ev.delays) for ev in sched.events] == [
        (k, a, {j: k % 5 for j in g.in_neighbors(a)}) for k, a in enumerate(order)]
    assert (sched.certified_T, sched.certified_D) == (
        min_covering_window_loop(order, 5)[0], 4)
