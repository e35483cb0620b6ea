"""Push-sum on the [z | phi] array state, checked as derandomized properties.

Over random strongly connected digraphs, synthetic and lossy physical delay
schedules and random perturbations, `pushsum.step` must be bitwise equal to
the dict-of-histories transcription in `tests/oracles.py`, conserve mass, and
match the augmented-graph oracle. The fixed-seed criteria in
`test_acceptance.py` stay as they are; these sit next to them.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hs

from dasopt import augmented, graph, pushsum, schedule

from oracles import pushsum_dict_init, pushsum_dict_step
from test_schedule_properties import digraphs

DERANDOMIZED = settings.get_profile("derandomized")


@hs.composite
def runs(draw, max_delay=10):
    """(graph, weights, schedule, z0, perturbations): a uniform-event or a
    lossy traveling-time schedule, and per event None or a random eps."""
    g = draw(digraphs())
    I = g.node_count
    seed = draw(hs.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    # sizes come from the drawn seed: hypothesis keeps drawn integers small
    acts = rng.integers(0, I, size=rng.integers(1, 120)).tolist()
    if draw(hs.booleans()):
        sched = schedule.gen_uniform_event_delays(acts, g, rng.integers(0, max_delay + 1), seed)
    else:
        sched = schedule.assign_delays(acts, g, schedule.DelayModel(
            kind="traveling-time-with-loss", D_tv=int(rng.integers(0, max_delay // 2 + 1)),
            loss_rate=draw(hs.sampled_from([0.0, 0.3, 0.6])),
            D_ls=draw(hs.integers(1, 3)), seed=seed))
    n = draw(hs.integers(1, 3))
    z0 = rng.normal(size=(I, n))
    mode = draw(hs.sampled_from(["none", "normal", "mixed"]))
    eps = [None if mode == "none" or (mode == "mixed" and rng.random() < 0.5)
           else rng.normal(size=n) for _ in sched.events]
    return g, graph.build_uniform_weights(g), sched, z0, eps


@settings(DERANDOMIZED, max_examples=200)
@given(runs())
def test_step_is_bitwise_the_dict_of_histories_step(case):
    g, w, sched, z0, eps = case
    st = pushsum.init(g, w, z0, sched.certified_D)
    ref = pushsum_dict_init(g, w.A, z0, sched.certified_D)
    for ev, e_k in zip(sched.events, eps):
        pushsum.step(st, ev, e_k)
        pushsum_dict_step(ref, ev, e_k)
        assert np.array_equal(st.z, ref.z) and np.array_equal(st.phi, ref.phi)
        assert np.array_equal(st.y, ref.y)
        assert st.ratio_skips == ref.ratio_skips
        for e in g.edge_list:
            assert np.array_equal(st.rho[e].current(), ref.rho[e].current())
            assert np.array_equal(st.rho_tilde[e], ref.rho_tilde[e])
            assert st.sigma[e].current() == ref.sigma[e].current()
            assert st.sigma_tilde[e] == ref.sigma_tilde[e]
            assert st.tau[e] == ref.tau[e]
    assert st.k == sched.horizon


@settings(DERANDOMIZED, max_examples=200)
@given(runs())
def test_mass_is_conserved(case):
    g, w, sched, z0, eps = case
    st = pushsum.init(g, w, z0, sched.certified_D)
    expected = z0.sum(axis=0)
    for ev, e_k in zip(sched.events, eps):
        pushsum.step(st, ev, e_k)
        if e_k is not None:
            expected = expected + e_k
        residual = np.linalg.norm(pushsum.total_mass(st) - expected)
        assert residual <= 1e-12 * (1.0 + np.linalg.norm(expected))
        assert abs(pushsum.total_phi_mass(st) - g.node_count) <= 1e-12 * g.node_count


@settings(DERANDOMIZED, max_examples=100)
@given(runs(max_delay=6))
def test_state_matches_the_augmented_oracle(case):
    g, w, sched, z0, eps = case
    st = pushsum.init(g, w, z0, sched.certified_D)
    aug = augmented.init_augmented(g, z0, sched.certified_D)
    for ev, e_k in zip(sched.events, eps):
        pushsum.step(st, ev, e_k)
        augmented.step_augmented(aug, ev, w, e_k)
        assert augmented.check_equivalence(st, aug).max_diff <= 1e-12


def test_step_rejects_a_negative_delay():
    # a negative delay would read an age from the future (tau = k + 3)
    g = graph.DiGraph(2, frozenset({(0, 1), (1, 0)}))
    st = pushsum.init(g, graph.build_uniform_weights(g), np.ones((2, 1)), 0)
    with pytest.raises(ValueError, match=r"event k=0: delay -3 on edge \(1,0\) is negative"):
        pushsum.step(st, schedule.Event(k=0, agent=0, delays={1: -3}))
    assert st.tau[(1, 0)] == 0
