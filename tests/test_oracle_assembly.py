"""The augmented oracle's maps and readers against element-by-element loops.

The oracle copies a per-index cached block for each event and reads the
in-flight mass with one reduction; these tests pin that to a direct loop
transcription (tests/oracles.py), bit for bit where the summation order is
the same.
"""

import numpy as np
import pytest

from dasopt import augmented, graph, pushsum, schedule
from oracles import (augmented_equivalence, augmented_push_matrix, augmented_sum_matrix,
                     pushsum_masses)


def random_instance(I, seed):
    """Strongly connected digraph with random positive weights (the column
    sums of A and the row sums of W are one)."""
    rng = np.random.default_rng(seed)
    if I == 1:
        g = graph.DiGraph(1, frozenset())
    else:
        g = graph.build_cycle_plus_random(I, int(rng.integers(0, I - 1)), seed=seed)
    support = np.eye(I)
    for (j, i) in g.edge_list:
        support[i, j] = 1.0  # j sends to i
    W = support * rng.uniform(0.2, 1.0, size=(I, I))
    W /= W.sum(axis=1, keepdims=True)
    A = support.T * rng.uniform(0.2, 1.0, size=(I, I))
    A /= A.sum(axis=0, keepdims=True)
    w = graph.WeightMatrices(W=W, A=A, m_bar=float(min(W[W > 0].min(), A[A > 0].min())))
    return g, w


@pytest.mark.parametrize("I", range(1, 8))
def test_matrices_equal_the_loop_transcription(I):
    rng = np.random.default_rng(100 + I)
    for D in range(6):
        g, w = random_instance(I, seed=10 * I + D)
        idx = augmented.AugmentedIndex(g, D)
        k = D + 7
        for trial in range(4):
            # consumed ages 0..D, plus fully consumed (tau = k) edges
            tau = {e: k - int(rng.integers(0, D + 1)) if trial else k for e in g.edge_list}
            for agent in range(I):
                ev = schedule.Event(k=k, agent=agent, delays={})
                assert np.array_equal(augmented.build_sum_matrix(idx, ev, tau),
                                      augmented_sum_matrix(g, D, ev, tau))
                assert np.array_equal(augmented.build_push_matrix(idx, ev, w),
                                      augmented_push_matrix(g, D, ev, w.A))


def test_sum_matrix_rejects_an_age_beyond_the_depth_like_the_loop():
    g, _ = random_instance(4, seed=1)
    D, k = 2, 9
    idx = augmented.AugmentedIndex(g, D)
    tau = {e: k - D - 1 for e in g.edge_list}
    ev = schedule.Event(k=k, agent=0, delays={})
    with pytest.raises(ValueError, match="exceeds"):
        augmented_sum_matrix(g, D, ev, tau)
    with pytest.raises(ValueError, match="exceeds the oracle's delay depth"):
        augmented.build_sum_matrix(idx, ev, tau)


def test_returned_matrices_never_alias_the_cached_blocks():
    g, w = random_instance(5, seed=3)
    D, k = 3, 8
    idx = augmented.AugmentedIndex(g, D)
    tau = {e: k - 1 for e in g.edge_list}
    for agent in range(5):
        ev = schedule.Event(k=k, agent=agent, delays={})
        for build, arg in ((augmented.build_sum_matrix, tau),
                           (augmented.build_push_matrix, w)):
            first = build(idx, ev, arg)
            expected = first.copy()
            first[:] = -1.0
            assert np.array_equal(build(idx, ev, arg), expected)
    ev = schedule.Event(k=k, agent=1, delays={})
    assert np.array_equal(augmented.build_sum_matrix(idx, ev, tau),
                          augmented_sum_matrix(g, D, ev, tau))
    assert np.array_equal(augmented.build_push_matrix(idx, ev, w),
                          augmented_push_matrix(g, D, ev, w.A))


@pytest.mark.parametrize("I,D,n,seed", [(2, 0, 1, 0), (3, 2, 1, 1), (5, 4, 2, 2),
                                        (6, 5, 1, 3), (7, 3, 3, 4)])
def test_equivalence_and_masses_equal_the_loop_report(I, D, n, seed):
    g, w = random_instance(I, seed)
    acts = schedule.gen_cyclic_permuted(I, 40, seed=seed + 1)
    sched = schedule.gen_uniform_event_delays(acts, g, D, seed=seed + 2)
    rng = np.random.default_rng(seed + 3)
    z0 = rng.normal(size=(I, n))
    st = pushsum.init(g, w, z0, sched.certified_D)
    aug = augmented.init_augmented(g, z0, sched.certified_D)
    for ev in sched.events:
        eps = 0.1 * rng.normal(size=n)
        pushsum.step(st, ev, eps)
        augmented.step_augmented(aug, ev, w, eps)
        rep = augmented.check_equivalence(st, aug)
        assert (rep.z_diff, rep.phi_diff, rep.edge_diff, rep.edge_phi_diff) == \
            augmented_equivalence(st, aug.z_hat, aug.phi_hat, sched.certified_D)
        z_mass, z_scale, phi_mass, phi_scale = pushsum_masses(st)
        assert np.all(np.abs(pushsum.total_mass(st) - z_mass) <= 1e-15 * z_scale)
        assert abs(pushsum.total_phi_mass(st) - phi_mass) <= 1e-15 * phi_scale


def test_equivalence_flags_a_corrupted_phi_buffer():
    # the in-flight phi mass is compared per edge, so corrupting one phi
    # buffer shows up in the report even though z is untouched
    g, w = random_instance(4, seed=5)
    acts = schedule.gen_cyclic_permuted(4, 10, seed=6)
    sched = schedule.gen_uniform_event_delays(acts, g, 3, seed=7)
    z0 = np.random.default_rng(8).normal(size=(4, 1))
    st = pushsum.init(g, w, z0, sched.certified_D)
    aug = augmented.init_augmented(g, z0, sched.certified_D)
    for ev in sched.events:
        pushsum.step(st, ev)
        augmented.step_augmented(aug, ev, w)
    assert augmented.check_equivalence(st, aug).max_diff <= 1e-12
    e = g.edge_list[0]
    st.sigma_tilde[e] = st.sigma_tilde[e] + 1e-3
    rep = augmented.check_equivalence(st, aug)
    assert rep.edge_phi_diff == pytest.approx(1e-3, rel=1e-9)
    assert rep.edge_diff <= 1e-12
