"""Delay-free augmented-graph reformulation, used as a verification oracle.

Each edge of the original digraph gets one virtual node per delay value
0..D holding in-flight mass; the asynchronous sum-push step then becomes a
pair of dense S x S linear maps (collect, split-and-shift) on the enlarged
state, S = I + (D+1)|E|. Everything in those maps that does not depend on
the event (the identity, every delay-chain shift, the deep self-loops) is
built once per `AugmentedIndex`; each event copies it and patches only the
active agent's rows and columns. A step then costs two dense S x S products,
so the oracle is meant for small instances: the event-driven engine stays
the production path, this module proves it right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import DiGraph, WeightMatrices
from .schedule import Schedule


class AugmentedIndex:
    """Node enumeration: computing agents 0..I-1, then virtual node (j,i)^d
    at I + d*|E| + edge_position.

    The identity and the event-independent part of the split-and-shift map
    are built here once; the matrix functions below only hand out copies.
    """

    def __init__(self, g: DiGraph, D: int):
        self.g = g
        self.D = D
        self.edge_pos = {e: s for s, e in enumerate(g.edge_list)}
        self.n_edges = len(g.edge_list)
        I = g.node_count
        self.S = I + (D + 1) * self.n_edges
        self.identity = np.eye(self.S)
        # chains[d, s]: virtual node of edge s at delay d. Agents keep their
        # mass, every chain shifts one delay deeper, the deepest accumulates.
        chains = I + self.n_edges * np.arange(D + 1)[:, None] + np.arange(self.n_edges)
        self.shift = np.zeros((self.S, self.S))
        self.shift[:I, :I] = np.eye(I)
        self.shift[chains[1:], chains[:-1]] = 1.0
        self.shift[chains[D], chains[D]] = 1.0
        # per agent: (out-neighbor j, fresh virtual node of edge (i, j))
        self.fresh_out = [tuple((j, self.virtual((i, j), 0)) for j in g.out_neighbors(i))
                          for i in range(I)]

    def virtual(self, edge, d: int) -> int:
        return self.g.node_count + d * self.n_edges + self.edge_pos[edge]


def purge(tau: dict, event) -> dict:
    """Advance `tau` by the purge rule tau = max(tau, k - d) over the event's
    in-edges and return the effective (post-purge) age k - tau per
    in-neighbor. The oracle's own copy of the rule, independent of `pushsum`.
    """
    i, k = event.agent, event.k
    ages = {}
    for j, d in event.delays.items():
        e = (j, i)
        t = k - d
        if t > tau[e]:
            tau[e] = t
        ages[j] = k - tau[e]
    return ages


def build_sum_matrix(idx: AugmentedIndex, event, tau: dict) -> np.ndarray:
    """0/1 collect matrix: the active agent's row absorbs every virtual node
    holding mass it just consumed; all other columns stay put.

    `tau` must already reflect the purge for this event.
    """
    C = idx.identity.copy()
    diag = C.reshape(-1)[::idx.S + 1]
    E = idx.n_edges
    i = event.agent
    k = event.k
    for j in idx.g.in_neighbors(i):
        e = (j, i)
        d_lo = k - tau[e]
        if d_lo > idx.D:
            raise ValueError(
                f"edge ({j},{i}) consumed age {d_lo} exceeds the oracle's delay depth {idx.D}")
        # the edge's chain from delay d_lo down is every E-th node from here
        first = idx.virtual(e, max(0, d_lo))
        diag[first::E] = 0.0
        C[i, first::E] = 1.0
    return C


def build_push_matrix(idx: AugmentedIndex, event, weights: WeightMatrices) -> np.ndarray:
    """Split-and-shift matrix: the active agent's column splits by the
    column-stochastic weights; every delay chain shifts by one, with the
    deepest node accumulating."""
    A = weights.A
    S = idx.shift.copy()
    i = event.agent
    S[i, i] = A[i, i]
    for j, m in idx.fresh_out[i]:
        S[m, i] = A[j, i]
    return S


@dataclass
class AugmentedState:
    idx: AugmentedIndex
    z_hat: np.ndarray    # (S, n)
    phi_hat: np.ndarray  # (S,)
    tau: dict
    k: int = 0


def init_augmented(g: DiGraph, z0, D: int) -> AugmentedState:
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    if z0.shape[0] != g.node_count:
        z0 = z0.T
    idx = AugmentedIndex(g, D)
    n = z0.shape[1]
    z_hat = np.zeros((idx.S, n))
    z_hat[:g.node_count] = z0
    phi_hat = np.zeros(idx.S)
    phi_hat[:g.node_count] = 1.0
    tau = {e: -D for e in g.edge_list}
    return AugmentedState(idx=idx, z_hat=z_hat, phi_hat=phi_hat, tau=tau, k=0)


def step_augmented(aug: AugmentedState, event, weights: WeightMatrices,
                   eps=None) -> AugmentedState:
    """One dense oracle step; evolves tau by the same purge rule as the engine."""
    i = event.agent
    purge(aug.tau, event)
    C = build_sum_matrix(aug.idx, event, aug.tau)
    Sm = build_push_matrix(aug.idx, event, weights)
    z_half = C @ aug.z_hat
    if eps is not None:
        z_half[i] = z_half[i] + eps
    aug.z_hat = Sm @ z_half
    aug.phi_hat = Sm @ (C @ aug.phi_hat)
    aug.k = event.k + 1
    return aug


def transition_matrix(aug: AugmentedState, event, weights: WeightMatrices) -> np.ndarray:
    """Advance tau and return the combined per-event transition (push o sum)."""
    purge(aug.tau, event)
    M = build_push_matrix(aug.idx, event, weights) @ build_sum_matrix(aug.idx, event, aug.tau)
    aug.z_hat = M @ aug.z_hat
    aug.phi_hat = M @ aug.phi_hat
    aug.k = event.k + 1
    return M


@dataclass
class EquivalenceReport:
    z_diff: float
    phi_diff: float
    edge_diff: float
    edge_phi_diff: float = 0.0

    @property
    def max_diff(self) -> float:
        """The largest gap; NaN if any gap is NaN, which `max` alone can drop."""
        diffs = (self.z_diff, self.phi_diff, self.edge_diff, self.edge_phi_diff)
        total = sum(diffs)  # NaN iff some gap is NaN: the gaps are >= 0
        return max(diffs) if total == total else total


def check_equivalence(st, aug: AugmentedState) -> EquivalenceReport:
    """Compare a push-sum state against the oracle evolved from the same data.

    Besides the computing agents' z and phi, the per-edge unconsumed mass
    (sender cumulative minus receiver buffer) must equal the summed mass
    sitting on that edge's virtual nodes, for z and for phi. Both sides are
    laid out as [z | phi] rows, agents first, then edges, and compared in one
    difference.
    """
    I, n, E = st.g.node_count, st.n, len(st.g.edge_list)
    oracle = np.concatenate([aug.z_hat, aug.phi_hat[:, None]], axis=1)
    onway = oracle[I:].reshape(aug.idx.D + 1, E, n + 1).sum(axis=0)
    gap = abs(np.concatenate([st.zp, st.sent - st.consumed])
              - np.concatenate([oracle[:I], onway]))
    agents, edges = gap[:I], gap[I:]
    return EquivalenceReport(
        z_diff=float(agents[:, :n].max()), phi_diff=float(agents[:, n].max()),
        edge_diff=float(edges[:, :n].max(initial=0.0)),
        edge_phi_diff=float(edges[:, n].max(initial=0.0)))


def scrambling_lower_bound(g: DiGraph, weights: WeightMatrices, schedule: Schedule,
                           start: int, window: int = None) -> tuple:
    """Min entry of the first I rows of the transition product over a window.

    The window defaults to K1 = (2I - 1) T + I D computed from the schedule's
    certificates. Returns (min_entry, m_bar ** K1); the first must dominate
    the second on any window drawn from a certified schedule.
    """
    I = g.node_count
    T, D = schedule.certified_T, schedule.certified_D
    K1 = window if window is not None else (2 * I - 1) * T + I * D
    if start + K1 > schedule.horizon:
        raise ValueError("window extends past the schedule horizon")
    aug = init_augmented(g, np.zeros((I, 1)), D)
    for ev in schedule.events[:start]:
        transition_matrix(aug, ev, weights)
    P = None
    for ev in schedule.events[start:start + K1]:
        M = transition_matrix(aug, ev, weights)
        P = M if P is None else M @ P
    return float(P[:I].min()), float(weights.m_bar ** K1)


# ---------------------------------------------------------------------------
# x-consensus path oracle
# ---------------------------------------------------------------------------

def build_consensus_matrix(g: DiGraph, weights: WeightMatrices, event,
                           effective_delays: dict, D: int) -> np.ndarray:
    """Row-stochastic transition of the stacked (x, v, v^-1, ..., v^-D) vector.

    The active agent's row mixes its own descent slot with delayed v-blocks;
    inactive agent rows are identity; the v-history shifts down one block.
    `effective_delays` are the post-purge ages (k - tau) per in-neighbor.
    """
    I = g.node_count
    W = weights.W
    size = (D + 2) * I
    Wh = np.zeros((size, size))
    i = event.agent
    Wh[i, i] = W[i, i]
    for j in g.in_neighbors(i):
        d = effective_delays[j]
        if not (0 <= d <= D):
            raise ValueError(f"effective delay {d} outside [0, {D}]")
        Wh[i, j + (d + 1) * I] = W[i, j]
    for r in range(2 * I):
        if r != i and r != i + I:
            Wh[r, r] = 1.0
    for r in range(2 * I, size):
        Wh[r, r - I] = 1.0
    Wh[i + I, i] = 1.0
    return Wh


def consensus_window_product(g: DiGraph, weights: WeightMatrices, schedule: Schedule,
                             start: int, window: int = None) -> tuple:
    """Product of consensus transitions over a window, with its guaranteed
    lower bound on the first I columns. Mirrors `scrambling_lower_bound`."""
    I = g.node_count
    T, D = schedule.certified_T, schedule.certified_D
    K1 = window if window is not None else (2 * I - 1) * T + I * D
    if start + K1 > schedule.horizon:
        raise ValueError("window extends past the schedule horizon")
    tau = {e: -D for e in g.edge_list}
    P = None
    for ev in schedule.events:
        if ev.k >= start + K1:
            break
        eff = purge(tau, ev)
        if ev.k >= start:
            M = build_consensus_matrix(g, weights, ev, eff, D)
            P = M if P is None else M @ P
    return float(P[:, :I].min()), float(weights.m_bar ** K1)
