"""Asynchronous perturbed sum-push over a digraph.

Event-driven state machine: at each global step exactly one agent purges stale
packets, sums unconsumed cumulative masses from its in-edges, pushes shares to
its out-edges through a column-stochastic weight matrix, refreshes its
receive buffers, and reads its estimate off the ratio y = z / phi. The
exogenous per-step perturbation makes the same machine solve average
consensus (zero perturbation) or track time-varying signal averages.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .graph import DiGraph, WeightMatrices
from .schedule import Event, Schedule

PHI_FLOOR = 1e-300


class RatioGuardError(RuntimeError):
    """phi collapsed to the floating-point floor: the schedule starves an agent."""


class _History:
    """Rolling (step, value) changepoints of one cumulative edge quantity.

    Lookups resolve the value in force at a given generation index; entries
    older than the consumed index are pruned, so memory stays proportional to
    the sender's activity inside the delay window instead of the horizon.
    """

    __slots__ = ("steps", "vals")

    def __init__(self, zero):
        self.steps = [-(1 << 60)]
        self.vals = [zero]

    def append(self, step, value):
        self.steps.append(step)
        self.vals.append(value)

    def at(self, step):
        return self.vals[bisect_right(self.steps, step) - 1]

    def current(self):
        return self.vals[-1]

    def prune(self, consumed):
        # future queries never look below the consumed index (monotone purge)
        cut = bisect_right(self.steps, consumed) - 1
        if cut > 0:
            del self.steps[:cut]
            del self.vals[:cut]


@dataclass
class SumPushState:
    g: DiGraph
    A: np.ndarray
    n: int
    z: np.ndarray            # (I, n)
    phi: np.ndarray          # (I,)
    y: np.ndarray            # (I, n)
    rho: dict                # edge (j, i) -> _History of (n,) cumulative mass
    sigma: dict              # edge (j, i) -> _History of float
    rho_tilde: dict          # edge (j, i) -> (n,) consumed-mass buffer
    sigma_tilde: dict
    tau: dict                # edge (j, i) -> age of last consumed packet
    k: int = 0
    D_pad: int = 0
    ratio_skips: int = 0
    in_edges: tuple = ()     # per agent i: ((j, (j, i)), ...) over in-neighbors
    out_edges: tuple = ()    # per agent i: (((i, j), A[j, i]), ...) over out-neighbors


def init(g: DiGraph, weights: WeightMatrices, z0, schedule_D: int) -> SumPushState:
    """Fresh state: z = z0, phi = 1, empty buffers, ages at -schedule_D."""
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    if z0.shape[0] != g.node_count:
        z0 = z0.T
    I, n = z0.shape
    zero_vec = np.zeros(n)
    rho, sigma, rho_tilde, sigma_tilde, tau = {}, {}, {}, {}, {}
    for e in g.edge_list:
        rho[e] = _History(zero_vec)
        sigma[e] = _History(0.0)
        rho_tilde[e] = zero_vec
        sigma_tilde[e] = 0.0
        tau[e] = -schedule_D
    A = weights.A
    in_edges = tuple(tuple((j, (j, i)) for j in g.in_neighbors(i)) for i in range(I))
    out_edges = tuple(tuple(((i, j), A[j, i]) for j in g.out_neighbors(i)) for i in range(I))
    return SumPushState(
        g=g, A=A, n=n,
        z=z0.copy(), phi=np.ones(I), y=z0.copy(),
        rho=rho, sigma=sigma, rho_tilde=rho_tilde, sigma_tilde=sigma_tilde,
        tau=tau, k=0, D_pad=schedule_D, in_edges=in_edges, out_edges=out_edges)


def step(state: SumPushState, event: Event, eps=None) -> SumPushState:
    """One global iteration: purge, sum, push, buffer update, ratio.

    Only the active agent's (z, phi, y), its outgoing cumulative masses and
    its incoming buffers change. A nonpositive (underflowed) phi skips the
    ratio and bumps `ratio_skips` instead of emitting NaN.
    """
    i = event.agent
    k = event.k
    in_edges = state.in_edges[i]
    tau = state.tau

    for j, e in in_edges:
        t = k - event.delays[j]
        if t < -state.D_pad:
            raise ValueError(
                f"event k={k}: delay {event.delays[j]} on edge ({j},{i}) "
                f"precedes the padded history window (D_pad={state.D_pad})")
        if t > tau[e]:
            tau[e] = t

    # sum the unconsumed mass of every in-edge, then mark it consumed; the
    # in-edge histories are disjoint from the out-edges pushed to below
    zhalf = state.z[i].copy() if eps is None else state.z[i] + eps
    phihalf = state.phi[i]
    for j, e in in_edges:
        t = tau[e]
        rho, sigma = state.rho[e], state.sigma[e]
        r, s = rho.at(t), sigma.at(t)
        zhalf += r - state.rho_tilde[e]
        phihalf += s - state.sigma_tilde[e]
        state.rho_tilde[e] = r
        state.sigma_tilde[e] = s
        rho.prune(t)
        sigma.prune(t)

    aii = state.A[i, i]
    state.z[i] = zi = aii * zhalf
    state.phi[i] = phii = aii * phihalf
    for e, a in state.out_edges[i]:
        rho, sigma = state.rho[e], state.sigma[e]
        rho.append(k + 1, rho.current() + a * zhalf)
        sigma.append(k + 1, sigma.current() + a * phihalf)

    if phii <= PHI_FLOOR:
        state.ratio_skips += 1
    else:
        state.y[i] = zi / phii
    state.k = k + 1
    return state


def total_mass(state: SumPushState) -> np.ndarray:
    """System total: sum of agent masses plus unconsumed in-flight mass.

    Read afresh from the state at every call, never kept as a running sum,
    so it stays an independent check of the bookkeeping.
    """
    edges = state.g.edge_list
    sent, consumed = np.array([state.rho[e].current() for e in edges]
                              + [state.rho_tilde[e] for e in edges]).reshape(2, len(edges), state.n)
    return np.concatenate([state.z, sent - consumed]).sum(axis=0)


def total_phi_mass(state: SumPushState) -> float:
    edges = state.g.edge_list
    sent, consumed = np.array([state.sigma[e].current() for e in edges]
                              + [state.sigma_tilde[e] for e in edges]).reshape(2, len(edges))
    return float(np.concatenate([state.phi, sent - consumed]).sum())


class Perturbation:
    """Per-step exogenous perturbation fed to the active agent's sum."""

    def __init__(self, kind, signals=None, sequence=None):
        self.kind = kind
        self.signals = signals
        self.sequence = sequence
        self.u_tilde = None

    @staticmethod
    def zero():
        return Perturbation("zero")

    @staticmethod
    def tracking(signals):
        """Track the running average of per-agent signals.

        `signals` is either an array of shape (K+1, I, n) or a callable
        k -> (I, n). The perturbation at step k is the active agent's signal
        increment since its last activation; z0 must be set to the k=0 signal.
        """
        return Perturbation("tracking", signals=signals)

    @staticmethod
    def custom(sequence):
        """Explicit per-step sequence: array (K, n) or callable k -> (n,)."""
        return Perturbation("custom", sequence=sequence)

    def _signal(self, k):
        if callable(self.signals):
            return np.asarray(self.signals(k), dtype=float)
        return self.signals[k]

    def value(self, k, agent):
        """Perturbation for the step-k event; call exactly once per step."""
        if self.kind == "zero":
            return None
        if self.kind == "custom":
            s = self.sequence(k) if callable(self.sequence) else self.sequence[k]
            return np.atleast_1d(np.asarray(s, dtype=float))
        if self.u_tilde is None:
            self.u_tilde = np.atleast_2d(np.asarray(self._signal(0), dtype=float)).copy()
        u_next = np.atleast_2d(self._signal(k + 1))
        eps = u_next[agent] - self.u_tilde[agent]
        self.u_tilde[agent] = u_next[agent]
        return eps


@dataclass
class ConsensusTrace:
    k: np.ndarray
    active: np.ndarray
    consensus_error: np.ndarray
    mass_error: np.ndarray
    final_y: np.ndarray
    ratio_skips: int = 0


def _relative(err, ref):
    return err / (1.0 + ref)


def run_consensus(g: DiGraph, weights: WeightMatrices, schedule: Schedule, z0) -> ConsensusTrace:
    """Zero-perturbation run; errors are measured against mean(z0)."""
    state = init(g, weights, z0, schedule.certified_D)
    target = state.z.mean(axis=0)
    expected_mass = state.z.sum(axis=0)
    return _run(state, schedule, Perturbation.zero(), target, expected_mass)


def run_tracking(g: DiGraph, weights: WeightMatrices, schedule: Schedule, signals) -> ConsensusTrace:
    """Signal-average tracking run; errors are against the running mean signal."""
    pert = Perturbation.tracking(signals)
    u0 = np.atleast_2d(np.asarray(
        signals(0) if callable(signals) else signals[0], dtype=float))
    state = init(g, weights, u0, schedule.certified_D)
    return _run(state, schedule, pert, None, None)


def _run(state, schedule, pert, target, expected_mass):
    K = schedule.horizon
    ks = np.arange(K)
    active = np.empty(K, dtype=int)
    cons_err = np.empty(K)
    mass_err = np.empty(K)
    eps_sum = np.zeros(state.n)
    tracking = pert.kind == "tracking"
    for ev in schedule.events:
        eps = pert.value(ev.k, ev.agent)
        step(state, ev, eps)
        if state.ratio_skips:
            raise RatioGuardError(
                f"phi underflow at k={ev.k} (agent {ev.agent}): the schedule "
                f"violates the bounded-activation assumption")
        if eps is not None:
            eps_sum += eps
        if tracking:
            tgt = np.atleast_2d(pert._signal(ev.k + 1)).mean(axis=0)
            expect = pert.u_tilde.sum(axis=0)
        else:
            tgt = target
            expect = expected_mass + eps_sum
        active[ev.k] = ev.agent
        cons_err[ev.k] = np.max(np.linalg.norm(state.y - tgt, axis=1))
        mass_err[ev.k] = _relative(
            float(np.linalg.norm(total_mass(state) - expect)),
            float(np.linalg.norm(expect)))
    return ConsensusTrace(k=ks, active=active, consensus_error=cons_err,
                          mass_error=mass_err, final_y=state.y.copy(),
                          ratio_skips=state.ratio_skips)
