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
    """Rolling (step, value) changepoints of one edge's cumulative [z | phi] mass.

    `take` resolves the value in force at a generation index and prunes the
    entries older than it, so memory stays proportional to the sender's
    activity inside the delay window instead of the horizon.
    """

    __slots__ = ("steps", "vals")

    def __init__(self, zero):
        self.steps = [-(1 << 60)]
        self.vals = [zero]

    def append(self, step, value):
        self.steps.append(step)
        self.vals.append(value)

    def take(self, step):
        # future reads never look below a consumed index (monotone purge)
        cut = bisect_right(self.steps, step) - 1
        value = self.vals[cut]
        if cut > 0:
            del self.steps[:cut]
            del self.vals[:cut]
        return value


class _EdgeMap:
    """Edge-keyed view of per-edge rows (edges numbered as in `g.edge_list`):
    reads copy out, writes go through. With `current`, items answer
    `.current()` like the cumulative-mass histories they stand for."""

    def __init__(self, pos, rows, col=None, current=False):
        self.pos, self.rows, self.col, self.current = pos, rows, col, current

    def __getitem__(self, e):
        if self.col is None:
            return self.rows[self.pos[e]]
        v = self.rows[self.pos[e], self.col].copy()
        return _Current(v) if self.current else v

    def __setitem__(self, e, value):
        if self.col is None:
            self.rows[self.pos[e]] = value
        else:
            self.rows[self.pos[e], self.col] = value


class _Current:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def current(self):
        return self.value


@dataclass
class SumPushState:
    """Agent masses `zp` = [z | phi] (I, n+1); per edge id (as in
    `g.edge_list`), `sent` is the sender's cumulative [z | phi] mass and
    `consumed` what the receiver has taken, both (E, n+1); `hist` holds each
    edge's changepoints for the delayed reads and `taus` its consumed age.
    `z`, `phi`, `rho`, `sigma`, `rho_tilde`, `sigma_tilde` and `tau` are
    views of these arrays keyed by agent or edge (j, i)."""
    g: DiGraph
    A: np.ndarray
    n: int
    zp: np.ndarray
    y: np.ndarray            # (I, n)
    sent: np.ndarray
    consumed: np.ndarray
    hist: list
    taus: list
    edge_pos: dict           # edge (j, i) -> edge id
    eps_row: np.ndarray      # (n+1,) scratch row [eps | 0] for the perturbation
    k: int = 0
    D_pad: int = 0
    ratio_skips: int = 0
    in_edges: tuple = ()     # per agent i: ((j, id of (j, i)), ...) over in-neighbors
    out_edges: tuple = ()    # per agent i: ((id of (i, j), A[j, i]), ...) over out-neighbors

    z = property(lambda self: self.zp[:, :self.n])
    phi = property(lambda self: self.zp[:, self.n])
    rho = property(lambda self: _EdgeMap(self.edge_pos, self.sent, slice(0, self.n), True))
    sigma = property(lambda self: _EdgeMap(self.edge_pos, self.sent, self.n, True))
    rho_tilde = property(lambda self: _EdgeMap(self.edge_pos, self.consumed, slice(0, self.n)))
    sigma_tilde = property(lambda self: _EdgeMap(self.edge_pos, self.consumed, self.n))
    tau = property(lambda self: _EdgeMap(self.edge_pos, self.taus))


def init(g: DiGraph, weights: WeightMatrices, z0, schedule_D: int) -> SumPushState:
    """Fresh state: z = z0, phi = 1, empty buffers, ages at -schedule_D."""
    z0 = np.atleast_2d(np.asarray(z0, dtype=float))
    if z0.shape[0] != g.node_count:
        z0 = z0.T
    I, n = z0.shape
    E, A = len(g.edge_list), weights.A
    pos = {e: s for s, e in enumerate(g.edge_list)}
    zero = np.zeros(n + 1)
    in_edges = tuple(tuple((j, pos[(j, i)]) for j in g.in_neighbors(i)) for i in range(I))
    out_edges = tuple(tuple((pos[(i, j)], A[j, i]) for j in g.out_neighbors(i)) for i in range(I))
    return SumPushState(
        g=g, A=A, n=n, zp=np.column_stack([z0, np.ones(I)]), y=z0.copy(),
        sent=np.zeros((E, n + 1)), consumed=np.zeros((E, n + 1)),
        hist=[_History(zero) for _ in range(E)], taus=[-schedule_D] * E, edge_pos=pos,
        eps_row=np.zeros(n + 1), k=0, D_pad=schedule_D, in_edges=in_edges, out_edges=out_edges)


def step(state: SumPushState, event: Event, eps=None) -> SumPushState:
    """One global iteration: purge, sum, push, buffer update, ratio.

    Only the active agent's (z, phi, y), its outgoing cumulative masses and
    its incoming buffers change; z and phi move together as one [z | phi]
    row. A nonpositive (underflowed) phi skips the ratio and bumps
    `ratio_skips` instead of emitting NaN.
    """
    i = event.agent
    k = event.k
    delays = event.delays
    n, zp, taus, hist, consumed = state.n, state.zp, state.taus, state.hist, state.consumed

    if eps is None:
        half = zp[i].copy()
    else:
        state.eps_row[:n] = eps      # phi's column stays 0.0
        half = zp[i] + state.eps_row
    # purge, then sum the unconsumed mass of every in-edge and mark it
    # consumed; the in-edges are disjoint from the out-edges pushed to below
    for j, e in state.in_edges[i]:
        d = delays[j]
        t = k - d
        if d < 0 or t < -state.D_pad:
            raise ValueError(
                f"event k={k}: delay {d} on edge ({j},{i}) is negative or "
                f"precedes the padded history window (D_pad={state.D_pad})")
        if t > taus[e]:
            taus[e] = t
        r = hist[e].take(taus[e])
        half += r - consumed[e]
        consumed[e] = r

    zp[i] = state.A[i, i] * half
    sent = state.sent
    for e, a in state.out_edges[i]:
        sent[e] = r = sent[e] + a * half
        hist[e].append(k + 1, r)

    phii = zp[i, n]
    if phii <= PHI_FLOOR:
        state.ratio_skips += 1
    else:
        state.y[i] = zp[i, :n] / phii
    state.k = k + 1
    return state


def _in_system(state: SumPushState) -> np.ndarray:
    """Agent rows, then each edge's unconsumed mass, as [z | phi] columns.

    Read afresh from the state at every call, never kept as a running sum,
    so it stays an independent check of the bookkeeping. Callers slice the
    columns before summing, so each sum adds in the order of that column
    alone, not of the wider row.
    """
    return np.concatenate([state.zp, state.sent - state.consumed])


def total_mass(state: SumPushState) -> np.ndarray:
    """System total: sum of agent masses plus unconsumed in-flight mass."""
    return _in_system(state)[:, :state.n].sum(axis=0)


def total_phi_mass(state: SumPushState) -> float:
    return float(_in_system(state)[:, state.n].sum())


@dataclass
class ConsensusTrace:
    k: np.ndarray
    active: np.ndarray
    consensus_error: np.ndarray
    mass_error: np.ndarray
    final_y: np.ndarray


def run_consensus(g: DiGraph, weights: WeightMatrices, schedule: Schedule, z0) -> ConsensusTrace:
    """Zero-perturbation run; errors are measured against mean(z0)."""
    return _run(g, weights, schedule, z0, None)


def run_tracking(g: DiGraph, weights: WeightMatrices, schedule: Schedule, signals) -> ConsensusTrace:
    """Track the running average of per-agent signals.

    `signals` is an array of shape (K+1, I, n) or a callable k -> (I, n).
    Errors are against the mean signal in force after each step.
    """
    signal = signals if callable(signals) else signals.__getitem__
    return _run(g, weights, schedule, signal(0), signal)


def _run(g, weights, schedule, u0, signal):
    """Feed each active agent its signal increment since its last activation
    (none when `signal` is None: consensus tracks the held z0)."""
    state = init(g, weights, u0, schedule.certified_D)
    held = state.z.copy()    # each agent's last fed-in signal
    target, expect = held.mean(axis=0), held.sum(axis=0)
    K = schedule.horizon
    active, cons_err, mass_err = np.empty(K, dtype=int), np.empty(K), np.empty(K)
    for ev in schedule.events:
        i, eps = ev.agent, None
        if signal is not None:
            u = np.atleast_2d(np.asarray(signal(ev.k + 1), dtype=float))
            eps = u[i] - held[i]
            held[i] = u[i]
            target, expect = u.mean(axis=0), held.sum(axis=0)
        step(state, ev, eps)
        if state.ratio_skips:
            raise RatioGuardError(
                f"phi underflow at k={ev.k} (agent {i}): the schedule "
                f"violates the bounded-activation assumption")
        active[ev.k] = i
        cons_err[ev.k] = np.max(np.linalg.norm(state.y - target, axis=1))
        mass_err[ev.k] = (float(np.linalg.norm(total_mass(state) - expect))
                          / (1.0 + float(np.linalg.norm(expect))))
    return ConsensusTrace(k=np.arange(K), active=active, consensus_error=cons_err,
                          mass_error=mass_err, final_y=state.y.copy())
