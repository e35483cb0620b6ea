"""Asynchronous gradient-tracking optimizer over digraphs.

Each event runs one agent through local descent, a consensus mix of delayed
neighbor descent states, and a sum-push gradient-tracking update whose
perturbation is the agent's own gradient increment. The same purged age
counter gates both the consensus inputs and the tracking masses.

The purge depends only on the schedule, never on agent state, so `run`
compiles the schedule once (`schedule.compile`): every delayed read becomes
the sender activation count it consumes. The state lives in arrays: the
descent states each agent publishes and the cumulative tracking mass pushed
on each edge sit in rings indexed by the sender's activation count mod S.
The compiled schedule splits the events into batches of mutually independent
events, and one batch core gathers, mixes, pushes and scatters a whole batch
with numpy operations, in the same per-event arithmetic order as one event
at a time. Every record point ends a batch, so each recorded row sees the
exact sequential state. `step` runs one event through the same core.
Synchronous baselines (the lockstep ratio-tracking iteration and the
parallel Jacobi round) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics as _metrics
from . import schedule as _schedule
from .graph import DiGraph, WeightMatrices
from .objectives import Objective
from .schedule import Schedule


class DivergenceError(RuntimeError):
    """Iterates blew past the guard radius: the step size is too large."""


@dataclass(frozen=True)
class StepSizePolicy:
    """Constant step, or a per-agent diminishing sequence on local clocks.

    The local rule alpha <- alpha * (1 - c * alpha) is applied each time an
    agent activates, so uncoordinated agents consume their own copies of one
    decaying sequence without any shared counter.
    """

    kind: str
    gamma: float = 0.0
    alpha0: float = 0.0
    c: float = 0.0

    @staticmethod
    def constant(gamma: float) -> "StepSizePolicy":
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        return StepSizePolicy(kind="constant", gamma=gamma)

    @staticmethod
    def local_diminishing(alpha0: float, c: float) -> "StepSizePolicy":
        if alpha0 <= 0 or c <= 0 or c * alpha0 >= 1:
            raise ValueError("need alpha0 > 0, c > 0 and c * alpha0 < 1")
        return StepSizePolicy(kind="local-diminishing", alpha0=alpha0, c=c)


@dataclass
class OptState:
    """Engine state. Edges are numbered as in `g.edge_list` (sorted by sender).

    The rings have `depth` S slots per agent or edge; the value of activation
    count c sits in slot c % S. Zero rows that padded reads of the batch core
    point at: the last row of `v_ring`, row E of every rho ring slot and of
    `rho_tilde`, whose `w_edge`/`a_edge` weight is zero too.
    """

    g: DiGraph
    objective: Objective
    n: int
    x: np.ndarray           # (I, n)
    z: np.ndarray           # (I, n) tracking variables
    grad_cache: np.ndarray  # (I, n), gradient of f_i at x_i
    v_ring: np.ndarray      # (S*I + 1, n) descent states, row (count % S) * I + agent
    rho_ring: np.ndarray    # (S*(E+1), n) cumulative tracking mass, row (sender count % S) * (E+1) + edge
    rho_tilde: np.ndarray   # (E + 1, n) tracking mass consumed on each edge
    # read resolution of event-by-event `step`; a compiled run needs none of it
    published: np.ndarray   # (S, I) generation index from which each count is readable
    consumed: np.ndarray    # (E,) sender count consumed on the tracking stream
    consumed_v: np.ndarray  # (E,) the same on the consensus stream (aliased when coupled)
    edge_src: np.ndarray    # (E,) sender of each edge
    edge_id: dict           # (j, i) -> edge index
    w_self: np.ndarray      # (I,) diagonal of W
    a_self: np.ndarray      # (I,) diagonal of A
    w_edge: np.ndarray      # (E + 1,) W[i, j] of edge (j, i)
    a_edge: np.ndarray      # (E + 1,) A[i, j] of edge (j, i)
    alpha: np.ndarray       # (I,) current local step values
    t_local: np.ndarray     # (I,) activation counts
    depth: int
    k: int = 0
    D_pad: int = 0
    couple_delays: bool = True

    @property
    def v_hist(self) -> list:
        """Per-agent handles on the published descent states."""
        return [_Published(self, i) for i in range(self.g.node_count)]


class _Published:
    """One agent's published descent state."""

    def __init__(self, state: OptState, agent: int):
        self.state = state
        self.agent = agent

    def append(self, step: int, value) -> None:
        """Publish `value` as the agent's descent state from generation `step` on.

        The ring keeps one value per activation count, so `step` may not
        precede the agent's latest activation, whose value this replaces.
        """
        st, i = self.state, self.agent
        row = int(st.t_local[i]) % st.depth
        if step < st.published[row, i]:
            raise ValueError(f"agent {i} last published at generation "
                             f"{st.published[row, i]}, after {step}")
        st.v_ring[row * st.g.node_count + i] = value


def init(objective: Objective, g: DiGraph, weights: WeightMatrices, x0,
         schedule_D: int, policy: StepSizePolicy = None,
         couple_delays: bool = True, depth: int = None) -> OptState:
    """Seed tracking variables with local gradients; zero the published states.

    `depth` is the ring depth S. `run` passes its compiled schedule's; the
    default schedule_D + 2 holds every value a read can need while delays
    stay within schedule_D.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    I, n = x0.shape
    if I != g.node_count:
        raise ValueError("x0 must provide one row per agent")
    S = schedule_D + 2 if depth is None else depth
    E = len(g.edge_list)
    src = np.array([j for j, _ in g.edge_list], dtype=np.intp)
    dst = np.array([i for _, i in g.edge_list], dtype=np.intp)
    grad0 = np.vstack([objective.grad_i(i, x0[i]) for i in range(I)])
    published = np.full((S, I), np.iinfo(np.int64).max)
    published[0] = np.iinfo(np.int64).min
    consumed = np.zeros(E, dtype=np.intp)
    alpha0 = policy.alpha0 if (policy and policy.kind == "local-diminishing") else 0.0
    return OptState(
        g=g, objective=objective, n=n, x=x0.copy(), z=grad0.copy(), grad_cache=grad0,
        v_ring=np.zeros((S * I + 1, n)), rho_ring=np.zeros((S * (E + 1), n)),
        rho_tilde=np.zeros((E + 1, n)), published=published, consumed=consumed,
        consumed_v=consumed if couple_delays else consumed.copy(),
        edge_src=src, edge_id={e: m for m, e in enumerate(g.edge_list)},
        w_self=np.diag(weights.W).copy(), a_self=np.diag(weights.A).copy(),
        w_edge=np.append(weights.W[dst, src], 0.0),
        a_edge=np.append(weights.A[dst, src], 0.0),
        alpha=np.full(I, alpha0), t_local=np.zeros(I, dtype=np.intp),
        depth=S, k=0, D_pad=schedule_D, couple_delays=couple_delays)


@dataclass
class _Plan:
    """A compiled schedule laid out as rows of the rings of its depth.

    Row b of `bounds` holds where batch b starts: its first event, its first
    padded in-edge read and its first out-edge push; row b + 1 where it ends.
    The in-edge reads of a batch are laid out rank-major (every event's first
    in-edge, then every event's second, ...) and padded to the batch's
    largest in-degree with reads of the zero rows.
    """

    bounds: np.ndarray      # (B + 1, 3)
    agent: np.ndarray
    v_write: np.ndarray     # v_ring row of each event's new descent state
    v_read: np.ndarray
    rho_read: np.ndarray
    out_write: np.ndarray   # rho_ring row each push writes
    out_event: np.ndarray   # event that pushes it


def _plan(cs: _schedule.CompiledSchedule, g: DiGraph) -> _Plan:
    S, I, E = cs.depth, g.node_count, len(g.edge_list)
    K, cuts = cs.agent.size, cs.batches
    width = np.diff(cuts)
    deg = np.diff(cs.indptr)
    ranks = np.maximum.reduceat(deg, cuts[:-1]) if K else width
    pad_off = np.zeros(width.size + 1, dtype=np.int64)
    np.cumsum(ranks * width, out=pad_off[1:])
    ev = np.repeat(np.arange(K, dtype=np.int32), deg)
    batch = np.repeat(np.arange(width.size, dtype=np.int32), width)[ev]
    pos = np.arange(ev.size, dtype=np.int32) - cs.indptr[ev]
    pos *= width[batch]
    pos += (pad_off[:-1] - cuts[:-1]).astype(np.int32)[batch]
    pos += ev
    del ev, batch
    v_read = np.full(pad_off[-1], S * I, dtype=np.int32)
    v_read[pos] = cs.consumed_v % S * I + cs.sender
    rho_read = np.full(pad_off[-1], E, dtype=np.int32)
    rho_read[pos] = cs.consumed % S * (E + 1) + cs.edge
    del pos

    # edge_list is sorted by sender, so an agent's out-edges are consecutive ids
    out_ptr, out_event, out_write = _schedule._expand(_schedule._edge_lists(g)[3], cs.agent)
    out_write += ((cs.count + 1) % S * (E + 1))[out_event]
    return _Plan(
        bounds=np.column_stack([cuts, pad_off, out_ptr[cuts]]).astype(np.int32),
        agent=cs.agent, v_write=(cs.count + 1) % S * I + cs.agent, v_read=v_read,
        rho_read=rho_read, out_write=out_write, out_event=out_event)


def _advance(st: OptState, p: _Plan, b: int, policy: StepSizePolicy):
    """Apply batch b of plan p; returns the step sizes used and the new x rows.

    Every event of a batch reads only values in force before the batch, so
    all reads are gathered first and all writes scattered after. Sums run in
    the sequential per-event order: own term first, then in-edges in order.
    """
    (lo, q0, o0), (hi, q1, o1) = p.bounds[b:b + 2].tolist()
    a = p.agent[lo:hi]
    B, n, E1 = hi - lo, st.n, st.edge_src.size + 1
    if policy.kind == "constant":
        gam = policy.gamma
        v_new = st.x[a] - gam * st.z[a]
    else:
        gam = st.alpha[a]
        st.alpha[a] = gam * (1.0 - policy.c * gam)
        v_new = st.x[a] - gam[:, None] * st.z[a]

    rr = p.rho_read[q0:q1]
    pe = rr % E1
    terms = np.empty(((q1 - q0) // B + 1, B, n))
    flat = terms[1:].reshape(-1, n)
    np.multiply(st.w_self[a, None], v_new, out=terms[0])
    np.take(st.v_ring, p.v_read[q0:q1], axis=0, out=flat, mode="clip")
    flat *= st.w_edge[pe, None]
    x_new = terms.sum(axis=0)

    g_new = np.empty_like(x_new)
    grad_i = st.objective.grad_i
    for c, i in enumerate(a.tolist()):
        g_new[c] = grad_i(i, x_new[c])

    np.add(st.z[a], g_new - st.grad_cache[a], out=terms[0])
    np.take(st.rho_ring, rr, axis=0, out=flat, mode="clip")
    consumed_before = st.rho_tilde[pe]
    st.rho_tilde[pe] = flat
    flat -= consumed_before
    zhalf = terms.sum(axis=0)
    st.z[a] = st.a_self[a, None] * zhalf

    ow = p.out_write[o0:o1]
    pushed = zhalf[p.out_event[o0:o1] - lo]
    pushed *= st.a_edge[ow % E1, None]
    st.rho_ring[ow] = st.rho_ring[(ow - E1) % st.rho_ring.shape[0]] + pushed
    st.v_ring[p.v_write[lo:hi]] = v_new
    st.x[a] = x_new
    st.grad_cache[a] = g_new
    st.t_local[a] += 1
    return gam, x_new


def _purged_count(st: OptState, k: int, j: int, i: int, d: int, current: int) -> int:
    """Sender j's count at the purged index max(tau, k - d), read off the
    published generations; raises when the ring no longer holds it."""
    t = k - d
    if d < 0 or t < -st.D_pad:
        raise ValueError(f"event k={k}: delay {d} on edge ({j},{i}) is negative or "
                         f"precedes the padded history window (D_pad={st.D_pad})")
    S, pub = st.depth, st.published[:, j]
    c = int(st.t_local[j])
    floor = max(int(current), c - S + 1)
    while c > floor and pub[c % S] > t:
        c -= 1
    if c > current and pub[c % S] > t:
        raise ValueError(f"event k={k}: delay {d} on edge ({j},{i}) reaches past the "
                         f"{S} states the history ring holds")
    return c


def _compile_event(st: OptState, event) -> _schedule.CompiledSchedule:
    """`schedule.compile` for one event, resolved against the state."""
    i, k = event.agent, event.k
    ins = st.g.in_neighbors(i)
    edge = [st.edge_id[(j, i)] for j in ins]
    consumed = [_purged_count(st, k, j, i, event.delays[j], st.consumed[e])
                for j, e in zip(ins, edge)]
    consumed_v = consumed
    if not st.couple_delays:
        vd = event.v_delays or event.delays
        consumed_v = [_purged_count(st, k, j, i, vd[j], st.consumed_v[e])
                      for j, e in zip(ins, edge)]
    arrays = (np.array(v, dtype=np.int32) for v in (
        [i], [st.t_local[i]], [0, len(ins)], ins, edge, consumed, consumed_v, [0, 1]))
    return _schedule.CompiledSchedule(*arrays, depth=st.depth)


def step(state: OptState, event, policy: StepSizePolicy) -> float:
    """One global iteration; returns the step size the active agent used.

    The event runs through the batch core as a batch of one. Its reads are
    resolved against the state, which therefore also records the consumed
    counts and the generation from which the new descent state is readable.
    """
    cs = _compile_event(state, event)
    gam, _ = _advance(state, _plan(cs, state.g), 0, policy)
    state.consumed[cs.edge] = cs.consumed
    state.consumed_v[cs.edge] = cs.consumed_v
    state.published[state.t_local[event.agent] % state.depth, event.agent] = event.k + 1
    state.k = event.k + 1
    return gam if policy.kind == "constant" else float(gam[0])


def tracking_mass_residual(state: OptState) -> float:
    """Relative gap in the invariant: agent plus in-flight tracking mass
    equals the sum of current local gradients."""
    E = state.edge_src.size
    current = state.rho_ring[state.t_local[state.edge_src] % state.depth * (E + 1)
                             + np.arange(E)]
    m = np.concatenate([state.z, current - state.rho_tilde[:E]]).sum(axis=0)
    target = state.grad_cache.sum(axis=0)
    return float(np.linalg.norm(m - target) / (1.0 + np.linalg.norm(target)))


@dataclass
class OptTrace:
    k: np.ndarray
    round: np.ndarray
    Msc: np.ndarray
    MF: np.ndarray
    J: np.ndarray
    mass_residual: np.ndarray
    gamma: np.ndarray
    final_x: np.ndarray

    def rows(self):
        for t in range(len(self.k)):
            yield (int(self.k[t]), int(self.round[t]), self.Msc[t], self.MF[t],
                   self.J[t], self.mass_residual[t], self.gamma[t])


def _record(objective, state_x, x_star, mass_res, gamma):
    msc = _metrics.merit_Msc(state_x, x_star) if x_star is not None else np.nan
    return (msc, _metrics.merit_MF(state_x, objective), msc / state_x.shape[0],
            mass_res, gamma)


def run(objective: Objective, g: DiGraph, weights: WeightMatrices,
        schedule: Schedule, policy: StepSizePolicy, x0,
        metrics_stride: int = 1, round_index=None,
        couple_delays: bool = True) -> OptTrace:
    """Drive the engine through a certified schedule, recording merit traces.

    The schedule is compiled once and run batch by batch. Metric rows are
    emitted every `metrics_stride` events (plus the final one). Aborts with
    DivergenceError at the first event whose iterate leaves the guard radius
    or is not finite.
    """
    K, I = schedule.horizon, g.node_count
    ks = np.arange(0, K, metrics_stride)
    if K and ks[-1] != K - 1:
        ks = np.append(ks, K - 1)
    cs = _schedule.compile(schedule, g, couple_delays, stops=ks)
    plan, depth = _plan(cs, g), cs.depth
    del cs
    state = init(objective, g, weights, x0, schedule.certified_D, policy,
                 couple_delays=couple_delays, depth=depth)
    guard = 1e8 * (1.0 + float(np.linalg.norm(state.x)))
    cut = plan.bounds[:, 0]
    rows = np.empty((5, ks.size))  # Msc, MF, J, mass residual, gamma
    r = 0
    for b in range(cut.size - 1):
        gam, x_new = _advance(state, plan, b, policy)
        inside = np.linalg.norm(x_new, axis=1) <= guard
        if not inside.all():
            raise DivergenceError(
                f"iterate norm exceeded guard or is not finite at "
                f"k={cut[b] + np.argmin(inside)}; reduce the step size")
        if r < ks.size and cut[b + 1] > ks[r]:  # the batch ends at record point ks[r]
            rows[:, r] = _record(objective, state.x, objective.x_star,
                                 tracking_mass_residual(state),
                                 gam if policy.kind == "constant" else gam[-1])
            r += 1
    rounds = (np.asarray(round_index)[ks].astype(np.int64) if round_index is not None
              else ks // I + 1)
    return OptTrace(k=ks, round=rounds, Msc=rows[0], MF=rows[1], J=rows[2],
                    mass_residual=rows[3], gamma=rows[4], final_x=state.x.copy())


def induced_global_steps(schedule: Schedule, policy: StepSizePolicy) -> np.ndarray:
    """Global step sequence gamma^k produced by uncoordinated local clocks."""
    if policy.kind != "local-diminishing":
        raise ValueError("induced steps are defined for the local-diminishing policy")
    alpha = np.full(schedule.n_agents, policy.alpha0)
    out = np.empty(schedule.horizon)
    for k, i in enumerate(schedule.agent.tolist()):
        out[k] = a = alpha[i]
        alpha[i] = a * (1.0 - policy.c * a)
    return out


# ---------------------------------------------------------------------------
# synchronous baselines
# ---------------------------------------------------------------------------

def sync_tracking_run(objective: Objective, g: DiGraph, weights: WeightMatrices,
                    alpha_sequence, x0, rounds: int) -> OptTrace:
    """Lockstep baseline: descent-and-mix on x, ratio push-sum tracking on z/phi.

    `alpha_sequence` is a constant, an array indexed by round, or a callable
    round -> step size.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    I, n = x0.shape
    W, A = weights.W, weights.A
    x = x0.copy()
    grads = np.vstack([objective.grad_i(i, x[i]) for i in range(I)])
    z = grads.copy()
    y = grads.copy()
    phi = np.ones(I)
    guard = 1e8 * (1.0 + float(np.linalg.norm(x0)))

    def alpha_at(r):
        if callable(alpha_sequence):
            return float(alpha_sequence(r))
        if np.ndim(alpha_sequence) == 0:
            return float(alpha_sequence)
        return float(alpha_sequence[r])

    ks, rows = np.arange(rounds), np.empty((5, rounds))  # Msc, MF, J, mass residual, gamma
    for r in range(rounds):
        a_r = alpha_at(r)
        x = W @ (x - a_r * y)
        new_grads = np.vstack([objective.grad_i(i, x[i]) for i in range(I)])
        z = A @ z + (new_grads - grads)
        phi = A @ phi
        y = z / phi[:, None]
        grads = new_grads
        if float(np.linalg.norm(x)) > guard:
            raise DivergenceError(f"synchronous iterate diverged at round {r}")
        res = float(np.linalg.norm(z.sum(axis=0) - grads.sum(axis=0))
                    / (1.0 + np.linalg.norm(grads.sum(axis=0))))
        rows[:, r] = _record(objective, x, objective.x_star, res, a_r)
    return OptTrace(k=ks, round=ks + 1, Msc=rows[0], MF=rows[1], J=rows[2],
                    mass_residual=rows[3], gamma=rows[4], final_x=x.copy())


def run_parallel_rounds(objective: Objective, g: DiGraph, weights: WeightMatrices,
                        gamma: float, x0, rounds: int):
    """Synchronous parallel (Jacobi) execution of the asynchronous update map.

    Every agent simultaneously applies one full event using the previous
    round's snapshot of every other agent's state. The event-driven engine
    under a `jacobi_rounds` schedule reproduces this trajectory exactly,
    regardless of the within-round serialization order.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    I, n = x0.shape
    W, A = weights.W, weights.A
    x = x0.copy()
    grads = np.vstack([objective.grad_i(i, x[i]) for i in range(I)])
    z = grads.copy()
    v_prev = np.zeros((I, n))
    rho = {e: np.zeros(n) for e in g.edge_list}
    rho_tilde = {e: np.zeros(n) for e in g.edge_list}
    xs = [x.copy()]
    zs = [z.copy()]
    for _ in range(rounds):
        v_new = x - gamma * z
        x_next = np.empty_like(x)
        zhalf = np.empty_like(z)
        for i in range(I):
            acc = W[i, i] * v_new[i]
            for j in g.in_neighbors(i):
                acc = acc + W[i, j] * v_prev[j]
            x_next[i] = acc
        new_grads = np.vstack([objective.grad_i(i, x_next[i]) for i in range(I)])
        for i in range(I):
            s = z[i] + (new_grads[i] - grads[i])
            for j in g.in_neighbors(i):
                e = (j, i)
                s = s + (rho[e] - rho_tilde[e])
            zhalf[i] = s
        z_next = np.empty_like(z)
        rho_next = dict(rho)
        for i in range(I):
            z_next[i] = A[i, i] * zhalf[i]
            for j in g.out_neighbors(i):
                e = (i, j)
                rho_next[e] = rho[e] + A[j, i] * zhalf[i]
        for e in g.edge_list:
            rho_tilde[e] = rho[e]
        rho = rho_next
        v_prev, x, z, grads = v_new, x_next, z_next, new_grads
        xs.append(x.copy())
        zs.append(z.copy())
    return xs, zs
