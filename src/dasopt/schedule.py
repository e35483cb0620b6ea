"""Activation schedules and bounded-delay models (global-view events).

A schedule is a finite list of events (k, active agent, per-in-neighbor
delays). Delays are expressed on the global iteration counter: an event with
delay d for in-neighbor j means the active agent's freshest available
information from j carries generation index k - d. Physical traveling-time
and packet-loss models are translated into these global-index delays by
`assign_delays`.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .graph import DiGraph


class UnboundedDelayError(ValueError):
    pass


@dataclass(frozen=True)
class Event:
    k: int
    agent: int
    delays: dict  # j -> d_j^k >= 0 for every in-neighbor j of `agent`
    v_delays: dict = None  # optional separate ages for the consensus stream


@dataclass(frozen=True)
class Schedule:
    events: tuple
    horizon: int
    n_agents: int
    certified_T: int
    certified_D: int
    covering_ok: bool = True  # False when no window of any length covers all agents
    lost_packets: tuple = ()  # ((j, i), stamp) pairs dropped by the loss model

    def __len__(self):
        return self.horizon

    def to_text(self) -> str:
        """Replay trace: one `k agent j:d_j ...` line per event."""
        lines = []
        for ev in self.events:
            parts = [str(ev.k), str(ev.agent)]
            parts += [f"{j}:{d}" for j, d in sorted(ev.delays.items())]
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Schedule":
        events = []
        for ln in text.splitlines():
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            toks = ln.split()
            k, agent = int(toks[0]), int(toks[1])
            delays = {}
            for t in toks[2:]:
                j, d = t.split(":")
                delays[int(j)] = int(d)
            events.append(Event(k=k, agent=agent, delays=delays))
        return _certify(tuple(events))


def _certify(events: tuple, n_agents: int = None, lost_packets: tuple = ()) -> Schedule:
    activations = [ev.agent for ev in events]
    if n_agents is None:
        n_agents = max(activations) + 1 if activations else 0
    T, ok = _min_covering_window(activations, n_agents)
    D = 0
    for ev in events:
        for d in ev.delays.values():
            if d > D:
                D = d
        if ev.v_delays:
            for d in ev.v_delays.values():
                if d > D:
                    D = d
    return Schedule(events=events, horizon=len(events), n_agents=n_agents,
                    certified_T=T, certified_D=D, covering_ok=ok,
                    lost_packets=lost_packets)


def _min_covering_window(activations, n_agents: int) -> tuple:
    """Smallest T such that every length-T window contains all agents.

    Returns (horizon, False) when even the full horizon misses some agent.
    """
    K = len(activations)
    if K == 0 or len(set(activations)) < n_agents:
        return K, False
    # cover_end[k]: first index t >= k such that [k..t] contains all agents
    next_occ = [math.inf] * n_agents
    cover_end = [math.inf] * K
    for k in range(K - 1, -1, -1):
        next_occ[activations[k]] = k
        cover_end[k] = max(next_occ)
    c = [e - k + 1 if e is not math.inf else math.inf
         for k, e in enumerate(cover_end)]
    prefix_max = []
    running = 0
    for v in c:
        running = max(running, v)
        prefix_max.append(running)
    # minimal T with max(c[0..K-T]) <= T; the prefix maximum makes each probe O(1)
    for T in range(n_agents, K + 1):
        if prefix_max[K - T] <= T:
            return T, True
    return K, False


def verify_assumption5(s: Schedule) -> tuple:
    """Recompute (T, D) from the raw event list (certification oracle)."""
    fresh = _certify(s.events, s.n_agents)
    return fresh.certified_T, fresh.certified_D


@dataclass(frozen=True)
class CompiledSchedule:
    """A schedule validated once and flattened into int32 arrays.

    A generation index t names a sender's state after all of its activations
    at events k' < t, so on a fixed schedule every purged read resolves to a
    sender activation count. Event k activates `agent[k]`, which has acted
    `count[k]` times before. Its in-edges are entries indptr[k]:indptr[k+1]
    (CSR, in in-neighbor order): entry p reads from `sender[p]` over edge
    `edge[p]`, an index into `graph.edge_list`. `consumed[p]` is the sender
    count in force at the purged index tau = max(tau, k - d) on the tracking
    stream and `consumed_v[p]` the same on the consensus stream (the same
    array when delays are coupled).

    Batch b is events batches[b]:batches[b+1]: no event of a batch reads a
    count that another event of the batch produces, and no agent acts twice
    in one. `depth` is the largest sender lag (sender activations since the
    consumed count) plus two, so rings of that depth indexed by count mod
    `depth` still hold every value a batch reads.
    """

    agent: np.ndarray
    count: np.ndarray
    indptr: np.ndarray
    sender: np.ndarray
    edge: np.ndarray
    consumed: np.ndarray
    consumed_v: np.ndarray
    batches: np.ndarray
    depth: int


def compile(schedule: Schedule, graph: DiGraph, couple_delays: bool = True,
            stops=()) -> CompiledSchedule:
    """Validate `schedule` on `graph` and resolve every purged read to a count.

    Raises ValueError naming k and the edge when an event's index is out of
    order, a delay is missing or negative, or a delay reaches before the
    padded history window (k - d < -certified_D). Events listed in `stops`
    end their batch, so the state after each of them can be observed.
    """
    K, I = schedule.horizon, graph.node_count
    ins = [graph.in_neighbors(i) for i in range(I)]
    agents, delays, v_delays = [], array("i"), array("i")
    for k, ev in enumerate(schedule.events):
        i = ev.agent
        if ev.k != k or not 0 <= i < I:
            raise ValueError(f"event {k} has k={ev.k} and agent {i}; expected k={k} "
                             f"and an agent in [0, {I})")
        agents.append(i)
        try:
            delays.extend([ev.delays[j] for j in ins[i]])
            if not couple_delays:
                vd = ev.v_delays or ev.delays
                v_delays.extend([vd[j] for j in ins[i]])
        except KeyError as exc:
            raise ValueError(f"event k={k}: no delay for edge ({exc.args[0]},{i})") from None

    # every agent's in-edges, grouped by receiver in in-neighbor order
    eid = {e: m for m, e in enumerate(graph.edge_list)}
    in_src = np.array([j for i in range(I) for j in ins[i]], dtype=np.int32)
    in_eid = np.array([eid[(j, i)] for i in range(I) for j in ins[i]], dtype=np.int32)
    deg = np.array([len(n) for n in ins], dtype=np.int32)
    agent = np.array(agents, dtype=np.int32)
    indptr = np.zeros(K + 1, dtype=np.int32)
    np.cumsum(deg[agent], out=indptr[1:])
    ev = np.repeat(np.arange(K, dtype=np.int32), deg[agent])
    slot = np.arange(ev.size, dtype=np.int32)
    slot += ((np.cumsum(deg) - deg)[agent] - indptr[:-1])[ev]
    sender, edge = in_src[slot], in_eid[slot]
    del slot

    # activations sorted by (agent, k): agent j's c-th is order[first[j] + c - 1]
    order = np.argsort(agent, kind="stable")
    first = np.zeros(I + 1, dtype=np.int64)
    np.cumsum(np.bincount(agent, minlength=I), out=first[1:])
    keys = agent[order] * np.int64(K + 1) + order
    count = np.empty(K, dtype=np.int32)
    count[order] = np.arange(K) - first[agent[order]]

    def count_before(j, t, chunk=1 << 14):
        """Activations of agent j at events before generation index t <= k,
        in chunks that keep the int64 temporaries small."""
        out = np.empty(j.size, dtype=np.int32)
        for s in range(0, j.size, chunk):
            js = j[s:s + chunk]
            q = js * np.int64(K + 1)
            q += np.maximum(t[s:s + chunk], 0)
            out[s:s + chunk] = np.searchsorted(keys, q) - first[js]
        return out

    def producer(j, c):
        """Event whose activation brought agent j's count to c; -1 for c = 0."""
        return np.where(c > 0, order[np.maximum(first[j] + c - 1, 0)], -1)

    by_edge = np.argsort(edge, kind="stable").astype(np.int32)

    def purged(d):
        d = np.frombuffer(d, dtype=np.int32)
        t = ev - d
        for bad, why in ((d < 0, "is negative"),
                         (t < -schedule.certified_D, "precedes the padded history window "
                          f"(D_pad={schedule.certified_D})")):
            if bad.any():
                p = int(np.argmax(bad))
                raise ValueError(f"event k={ev[p]}: delay {d[p]} on edge "
                                 f"({sender[p]},{agent[ev[p]]}) {why}")
        c = count_before(sender, t)
        del t
        # tau = max(tau, k - d) per edge, in event order; counts are monotone in tau
        run_max = edge[by_edge] * np.int64(K + 1)
        run_max += c[by_edge]
        np.maximum.accumulate(run_max, out=run_max)
        c[by_edge] = run_max % (K + 1)
        return c

    consumed = purged(delays)
    consumed_v = consumed if couple_delays else purged(v_delays)
    now = count_before(sender, ev)
    depth = int(max(np.max(now - consumed, initial=0),
                    np.max(now - consumed_v, initial=0))) + 2
    del by_edge, now

    # latest earlier event each event depends on: its agent's previous
    # activation and the producers of the counts it reads
    last = producer(agent, count)
    np.maximum.at(last, ev, producer(sender, consumed))
    if not couple_delays:
        np.maximum.at(last, ev, producer(sender, consumed_v))
    ends = np.zeros(K + 1, dtype=bool)
    ends[np.asarray(stops, dtype=np.int64) + 1] = True
    cuts, start = array("i", [0]), 0
    for k, (dep, after_stop) in enumerate(zip(memoryview(last), memoryview(ends))):
        if k and (dep >= start or after_stop):
            start = k
            cuts.append(k)
    if K:
        cuts.append(K)
    return CompiledSchedule(
        agent=agent, count=count, indptr=indptr, sender=sender, edge=edge,
        consumed=consumed, consumed_v=consumed_v,
        batches=np.frombuffer(cuts, dtype=np.int32).copy(), depth=depth)


def gen_cyclic_permuted(I: int, rounds: int, seed: int) -> list:
    """Concatenation of `rounds` random permutations of the agent set."""
    if I < 1 or rounds < 1:
        raise ValueError("I and rounds must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(rounds):
        out.extend(int(a) for a in rng.permutation(I))
    return out


def gen_random_rounds(I: int, T_max: int, rounds: int, seed: int) -> list:
    """Random rounds: length ~ U[I, T_max], every agent at least once, shuffled."""
    return random_rounds_with_boundaries(I, T_max, rounds, seed)[0]


def random_rounds_with_boundaries(I: int, T_max: int, rounds: int, seed: int):
    """As `gen_random_rounds`, also returning the 1-based round index per event."""
    if T_max < I:
        raise ValueError("T_max must be >= I")
    rng = np.random.default_rng(seed)
    out = []
    round_of = []
    for r in range(rounds):
        length = int(rng.integers(I, T_max + 1))
        block = list(range(I))
        block += [int(a) for a in rng.integers(0, I, size=length - I)]
        rng.shuffle(block)
        out.extend(block)
        round_of.extend([r + 1] * length)
    return out, round_of


@dataclass(frozen=True)
class DelayModel:
    """Physical message-delay model translated into global-index delays.

    kind "zero": messages arrive instantly, the active agent always uses the
    sender's current cumulative state (d = 0).
    kind "traveling-time": each packet takes an integer traveling time drawn
    uniformly from [0, D_tv] global ticks; in-flight packets may be reordered.
    kind "traveling-time-with-loss": as above, but each packet is lost with
    probability `loss_rate`; a loss streak is capped at D_ls - 1 so that at
    least one of any D_ls consecutive packets on an edge is delivered.
    """

    kind: str = "zero"
    D_tv: int = 0
    loss_rate: float = 0.0
    D_ls: int = 1
    seed: int = 0
    hard_cap: int = None  # optional bound on emitted delays

    def __post_init__(self):
        if self.kind == "uniform-traveling-time":
            object.__setattr__(self, "kind", "traveling-time")
        if self.kind not in ("zero", "traveling-time", "traveling-time-with-loss"):
            raise ValueError(f"unknown delay model kind: {self.kind}")
        if self.D_tv < 0 or self.D_ls < 1 or not (0.0 <= self.loss_rate < 1.0):
            raise ValueError("invalid delay model parameters")


def assign_delays(activations, g: DiGraph, model: DelayModel) -> Schedule:
    """Turn an activation list into a certified Schedule under `model`.

    For each event k and in-neighbor j of the active agent, the emitted delay
    d_j^k makes k - d_j^k the generation index of the most recent packet from
    j that has arrived by step k (index 0, i.e. the zero initial state, when
    nothing has arrived yet). Self-information is never delayed.
    """
    if not activations:
        raise ValueError("activation list is empty")
    rng = np.random.default_rng(model.seed)
    # freshest arrived generation index per edge (j -> i), and in-flight packets
    freshest = {e: 0 for e in g.edge_list}
    in_flight = {e: [] for e in g.edge_list}  # (arrival_k, gen_index)
    loss_streak = {e: 0 for e in g.edge_list}
    lost = []
    events = []
    for k, agent in enumerate(activations):
        delays = {}
        for j in g.in_neighbors(agent):
            e = (j, agent)
            if model.kind == "zero":
                delays[j] = 0
                continue
            kept = []
            best = freshest[e]
            for arrival, gen in in_flight[e]:
                if arrival <= k:
                    if gen > best:
                        best = gen
                else:
                    kept.append((arrival, gen))
            freshest[e] = best
            in_flight[e] = kept
            d = k - best
            if model.hard_cap is not None and d > model.hard_cap:
                raise UnboundedDelayError(
                    f"edge ({j},{agent}) at k={k}: delay {d} exceeds hard cap "
                    f"{model.hard_cap}; the loss model violates the bounded-delay assumption")
            delays[j] = d
        events.append(Event(k=k, agent=agent, delays=delays))
        if model.kind == "zero":
            continue
        # the active agent sends one packet per out-edge, stamped k + 1
        for i in g.out_neighbors(agent):
            e = (agent, i)
            dropped = (model.loss_rate > 0.0
                       and loss_streak[e] < model.D_ls - 1
                       and rng.random() < model.loss_rate)
            travel = int(rng.integers(0, model.D_tv + 1)) if model.D_tv > 0 else 0
            if dropped:
                loss_streak[e] += 1
                lost.append((e, k + 1))
            else:
                loss_streak[e] = 0
                in_flight[e].append((k + 1 + travel, k + 1))
    return _certify(tuple(events), g.node_count, tuple(lost))


def gen_uniform_event_delays(activations, g: DiGraph, max_delay: int, seed: int) -> Schedule:
    """Synthetic schedule with raw per-event delays d ~ U{0..min(max_delay, k)}.

    Bypasses the physical traveling-time translation; used to pin the delay
    bound D exactly when stress-testing engine invariants.
    """
    rng = np.random.default_rng(seed)
    events = []
    for k, agent in enumerate(activations):
        delays = {j: int(rng.integers(0, min(max_delay, k) + 1))
                  for j in g.in_neighbors(agent)}
        events.append(Event(k=k, agent=agent, delays=delays))
    return _certify(tuple(events), g.node_count)


def jacobi_rounds(g: DiGraph, rounds: int, seed: int = None) -> Schedule:
    """Rounds where every agent acts once with all delays pointing to the
    previous round boundary, reproducing a synchronous parallel update.

    With seed=None agents act in index order within each round; otherwise the
    within-round order is a seeded random permutation (the per-round outcome
    is order-invariant either way).
    """
    I = g.node_count
    rng = np.random.default_rng(seed) if seed is not None else None
    events = []
    for r in range(rounds):
        order = list(range(I)) if rng is None else [int(a) for a in rng.permutation(I)]
        for m, agent in enumerate(order):
            k = r * I + m
            delays = {j: m for j in g.in_neighbors(agent)}  # k - m = r*I
            events.append(Event(k=k, agent=agent, delays=delays))
    return _certify(tuple(events), g.node_count)


def theory_TD_bounds(I: int, p_min: float, p_max: float, D_tv: float, D_ls: int) -> tuple:
    """Closed-form (T, D) from activation-interval and channel parameters.

    T = (I-1) * ceil(p_max / p_min) + 1 and D = I * ceil(D_tv / p_min) * D_ls,
    with the ceiling term floored at 1 (a packet in flight spans at least one
    push interval even when its traveling time is zero).
    """
    if not (p_max >= p_min > 0):
        raise ValueError("need p_max >= p_min > 0")
    if D_tv < 0 or D_ls < 1:
        raise ValueError("need D_tv >= 0 and D_ls >= 1")
    T = (I - 1) * math.ceil(p_max / p_min) + 1
    D = I * max(1, math.ceil(D_tv / p_min)) * D_ls
    return T, D
