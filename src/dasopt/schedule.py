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
from dataclasses import dataclass, field

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


@dataclass(frozen=True, eq=False)
class Schedule:
    """A certified schedule in array form.

    Event k claims index `k[k]` and activates `agent[k]`. Its delays are the
    entries indptr[k]:indptr[k+1] (CSR, senders ascending): `delays[p]` is the
    age of the read from `sender[p]`, and `v_delays[p]`, when present, the
    age on the consensus stream. `events` is the same schedule as a tuple of
    `Event`s, built on first use.
    """

    k: np.ndarray
    agent: np.ndarray
    indptr: np.ndarray
    sender: np.ndarray
    delays: np.ndarray
    n_agents: int
    certified_T: int
    certified_D: int
    covering_ok: bool = True  # False when no window of any length covers all agents
    lost_packets: tuple = ()  # ((j, i), stamp) pairs dropped by the loss model
    v_delays: np.ndarray = None
    _events: tuple = field(default=None, init=False, repr=False)

    @property
    def horizon(self) -> int:
        return len(self.agent)

    @property
    def events(self) -> tuple:
        if self._events is None:
            ptr, snd = self.indptr.tolist(), self.sender.tolist()
            streams = [a.tolist() for a in (self.delays, self.v_delays) if a is not None]
            object.__setattr__(self, "_events", tuple(
                Event(k, a, *(dict(zip(snd[lo:hi], d[lo:hi])) for d in streams))
                for k, a, lo, hi in zip(self.k.tolist(), self.agent.tolist(), ptr, ptr[1:])))
        return self._events

    def to_text(self) -> str:
        """Replay trace: an `# agents=I` header, a `# lost=j,i:stamp ...` header
        when packets were lost, then one `k agent j:d_j ...` line per event,
        written `j:d_j/v_j` where the consensus-stream age differs. The header
        keeps agents that never act."""
        lines = [f"# agents={self.n_agents}"]
        if self.lost_packets:
            lines.append("# lost=" + " ".join(f"{j},{i}:{s}" for (j, i), s in self.lost_packets))
        for ev in self.events:
            vd = ev.v_delays or ev.delays
            lines.append(" ".join([str(ev.k), str(ev.agent)] + [
                f"{j}:{d}" + (f"/{vd[j]}" if vd[j] != d else "")
                for j, d in sorted(ev.delays.items())]))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Schedule":
        events, head = [], {}
        for ln in text.splitlines():
            ln = ln.strip()
            if ln.startswith("#"):
                key, _, value = ln[1:].partition("=")
                head[key.strip()] = value
            elif ln:
                k, agent, *reads = ln.split()
                ages = [(int(j), *map(int, a.split("/"))) for j, _, a in
                        (t.partition(":") for t in reads)]
                events.append(Event(int(k), int(agent), {r[0]: r[1] for r in ages},
                                    {r[0]: r[-1] for r in ages} if "/" in ln else None))
        n_agents = int(head["agents"]) if "agents" in head else None
        if n_agents is not None and any(ev.agent >= n_agents for ev in events):
            raise ValueError(f"an event's agent is outside the header's agents={n_agents}")
        lost = [((j, i), s) for j, i, s in (map(int, t.replace(":", ",").split(","))
                                            for t in head.get("lost", "").split())]
        return _certify(events, n_agents, lost)


def _certified(k, agent, indptr, sender, delays, v_delays=None, n_agents=None,
               lost_packets=()) -> Schedule:
    """Schedule from its arrays, with T and D certified."""
    k, agent, indptr, sender, delays, v_delays = (
        None if a is None else np.asarray(a, dtype=np.int32)
        for a in (k, agent, indptr, sender, delays, v_delays))
    if n_agents is None:
        n_agents = int(agent.max()) + 1 if agent.size else 0
    T, ok = _min_covering_window(agent, n_agents)
    D = max(int(a.max(initial=0)) for a in (delays, v_delays) if a is not None)
    return Schedule(k=k, agent=agent, indptr=indptr, sender=sender, delays=delays,
                    n_agents=n_agents, certified_T=T, certified_D=D, covering_ok=ok,
                    lost_packets=tuple(lost_packets), v_delays=v_delays)


def _certify(events: tuple, n_agents: int = None, lost_packets: tuple = ()) -> Schedule:
    """Certified schedule whose `events` are exactly `events`."""
    events = tuple(events)
    items = [sorted(ev.delays.items()) for ev in events]
    v_delays = ([(ev.v_delays or ev.delays)[j] for ev, it in zip(events, items) for j, _ in it]
                if any(ev.v_delays for ev in events) else None)
    sched = _certified([ev.k for ev in events], [ev.agent for ev in events],
                       np.cumsum([0] + [len(it) for it in items]),
                       [j for it in items for j, _ in it], [d for it in items for _, d in it],
                       v_delays, n_agents, lost_packets)
    object.__setattr__(sched, "_events", events)
    return sched


def _min_covering_window(activations, n_agents: int) -> tuple:
    """Smallest T such that every length-T window contains all agents.

    Returns (horizon, False) when even the full horizon misses some agent.
    """
    acts = np.asarray(activations, dtype=np.int64)
    K = acts.size
    if K == 0 or np.unique(acts).size < n_agents:
        return K, False
    # the window from k ends at the largest p whose agent's previous
    # activation precedes k, while every agent still acts at or after k
    order = np.argsort(acts, kind="stable")
    repeat = np.flatnonzero(acts[order][1:] == acts[order][:-1])
    prev = np.full(K, -1, dtype=np.int64)
    prev[order[repeat + 1]] = order[repeat]
    cover_end = np.full(K, -1, dtype=np.int64)
    np.maximum.at(cover_end, prev + 1, np.arange(K))
    np.maximum.accumulate(cover_end, out=cover_end)
    last = np.delete(order, repeat).min()  # the earliest last activation of an agent
    c = np.where(np.arange(K) <= last, cover_end - np.arange(K) + 1, K + 1)
    # minimal T with max(c[0..K-T]) <= T; the prefix maximum is monotone in T
    np.maximum.accumulate(c, out=c)
    T = np.arange(n_agents, K + 1)
    fits = np.flatnonzero(c[K - T] <= T)
    return (int(T[fits[0]]), True) if fits.size else (K, False)


def verify_assumption5(s: Schedule) -> tuple:
    """Recompute (T, D) from the raw event list (certification oracle)."""
    fresh = _certify(s.events, s.n_agents)
    return fresh.certified_T, fresh.certified_D


def _edge_lists(g: DiGraph):
    """Edge ids grouped by receiver (in in-neighbor order) and by sender (in
    out-neighbor order, which is `g.edge_list` order): the in-lists'
    offsets, senders and edge ids, and the out-lists' offsets."""
    E = np.array(g.edge_list, dtype=np.int32).reshape(-1, 2)
    in_eid = np.lexsort((E[:, 0], E[:, 1])).astype(np.int32)
    in_ptr, out_ptr = (np.r_[0, np.cumsum(np.bincount(E[:, c], minlength=g.node_count))]
                       for c in (1, 0))
    return in_ptr, E[in_eid, 0], in_eid, out_ptr


def _expand(ptr, agent):
    """Each event's slice ptr[a]:ptr[a+1] of its agent's list, in CSR form:
    the offsets, the event of every entry and its position in the lists."""
    deg = (ptr[1:] - ptr[:-1])[agent]
    indptr = np.zeros(agent.size + 1, dtype=np.int32)
    np.cumsum(deg, out=indptr[1:])
    ev = np.repeat(np.arange(agent.size, dtype=np.int32), deg)
    slot = np.arange(ev.size, dtype=np.int32)
    slot += (ptr[:-1][agent] - indptr[:-1])[ev].astype(np.int32)
    return indptr, ev, slot


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
    agent = schedule.agent
    bad = np.flatnonzero((schedule.k != np.arange(K)) | (agent < 0) | (agent >= I))
    n_ok = int(bad[0]) if bad.size else K
    # every event's in-edges in in-neighbor order, looked up among its delays
    in_ptr, in_src, in_eid, _ = _edge_lists(graph)
    indptr, ev, slot = _expand(in_ptr, agent[:n_ok])
    sender, edge = in_src[slot], in_eid[slot]
    span = np.int64(max(I, int(schedule.sender.max(initial=0)) + 1))
    have = np.r_[np.repeat(np.arange(K, dtype=np.int64) * span, np.diff(schedule.indptr))
                 + schedule.sender, K * span]  # the last key exceeds every wanted one
    want = ev * span + sender
    at = np.searchsorted(have, want)
    missing = np.flatnonzero(have[at] != want)
    if missing.size:
        p = missing[0]
        raise ValueError(f"event k={ev[p]}: no delay for edge ({sender[p]},{agent[ev[p]]})")
    if bad.size:
        raise ValueError(f"event {n_ok} has k={schedule.k[n_ok]} and agent {agent[n_ok]}; "
                         f"expected k={n_ok} and an agent in [0, {I})")
    delays = schedule.delays[at]
    v_delays = delays if schedule.v_delays is None else schedule.v_delays[at]

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
    return [a for _ in range(rounds) for a in rng.permutation(I).tolist()]


def gen_random_rounds(I: int, T_max: int, rounds: int, seed: int) -> list:
    """Random rounds: length ~ U[I, T_max], every agent at least once, shuffled."""
    return random_rounds_with_boundaries(I, T_max, rounds, seed)[0]


def random_rounds_with_boundaries(I: int, T_max: int, rounds: int, seed: int):
    """As `gen_random_rounds`, also returning the 1-based round index per event."""
    if T_max < I:
        raise ValueError("T_max must be >= I")
    rng = np.random.default_rng(seed)
    out, round_of = [], []
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

    Event k's agent sends one packet per out-edge, in out-neighbor order,
    stamped k + 1. Each packet first draws its loss (while the edge's loss
    streak is below D_ls - 1), then its traveling time.
    """
    agent = np.asarray(activations, dtype=np.int32)
    K, I = agent.size, g.node_count
    if K == 0:
        raise ValueError("activation list is empty")
    if agent.min() < 0 or agent.max() >= I:
        raise ValueError(f"an activation is outside the graph's agents [0, {I})")
    in_ptr, in_src, in_eid, out_ptr = _edge_lists(g)
    indptr, q_ev, slot = _expand(in_ptr, agent)
    sender, q_edge = in_src[slot], in_eid[slot]
    if model.kind == "zero":
        return _certified(np.arange(K), agent, indptr, sender,
                          np.zeros(sender.size, dtype=np.int32), n_agents=I)

    rng = np.random.default_rng(model.seed)
    _, p_ev, p_edge = _expand(out_ptr, agent)  # out-lists hold the edge ids in order
    n, hi = p_ev.size, model.D_tv + 1
    dropped, travel = np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)
    if model.loss_rate > 0.0 and model.D_ls > 1:
        streak = [0] * len(g.edge_list)
        cap, rate, random, integers = model.D_ls - 1, model.loss_rate, rng.random, rng.integers
        for p, e in enumerate(p_edge.tolist()):
            if streak[e] < cap and random() < rate:
                streak[e] += 1
                dropped[p] = True
            else:
                streak[e] = 0
            if hi > 1:
                travel[p] = integers(0, hi)
    elif hi > 1:
        travel = rng.integers(0, hi, size=n)

    # freshest delivered stamp per edge by each time: sort the packets by
    # (edge, arrival), a lost one after every query, and keep a running
    # maximum of the stamp, which the edge-led keys confine to each edge
    stamp = p_ev + np.int64(1)
    span = np.int64(K + hi + 1)
    arrival = p_edge * span + np.where(dropped, K + hi, stamp + travel)
    order = np.argsort(arrival, kind="stable")
    fresh = np.r_[0, (p_edge * np.int64(K + 1) + stamp)[order]]
    np.maximum.accumulate(fresh, out=fresh)
    at = np.searchsorted(arrival[order], q_edge * span + q_ev, side="right")
    delays = (q_ev - np.maximum(fresh[at] - q_edge * np.int64(K + 1), 0)).astype(np.int32)

    if model.hard_cap is not None:
        over = np.flatnonzero(delays > model.hard_cap)
        if over.size:
            p = over[0]
            raise UnboundedDelayError(
                f"edge ({sender[p]},{agent[q_ev[p]]}) at k={q_ev[p]}: delay {delays[p]} exceeds "
                f"hard cap {model.hard_cap}; the loss model violates the bounded-delay assumption")
    edges = g.edge_list
    lost = [(edges[e], s) for e, s in zip(p_edge[dropped].tolist(), stamp[dropped].tolist())]
    return _certified(np.arange(K), agent, indptr, sender, delays, None, I, lost)


def gen_uniform_event_delays(activations, g: DiGraph, max_delay: int, seed: int) -> Schedule:
    """Synthetic schedule with raw per-event delays d ~ U{0..min(max_delay, k)}.

    Bypasses the physical traveling-time translation; used to pin the delay
    bound D exactly when stress-testing engine invariants.
    """
    agent = np.asarray(activations, dtype=np.int32)
    in_ptr, in_src, _, _ = _edge_lists(g)
    indptr, ev, slot = _expand(in_ptr, agent)
    delays = np.random.default_rng(seed).integers(0, np.minimum(max_delay, ev) + 1)
    return _certified(np.arange(agent.size), agent, indptr, in_src[slot], delays,
                      n_agents=g.node_count)


def jacobi_rounds(g: DiGraph, rounds: int, seed: int = None) -> Schedule:
    """Rounds where every agent acts once with all delays pointing to the
    previous round boundary, reproducing a synchronous parallel update.

    With seed=None agents act in index order within each round; otherwise the
    within-round order is a seeded random permutation (the per-round outcome
    is order-invariant either way).
    """
    I = g.node_count
    rng = np.random.default_rng(seed) if seed is not None else None
    agent = np.array([np.arange(I) if rng is None else rng.permutation(I)
                      for _ in range(rounds)], dtype=np.int32).reshape(-1)
    in_ptr, in_src, _, _ = _edge_lists(g)
    indptr, ev, slot = _expand(in_ptr, agent)
    # event k = r*I + m reads every in-neighbor at the round boundary: d = m
    return _certified(np.arange(agent.size), agent, indptr, in_src[slot], ev % I,
                      n_agents=I)


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
