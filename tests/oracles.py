"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: plain
breadth-first searches, O(K^2) window scans, finite differences, running
sums, eigenvalue computations, and element-by-element loop transcriptions
of the augmented-graph oracle.
"""

import numpy as np


def bfs_reaches_all(node_count, edges, start):
    adj = {v: [] for v in range(node_count)}
    for (j, i) in edges:
        adj[j].append(i)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == node_count


def strongly_connected_by_bfs(node_count, edges):
    """BFS from every node: the textbook all-pairs reachability check."""
    return all(bfs_reaches_all(node_count, edges, s) for s in range(node_count))


def floyd_warshall_reachability(node_count, edges):
    """Transitive closure as a boolean matrix."""
    reach = np.eye(node_count, dtype=bool)
    for (j, i) in edges:
        reach[j, i] = True
    for m in range(node_count):
        reach |= np.outer(reach[:, m], reach[m, :])
    return reach


def fd_gradient(f, x, h=1e-6):
    """Central finite differences, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for idx in range(x.size):
        e = np.zeros_like(x)
        e[idx] = h
        g[idx] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def min_covering_window_bruteforce(activations, n_agents):
    """Smallest T such that every full window of length T hits all agents;
    O(K^2), small inputs only."""
    K = len(activations)
    agents = set(range(n_agents))
    for T in range(1, K + 1):
        if all(set(activations[k:k + T]) == agents for k in range(0, K - T + 1)):
            return T
    return None


def min_covering_window_loop(activations, n_agents):
    """(T, covering) by a backward scan of each agent's next activation and a
    prefix maximum; (K, False) when some agent never acts."""
    K = len(activations)
    if K == 0 or len(set(activations)) < n_agents:
        return K, False
    next_occ = [float("inf")] * n_agents
    c = [0] * K
    for k in range(K - 1, -1, -1):
        next_occ[activations[k]] = k
        c[k] = max(next_occ) - k + 1
    prefix_max, running = [], 0
    for v in c:
        running = max(running, v)
        prefix_max.append(running)
    for T in range(n_agents, K + 1):
        if prefix_max[K - T] <= T:
            return T, True
    return K, False


def assign_delays_loop(activations, g, kind, D_tv, loss_rate, D_ls, seed, hard_cap=None):
    """Packet-by-packet transcription of the traveling-time/loss channel.

    Returns ([(k, agent, {j: d})], [((j, i), stamp)]) and raises ValueError
    with the library's message when a delay exceeds `hard_cap`. Per event:
    read each in-edge's freshest arrived stamp, then send one packet per
    out-edge, drawing its loss and then its traveling time.
    """
    rng = np.random.default_rng(seed)
    freshest = {e: 0 for e in g.edge_list}
    in_flight = {e: [] for e in g.edge_list}  # (arrival_k, stamp)
    loss_streak = {e: 0 for e in g.edge_list}
    lost, events = [], []
    for k, agent in enumerate(activations):
        delays = {}
        for j in g.in_neighbors(agent):
            e = (j, agent)
            if kind == "zero":
                delays[j] = 0
                continue
            kept = []
            best = freshest[e]
            for arrival, gen in in_flight[e]:
                if arrival <= k:
                    best = max(best, gen)
                else:
                    kept.append((arrival, gen))
            freshest[e] = best
            in_flight[e] = kept
            d = k - best
            if hard_cap is not None and d > hard_cap:
                raise ValueError(
                    f"edge ({j},{agent}) at k={k}: delay {d} exceeds hard cap "
                    f"{hard_cap}; the loss model violates the bounded-delay assumption")
            delays[j] = d
        events.append((k, agent, delays))
        if kind == "zero":
            continue
        for i in g.out_neighbors(agent):
            e = (agent, i)
            dropped = (loss_rate > 0.0 and loss_streak[e] < D_ls - 1
                       and rng.random() < loss_rate)
            travel = int(rng.integers(0, D_tv + 1)) if D_tv > 0 else 0
            if dropped:
                loss_streak[e] += 1
                lost.append((e, k + 1))
            else:
                loss_streak[e] = 0
                in_flight[e].append((k + 1 + travel, k + 1))
    return events, lost


def companion_spectral_radius(coeffs):
    """Largest root magnitude of z^m - a_1 z^{m-1} - ... - a_m."""
    a = np.asarray(coeffs, dtype=float)
    m = a.size
    comp = np.zeros((m, m))
    comp[0, :] = a
    for r in range(1, m):
        comp[r, r - 1] = 1.0
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


# ---------------------------------------------------------------------------
# augmented-graph oracle, one element at a time
# ---------------------------------------------------------------------------

def augmented_virtual(g, D, edge, d):
    """Virtual node (j, i)^d: after the I agents, delay-major, edges in
    `g.edge_list` order."""
    return g.node_count + d * len(g.edge_list) + g.edge_list.index(edge)


def augmented_sum_matrix(g, D, event, tau):
    """Collect matrix: every virtual node of an in-edge at or beyond the
    consumed age moves into the active agent."""
    S = g.node_count + (D + 1) * len(g.edge_list)
    C = np.eye(S)
    i, k = event.agent, event.k
    for j in g.in_neighbors(i):
        e = (j, i)
        d_lo = k - tau[e]
        if d_lo > D:
            raise ValueError(f"edge ({j},{i}) consumed age {d_lo} exceeds depth {D}")
        for d in range(max(0, d_lo), D + 1):
            m = augmented_virtual(g, D, e, d)
            C[m, m] = 0.0
            C[i, m] = 1.0
    return C


def augmented_push_matrix(g, D, event, A):
    """Split-and-shift matrix built entry by entry from zero."""
    S = np.zeros((g.node_count + (D + 1) * len(g.edge_list),) * 2)
    i = event.agent
    S[i, i] = A[i, i]
    for j in g.out_neighbors(i):
        S[augmented_virtual(g, D, (i, j), 0), i] = A[j, i]
    for m in range(g.node_count):
        if m != i:
            S[m, m] = 1.0
    for e in g.edge_list:
        for d in range(D):
            S[augmented_virtual(g, D, e, d + 1), augmented_virtual(g, D, e, d)] = 1.0
        deep = augmented_virtual(g, D, e, D)
        S[deep, deep] = 1.0
    return S


def augmented_equivalence(state, z_hat, phi_hat, D):
    """(z, phi, edge z, edge phi) differences between a push-sum state and the
    oracle, summing each edge's virtual nodes in delay order."""
    g = state.g
    I = g.node_count
    z_diff = float(np.max(np.abs(state.z - z_hat[:I])))
    phi_diff = float(np.max(np.abs(state.phi - phi_hat[:I])))
    edge_diff = edge_phi_diff = 0.0
    for e in g.edge_list:
        onway = np.zeros(state.n)
        phi_onway = 0.0
        for d in range(D + 1):
            onway = onway + z_hat[augmented_virtual(g, D, e, d)]
            phi_onway = phi_onway + phi_hat[augmented_virtual(g, D, e, d)]
        engine_onway = state.rho[e].current() - state.rho_tilde[e]
        engine_phi = state.sigma[e].current() - state.sigma_tilde[e]
        edge_diff = max(edge_diff, float(np.max(np.abs(engine_onway - onway))))
        edge_phi_diff = max(edge_phi_diff, abs(float(engine_phi - phi_onway)))
    return z_diff, phi_diff, edge_diff, edge_phi_diff


def pushsum_masses(state):
    """Running per-edge sums of (z mass, phi mass) and of their absolute terms."""
    z_mass = state.z.sum(axis=0)
    z_scale = np.abs(state.z).sum(axis=0)
    phi_mass = float(state.phi.sum())
    phi_scale = float(np.abs(state.phi).sum())
    for e in state.g.edge_list:
        dz = state.rho[e].current() - state.rho_tilde[e]
        dphi = state.sigma[e].current() - state.sigma_tilde[e]
        z_mass = z_mass + dz
        z_scale = z_scale + np.abs(dz)
        phi_mass += dphi
        phi_scale += abs(dphi)
    return z_mass, z_scale, phi_mass, phi_scale
