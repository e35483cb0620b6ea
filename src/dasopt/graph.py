"""Directed communication graphs and stochastic weight matrices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STOCHASTIC_TOL = 1e-12


class NotStronglyConnectedError(ValueError):
    pass


@dataclass(frozen=True)
class DiGraph:
    """Fixed digraph on nodes 0..node_count-1; edge (j, i) means j sends to i.

    Self-loops are disallowed; every node implicitly keeps a share of its own
    mass through the diagonal of the weight matrices instead.
    """

    node_count: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        for (j, i) in self.edges:
            if j == i:
                raise ValueError(f"self-loop ({j},{i}) not allowed")
            if not (0 <= j < self.node_count and 0 <= i < self.node_count):
                raise ValueError(f"edge ({j},{i}) out of range")
        ins = [[] for _ in range(self.node_count)]
        outs = [[] for _ in range(self.node_count)]
        for (j, i) in sorted(self.edges):
            ins[i].append(j)
            outs[j].append(i)
        object.__setattr__(self, "_in", tuple(tuple(v) for v in ins))
        object.__setattr__(self, "_out", tuple(tuple(v) for v in outs))
        # canonical edge enumeration, shared with the augmented-graph oracle
        object.__setattr__(self, "edge_list", tuple(sorted(self.edges)))

    def in_neighbors(self, i):
        return self._in[i]

    def out_neighbors(self, i):
        return self._out[i]

    def in_degree(self, i):
        return len(self._in[i])

    def out_degree(self, i):
        return len(self._out[i])

    def to_text(self) -> str:
        """Edge-list text format: first line `I`, then one `j i` pair per line."""
        lines = [str(self.node_count)]
        lines += [f"{j} {i}" for (j, i) in self.edge_list]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "DiGraph":
        rows = [ln for ln in (s.strip() for s in text.splitlines())
                if ln and not ln.startswith("#")]
        count = int(rows[0])
        edges = set()
        for ln in rows[1:]:
            j, i = ln.split()
            edges.add((int(j), int(i)))
        return DiGraph(count, frozenset(edges))


@dataclass(frozen=True)
class WeightMatrices:
    """Row-stochastic W and column-stochastic A matching a digraph's sparsity."""

    W: np.ndarray
    A: np.ndarray
    m_bar: float

    def __post_init__(self):
        I = self.W.shape[0]
        if self.W.shape != (I, I) or self.A.shape != (I, I):
            raise ValueError("W and A must be square and of the same size")
        row_err = np.max(np.abs(self.W.sum(axis=1) - 1.0))
        col_err = np.max(np.abs(self.A.sum(axis=0) - 1.0))
        if row_err > STOCHASTIC_TOL:
            raise ValueError(f"W is not row-stochastic (err {row_err:.2e})")
        if col_err > STOCHASTIC_TOL:
            raise ValueError(f"A is not column-stochastic (err {col_err:.2e})")


def is_strongly_connected(g: DiGraph) -> bool:
    """True iff every node reaches every other node along directed edges."""
    if g.node_count == 1:
        return True

    def reaches_all(neigh):
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in neigh(u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == g.node_count

    return reaches_all(g.out_neighbors) and reaches_all(g.in_neighbors)


def build_cycle_plus_random(I: int, extra_out_degree: int, seed: int) -> DiGraph:
    """Directed cycle through all nodes plus `extra_out_degree` random out-edges each.

    The cycle guarantees strong connectivity; every node ends up with
    out-degree 1 + extra_out_degree. Deterministic in `seed`.
    """
    if I < 2:
        raise ValueError("need at least 2 nodes")
    if extra_out_degree < 0 or extra_out_degree > I - 2:
        raise ValueError(f"extra_out_degree must be in [0, {I - 2}]")
    rng = np.random.default_rng(seed)
    edges = set()
    for i in range(I):
        edges.add((i, (i + 1) % I))
    for i in range(I):
        forbidden = {i, (i + 1) % I}
        candidates = np.array([v for v in range(I) if v not in forbidden])
        picks = rng.choice(candidates, size=extra_out_degree, replace=False)
        for v in picks:
            edges.add((i, int(v)))
    return DiGraph(I, frozenset(edges))


def build_uniform_weights(g: DiGraph) -> WeightMatrices:
    """Uniform-weight W (row-stochastic) and A (column-stochastic) for `g`.

    W[i, j] = 1/(in_degree(i)+1) on the in-neighborhood plus self;
    A[j, i] = 1/(out_degree(i)+1) on the out-neighborhood plus self.
    """
    if not is_strongly_connected(g):
        raise NotStronglyConnectedError("graph must be strongly connected")
    I = g.node_count
    W = np.zeros((I, I))
    A = np.zeros((I, I))
    for i in range(I):
        w = 1.0 / (g.in_degree(i) + 1)
        W[i, i] = w
        for j in g.in_neighbors(i):
            W[i, j] = w
        a = 1.0 / (g.out_degree(i) + 1)
        A[i, i] = a
        for j in g.out_neighbors(i):
            A[j, i] = a
    m_bar = min(np.min(W[W > 0]), np.min(A[A > 0]))
    return WeightMatrices(W=W, A=A, m_bar=float(m_bar))


def custom_weights(g: DiGraph, W: np.ndarray, A: np.ndarray) -> WeightMatrices:
    """Wrap explicit matrices, validating stochasticity and the sparsity pattern."""
    W = np.asarray(W, dtype=float)
    A = np.asarray(A, dtype=float)
    I = g.node_count
    # W[i, j] weighs what i reads from j and A[i, j] is the share j pushes to
    # i: both are supported on edge (j, i) and the diagonal
    for name, M in (("W", W), ("A", A)):
        for i in range(I):
            for j in range(I):
                entry = M[i, j]
                on_support = (j == i) or ((j, i) in g.edges)
                if on_support and entry <= 0:
                    raise ValueError(f"{name} must be positive on edge ({j},{i}) and the diagonal")
                if not on_support and entry != 0:
                    raise ValueError(f"{name} must be zero off the adjacency-plus-diagonal support")
    m_bar = min(np.min(W[W > 0]), np.min(A[A > 0]))
    return WeightMatrices(W=W, A=A, m_bar=float(m_bar))
