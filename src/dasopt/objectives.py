"""Agent-partitioned objective families: least squares, logistic, robust classification."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

SIGMOID_CURVATURE = 1.0 / (6.0 * np.sqrt(3.0))  # max |sigma''|


@dataclass
class Objective:
    """Sum-decomposed objective F(x) = sum_i f_i(x) with per-agent gradients.

    Immutable after construction; gradient evaluation is reentrant.
    """

    name: str
    agent_count: int
    dimension: int
    lipschitz: np.ndarray
    tau: float
    x_star: np.ndarray = None
    reference_flagged: bool = False
    _fi: list = field(default=None, repr=False)
    _gi: list = field(default=None, repr=False)
    _g_fused: object = field(default=None, repr=False)

    @property
    def C_L(self) -> float:
        return float(np.max(self.lipschitz))

    @property
    def L(self) -> float:
        return float(np.sum(self.lipschitz))

    def value_i(self, i: int, x: np.ndarray) -> float:
        return self._fi[i](np.asarray(x, dtype=float))

    def grad_i(self, i: int, x: np.ndarray) -> np.ndarray:
        return self._gi[i](np.asarray(x, dtype=float))

    def value(self, x: np.ndarray) -> float:
        return sum(self.value_i(i, x) for i in range(self.agent_count))

    def grad(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(self.dimension)
        for i in range(self.agent_count):
            g += self.grad_i(i, x)
        return g

    def grad_fused(self, x: np.ndarray) -> np.ndarray:
        """Full gradient from one evaluation over all agents' data.

        Equal to `grad` up to rounding; falls back to it when the family
        provides no fused form.
        """
        if self._g_fused is None:
            return self.grad(x)
        return self._g_fused(np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------

def least_squares_objective(Ms, bs) -> Objective:
    """LS family from explicit sensing matrices: f_i(x) = ||M_i x - b_i||^2.

    The reference solution solves the normal equations; a numerically singular
    system falls back to the pseudo-inverse and flags the result.
    """
    Ms = [np.asarray(M, dtype=float) for M in Ms]
    bs = [np.asarray(b, dtype=float) for b in bs]
    I = len(Ms)
    n = Ms[0].shape[1]
    H = np.zeros((n, n))
    rhs = np.zeros(n)
    for M, b in zip(Ms, bs):
        H += M.T @ M
        rhs += M.T @ b
    evals = np.linalg.eigvalsh(H)
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    flagged = lam_min <= 1e-12 * max(lam_max, 1.0)
    if flagged:
        x_star = np.linalg.pinv(H) @ rhs
    else:
        x_star = np.linalg.solve(H, rhs)
    lips = np.array([2.0 * float(np.linalg.eigvalsh(M.T @ M)[-1]) for M in Ms])

    def make(i):
        M, b = Ms[i], bs[i]
        return (lambda x: float(np.sum((M @ x - b) ** 2)),
                lambda x: 2.0 * (M.T @ (M @ x - b)))

    pairs = [make(i) for i in range(I)]
    return Objective(
        name="least-squares", agent_count=I, dimension=n,
        lipschitz=lips, tau=0.0 if flagged else 2.0 * lam_min,
        x_star=x_star, reference_flagged=flagged,
        _fi=[p[0] for p in pairs], _gi=[p[1] for p in pairs],
        _g_fused=lambda x: 2.0 * (H @ x - rhs))


def make_least_squares(I: int, n: int, d_i: int, noise_var: float, seed: int) -> Objective:
    """Random LS instance: spectrally normalized Gaussian M_i, noisy targets.

    One seed drives, in order: the unknown signal x_0, each M_i, each noise
    vector; identical configs regenerate bitwise-identical instances.
    """
    if min(I, n, d_i) < 1:
        raise ValueError("I, n, d_i must all be >= 1")
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n)
    Ms, bs = [], []
    for _ in range(I):
        M = rng.standard_normal((d_i, n))
        M /= np.linalg.norm(M, 2)
        Ms.append(M)
    for M in Ms:
        noise = np.sqrt(noise_var) * rng.standard_normal(d_i) if noise_var > 0 else 0.0
        bs.append(M @ x0 + noise)
    return least_squares_objective(Ms, bs)


# ---------------------------------------------------------------------------
# binary classification: shared dataset container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationDataset:
    """Per-agent labeled samples; the agent partition is disjoint by construction."""

    features: tuple   # one (m_i, p) array per agent
    labels: tuple     # one (m_i,) array of +-1 per agent

    @property
    def agent_count(self):
        return len(self.features)

    @property
    def n_features(self):
        return self.features[0].shape[1]

    @property
    def total(self):
        return sum(len(y) for y in self.labels)


def load_classification_text(text: str, I: int, delimiter=None) -> ClassificationDataset:
    """Parse delimited rows `feature ... feature label` into an agent partition.

    Rows containing missing entries (`?`, unparsable or non-finite fields such
    as `nan` and `inf`) are dropped, features are min-max scaled to [0, 1],
    labels map to -1/+1 (values <= 0 become -1), and rows are dealt
    round-robin to the I agents.
    """
    rows = []
    for ln in io.StringIO(text):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split(delimiter) if delimiter else ln.replace(",", " ").split()
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            continue
        if not all(math.isfinite(v) for v in vals):
            continue
        rows.append(vals)
    if not rows:
        raise ValueError("no usable rows in dataset text")
    data = np.asarray(rows)
    X, raw_y = data[:, :-1], data[:, -1]
    lo, hi = X.min(axis=0), X.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    X = (X - lo) / span
    y = np.where(raw_y > 0, 1.0, -1.0)
    feats = tuple(np.ascontiguousarray(X[a::I]) for a in range(I))
    labs = tuple(np.ascontiguousarray(y[a::I]) for a in range(I))
    return ClassificationDataset(features=feats, labels=labs)


def make_synthetic_classification(I: int, samples_per_agent: int, n_features: int,
                                  seed: int, flip_rate: float = 0.1) -> ClassificationDataset:
    """Heart-data-shaped synthetic set: [0,1] features, noisy linear labels."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n_features)
    b = -0.5 * float(w.sum())  # center the decision boundary in the unit cube
    feats, labs = [], []
    for _ in range(I):
        U = rng.random((samples_per_agent, n_features))
        y = np.where(U @ w + b > 0, 1.0, -1.0)
        flips = rng.random(samples_per_agent) < flip_rate
        y[flips] = -y[flips]
        feats.append(U)
        labs.append(y)
    return ClassificationDataset(features=tuple(feats), labels=tuple(labs))


# ---------------------------------------------------------------------------
# regularized logistic regression
# ---------------------------------------------------------------------------

def _sigmoid(r):
    out = np.empty_like(r, dtype=float)
    pos = r >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-r[pos]))
    e = np.exp(r[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def logistic_objective(dataset: ClassificationDataset, lam_reg: float) -> Objective:
    """Sigmoid-loss classifier with linear scores l_x(u) = x^T u.

    f_i(x) = (1/|D|) sum_{j in D_i} V(y_j x^T u_j) + lam/(I |D|) ||x||^2 with
    V the logistic curve; the regularizer modulus gives tau = 2 lam / |D|.
    The reference solution comes from centralized gradient descent driven to
    ||grad F|| <= 1e-10.
    """
    I = dataset.agent_count
    n = dataset.n_features
    total = dataset.total
    lips = np.empty(I)
    for i in range(I):
        U = dataset.features[i]
        lips[i] = (SIGMOID_CURVATURE * float(np.sum(U ** 2))
                   + 2.0 * lam_reg / I) / total

    def make(i):
        U, y = dataset.features[i], dataset.labels[i]
        reg = lam_reg / (I * total)

        def f(x):
            r = y * (U @ x)
            return float(np.sum(_sigmoid(r))) / total + reg * float(x @ x)

        def gr(x):
            r = y * (U @ x)
            s = _sigmoid(r)
            return (U.T @ (s * (1.0 - s) * y)) / total + 2.0 * reg * x

        return f, gr

    U_all = np.vstack(dataset.features)
    y_all = np.concatenate(dataset.labels)

    def fused(x):
        r = y_all * (U_all @ x)
        s = _sigmoid(r)
        return (U_all.T @ (s * (1.0 - s) * y_all)) / total + 2.0 * (lam_reg / total) * x

    pairs = [make(i) for i in range(I)]
    obj = Objective(
        name="logistic", agent_count=I, dimension=n,
        lipschitz=lips, tau=2.0 * lam_reg / total,
        _fi=[p[0] for p in pairs], _gi=[p[1] for p in pairs], _g_fused=fused)

    def full_hess(x):
        r = y_all * (U_all @ x)
        s = _sigmoid(r)
        curv = s * (1.0 - s) * (1.0 - 2.0 * s)
        H = (U_all.T * curv) @ U_all / total
        H[np.diag_indices(n)] += 2.0 * lam_reg / total
        return H

    obj.x_star = _stationary_point(obj.grad, full_hess, np.zeros(n), obj.L, tol=1e-10)
    return obj


def make_logistic(I: int, n: int, samples_per_agent: int, lam_reg: float, seed: int) -> Objective:
    """Random logistic instance; labels are drawn from the ground-truth curve.

    Seed order: ground truth, then each agent's feature block, then labels.
    """
    if min(I, n, samples_per_agent) < 1 or lam_reg < 0:
        raise ValueError("invalid logistic parameters")
    rng = np.random.default_rng(seed)
    x_hat = rng.standard_normal(n)
    feats, labs = [], []
    for _ in range(I):
        U = rng.standard_normal((samples_per_agent, n))
        p = _sigmoid(U @ x_hat)
        y = np.where(rng.random(samples_per_agent) < p, 1.0, -1.0)
        feats.append(U)
        labs.append(y)
    ds = ClassificationDataset(features=tuple(feats), labels=tuple(labs))
    return logistic_objective(ds, lam_reg)


def _stationary_point(grad, hess, x0, L, tol=1e-10, warmup=500, max_newton=200):
    """Centralized reference solver: 1/L gradient warmup, then damped Newton.

    Plain gradient descent alone needs millions of iterations at these
    conditioning levels; the Newton phase drives ||grad|| below `tol`.
    """
    x = np.asarray(x0, dtype=float).copy()
    n = x.size
    for _ in range(warmup):
        g = grad(x)
        if np.linalg.norm(g) <= tol:
            return x
        x -= (1.0 / L) * g
    g = grad(x)
    gn = float(np.linalg.norm(g))
    mu = 1e-8
    eye = np.eye(n)
    for _ in range(max_newton):
        if gn <= tol:
            break
        accepted = False
        while mu <= 1e12:
            try:
                d = np.linalg.solve(hess(x) + mu * eye, -g)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            g_new = grad(x + d)
            gn_new = float(np.linalg.norm(g_new))
            if gn_new < gn:
                x = x + d
                g, gn = g_new, gn_new
                mu = max(mu / 3.0, 1e-12)
                accepted = True
                break
            mu *= 10.0
        if not accepted:
            break
    return x


# ---------------------------------------------------------------------------
# robust classification (nonconvex piecewise-cubic loss)
# ---------------------------------------------------------------------------

def robust_loss(r: float) -> float:
    """Flat-topped piecewise cubic: 0 above margin 1, 1 below margin -1."""
    if r > 1.0:
        return 0.0
    if r < -1.0:
        return 1.0
    return 0.25 * r ** 3 - 0.75 * r + 0.5


def robust_loss_derivative(r: float) -> float:
    if r > 1.0 or r < -1.0:
        return 0.0
    return 0.75 * r ** 2 - 0.75


def _robust_loss_vec(r):
    out = np.zeros_like(r)
    mid = (r >= -1.0) & (r <= 1.0)
    rm = r[mid]
    out[mid] = 0.25 * rm ** 3 - 0.75 * rm + 0.5
    out[r < -1.0] = 1.0
    return out


def _robust_deriv_vec(r):
    out = np.zeros_like(r)
    mid = (r >= -1.0) & (r <= 1.0)
    out[mid] = 0.75 * r[mid] ** 2 - 0.75
    return out


def make_robust_classification(dataset: ClassificationDataset, lam_reg: float) -> Objective:
    """Nonconvex robust classifier with an affine score and unregularized bias.

    The parameter vector stacks p feature weights plus a trailing bias, so a
    13-feature dataset yields dimension 14. Only the weight block enters the
    regularizer (the score gradient with respect to the sample is the weight
    vector, and the bias does not appear in it).
    """
    if any(U.min() < -1e-12 or U.max() > 1.0 + 1e-12 for U in dataset.features):
        raise ValueError("robust classification expects features scaled to [0, 1]")
    I = dataset.agent_count
    p = dataset.n_features
    n = p + 1
    total = dataset.total
    lips = np.empty(I)
    for i in range(I):
        U = dataset.features[i]
        lips[i] = 1.5 * float(np.sum(np.sum(U ** 2, axis=1) + 1.0)) / total \
            + 2.0 * lam_reg / I

    def make(i):
        U, y = dataset.features[i], dataset.labels[i]
        reg = lam_reg / I

        def score(x):
            return U @ x[:p] + x[p]

        def f(x):
            r = y * score(x)
            return float(np.sum(_robust_loss_vec(r))) / total + reg * float(x[:p] @ x[:p])

        def gr(x):
            r = y * score(x)
            c = _robust_deriv_vec(r) * y / total
            g = np.empty(n)
            g[:p] = U.T @ c + 2.0 * reg * x[:p]
            g[p] = float(np.sum(c))
            return g

        return f, gr

    U_all = np.vstack(dataset.features)
    y_all = np.concatenate(dataset.labels)

    def fused(x):
        c = _robust_deriv_vec(y_all * (U_all @ x[:p] + x[p])) * y_all / total
        g = np.empty(n)
        g[:p] = U_all.T @ c + 2.0 * lam_reg * x[:p]
        g[p] = float(np.sum(c))
        return g

    pairs = [make(i) for i in range(I)]
    return Objective(
        name="robust-classification", agent_count=I, dimension=n,
        lipschitz=lips, tau=0.0, x_star=None,
        _fi=[p_[0] for p_ in pairs], _gi=[p_[1] for p_ in pairs], _g_fused=fused)
