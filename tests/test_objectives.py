import numpy as np
import pytest

from dasopt import objectives

from oracles import fd_gradient


def grad_matches_fd(obj, rng, points=20, tol=1e-5):
    for _ in range(points):
        x = rng.normal(size=obj.dimension)
        for i in range(obj.agent_count):
            g = obj.grad_i(i, x)
            fd = fd_gradient(lambda v: obj.value_i(i, v), x)
            assert np.linalg.norm(g - fd) <= tol * (1.0 + np.linalg.norm(g))


def lipschitz_holds_on_pairs(obj, rng, pairs=50):
    for _ in range(pairs):
        x = rng.normal(size=obj.dimension)
        y = rng.normal(size=obj.dimension)
        gap = np.linalg.norm(x - y)
        for i in range(obj.agent_count):
            jump = np.linalg.norm(obj.grad_i(i, x) - obj.grad_i(i, y))
            assert jump <= obj.lipschitz[i] * gap * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------

def test_ls_identity_instance():
    obj = objectives.least_squares_objective([np.eye(2)], [np.array([1.0, 2.0])])
    assert np.allclose(obj.x_star, [1.0, 2.0], atol=1e-12)
    assert obj.tau == pytest.approx(2.0, abs=1e-12)
    assert obj.L == pytest.approx(2.0, abs=1e-12)
    assert not obj.reference_flagged


def test_ls_benchmark_dimensions():
    obj = objectives.make_least_squares(30, 200, 30, 0.04, seed=0)
    assert obj.agent_count == 30
    assert obj.dimension == 200
    # spectral normalization pins every agent's smoothness constant at 2
    assert np.allclose(obj.lipschitz, 2.0, atol=1e-9)
    assert obj.tau > 0


def test_ls_normal_equations_oracle():
    obj = objectives.make_least_squares(6, 10, 4, 0.04, seed=3)
    assert np.linalg.norm(obj.grad(obj.x_star)) <= 1e-8


def test_ls_reference_is_minimizer():
    obj = objectives.make_least_squares(4, 6, 3, 0.04, seed=11)
    rng = np.random.default_rng(0)
    f_star = obj.value(obj.x_star)
    for _ in range(1000):
        assert f_star <= obj.value(obj.x_star + rng.normal(size=6))


def test_ls_gradients_match_finite_differences():
    obj = objectives.make_least_squares(3, 5, 4, 0.04, seed=7)
    grad_matches_fd(obj, np.random.default_rng(1), points=100)


def test_per_agent_lipschitz_constants_hold_empirically():
    rng = np.random.default_rng(12)
    lipschitz_holds_on_pairs(objectives.make_least_squares(3, 5, 4, 0.04, seed=7), rng)
    lipschitz_holds_on_pairs(objectives.make_logistic(3, 6, 8, 0.01, seed=8), rng)
    ds = objectives.make_synthetic_classification(3, 6, 5, seed=9)
    lipschitz_holds_on_pairs(objectives.make_robust_classification(ds, 0.01), rng)


def test_ls_singular_system_flagged():
    # two agents observing only the first coordinate of a 2-d signal
    M = np.array([[1.0, 0.0]])
    obj = objectives.least_squares_objective([M, M], [np.array([1.0]), np.array([3.0])])
    assert obj.reference_flagged
    assert obj.tau == 0.0
    assert np.linalg.norm(obj.grad(obj.x_star)) <= 1e-8


def test_sum_decomposition_is_exact():
    obj = objectives.make_least_squares(5, 4, 3, 0.04, seed=2)
    x = np.random.default_rng(3).normal(size=4)
    total = np.zeros(4)
    for i in range(5):
        total += obj.grad_i(i, x)
    assert np.array_equal(obj.grad(x), total)


# ---------------------------------------------------------------------------
# logistic
# ---------------------------------------------------------------------------

def test_logistic_zero_feature_sample():
    ds = objectives.ClassificationDataset(
        features=(np.zeros((1, 3)),), labels=(np.array([1.0]),))
    obj = objectives.logistic_objective(ds, lam_reg=0.0)
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=3)
        assert np.allclose(obj.grad(x), 0.0, atol=1e-12)
        fd = fd_gradient(lambda v: obj.value(v), x)
        assert np.linalg.norm(obj.grad(x) - fd) <= 1e-6


def test_logistic_benchmark_configuration():
    obj = objectives.make_logistic(30, 100, 20, 0.01, seed=1)
    assert obj.agent_count == 30
    assert obj.dimension == 100
    assert obj.tau == pytest.approx(2 * 0.01 / 600)
    assert np.linalg.norm(obj.grad(obj.x_star)) <= 1e-8


def test_logistic_gradients_match_finite_differences():
    obj = objectives.make_logistic(4, 6, 5, 0.01, seed=5)
    grad_matches_fd(obj, np.random.default_rng(2), points=100)


def test_logistic_label_generation_deterministic():
    a = objectives.make_logistic(3, 4, 5, 0.01, seed=9)
    b = objectives.make_logistic(3, 4, 5, 0.01, seed=9)
    x = np.ones(4)
    assert a.value(x) == b.value(x)


# ---------------------------------------------------------------------------
# robust classification
# ---------------------------------------------------------------------------

def test_robust_loss_values():
    assert objectives.robust_loss(2.0) == 0.0
    assert objectives.robust_loss(0.0) == 0.5
    assert objectives.robust_loss(-2.0) == 1.0
    assert objectives.robust_loss_derivative(1.0) == 0.0
    assert objectives.robust_loss_derivative(-1.0) == 0.0
    assert objectives.robust_loss_derivative(0.0) == -0.75


def test_robust_loss_continuity_at_kinks():
    for r0 in (1.0, -1.0):
        left = objectives.robust_loss(r0 - 1e-9)
        right = objectives.robust_loss(r0 + 1e-9)
        assert abs(left - right) <= 1e-8
        dl = objectives.robust_loss_derivative(r0 - 1e-9)
        dr = objectives.robust_loss_derivative(r0 + 1e-9)
        assert abs(dl - dr) <= 1e-8


def test_robust_loss_derivative_matches_fd_away_from_kinks():
    rng = np.random.default_rng(4)
    for _ in range(200):
        r = float(rng.uniform(-3, 3))
        if min(abs(r - 1.0), abs(r + 1.0)) < 1e-3:
            continue
        fd = (objectives.robust_loss(r + 1e-7) - objectives.robust_loss(r - 1e-7)) / 2e-7
        assert abs(objectives.robust_loss_derivative(r) - fd) <= 1e-6


def test_rc_dimension_is_features_plus_bias():
    ds = objectives.make_synthetic_classification(5, 8, 13, seed=0)
    obj = objectives.make_robust_classification(ds, 0.01)
    assert obj.dimension == 14
    assert obj.tau == 0.0
    assert obj.x_star is None


def test_rc_flat_branch_contributes_no_gradient():
    # single sample classified with margin 2: data-term gradient is zero
    U = np.array([[0.5, 0.5]])
    y = np.array([1.0])
    ds = objectives.ClassificationDataset(features=(U,), labels=(y,))
    obj = objectives.make_robust_classification(ds, lam_reg=0.0)
    x = np.array([1.0, 1.0, 1.0])  # score = 0.5 + 0.5 + 1 = 2
    assert y[0] * (U[0] @ x[:2] + x[2]) == pytest.approx(2.0)
    assert np.allclose(obj.grad(x), 0.0, atol=1e-15)


def test_rc_gradients_match_directional_fd():
    ds = objectives.make_synthetic_classification(4, 6, 5, seed=8)
    obj = objectives.make_robust_classification(ds, 0.01)
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 100:
        x = rng.normal(size=obj.dimension)
        margins = np.concatenate([
            ds.labels[i] * (ds.features[i] @ x[:-1] + x[-1])
            for i in range(ds.agent_count)])
        if np.min(np.abs(np.abs(margins) - 1.0)) < 1e-3:
            continue
        fd = fd_gradient(lambda v: obj.value(v), x)
        assert np.linalg.norm(obj.grad(x) - fd) <= 1e-5 * (1 + np.linalg.norm(obj.grad(x)))
        checked += 1


def test_rc_requires_unit_interval_features():
    ds = objectives.ClassificationDataset(
        features=(np.array([[2.0, 0.0]]),), labels=(np.array([1.0]),))
    with pytest.raises(ValueError):
        objectives.make_robust_classification(ds, 0.01)


# ---------------------------------------------------------------------------
# dataset handling
# ---------------------------------------------------------------------------

HEART_LIKE = """
63,1,145,233,1,150,0,2.3,3,0,6,0,1,0
67,1,160,286,0,108,1,1.5,2,3,3,2,7,2
67,1,120,229,0,129,1,2.6,2,2,7,1,4,1
37,?,130,250,0,187,0,3.5,3,0,3,0,2,0
41,0,130,204,0,172,0,1.4,1,0,3,1,3,0
56,1,120,236,0,178,0,0.8,1,0,3,0,5,3
"""


def test_dataset_import_drops_bad_rows_scales_and_partitions():
    ds = objectives.load_classification_text(HEART_LIKE, I=2)
    # the row with '?' is dropped
    assert ds.total == 5
    assert ds.n_features == 13
    for U in ds.features:
        assert U.min() >= 0.0 and U.max() <= 1.0
    labels = np.concatenate(ds.labels)
    assert set(labels) <= {-1.0, 1.0}
    # round-robin split is disjoint and covers everything
    assert sum(len(y) for y in ds.labels) == 5
    obj = objectives.make_robust_classification(ds, 0.01)
    assert obj.dimension == 14


def test_synthetic_dataset_reproducible():
    a = objectives.make_synthetic_classification(3, 5, 4, seed=2)
    b = objectives.make_synthetic_classification(3, 5, 4, seed=2)
    for Ua, Ub in zip(a.features, b.features):
        assert np.array_equal(Ua, Ub)


@pytest.mark.parametrize("family", ["least-squares", "logistic", "robust-classification"])
def test_fused_full_gradient_matches_per_agent_sum(family):
    if family == "least-squares":
        obj = objectives.make_least_squares(6, 8, 4, 0.04, seed=4)
    elif family == "logistic":
        obj = objectives.make_logistic(5, 6, 10, 0.05, seed=4)
    else:
        ds = objectives.make_synthetic_classification(5, 12, 13, seed=4)
        obj = objectives.make_robust_classification(ds, 0.05)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = 0.5 * rng.normal(size=obj.dimension)
        g = obj.grad(x)
        assert np.linalg.norm(obj.grad_fused(x) - g) <= 1e-12 * np.linalg.norm(g)


def test_dataset_import_drops_non_finite_rows():
    text = HEART_LIKE + "nan,1,120,236,0,178,0,0.8,1,0,3,0,5,3\n" \
        + "56,1,inf,236,0,178,0,0.8,1,0,3,0,5,3\n" \
        + "56,1,120,236,0,178,0,0.8,1,0,3,0,5,-inf\n"
    ds = objectives.load_classification_text(text, I=2)
    assert ds.total == 5  # as without the three non-finite rows
    for U in ds.features:
        assert np.all(np.isfinite(U))
    with pytest.raises(ValueError, match="no usable rows"):
        objectives.load_classification_text("nan 1 1\n1 inf 0\n", I=1)
