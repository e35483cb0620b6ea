"""The invariant battery's bookkeeping: where a failing check says it failed,
and how many push-sum events one oracle sweep drives."""

import itertools

import pytest

from dasopt import augmented, harness, pushsum

SIZES, DEPTHS, SEEDS = (3,), (0, 2), range(3)


def _spiked(fn, target, spike):
    """`fn` whose result gets `spike(result)` at its `target`-th call only."""
    calls = itertools.count()

    def wrapped(*args):
        out = fn(*args)
        return spike(out) if next(calls) == target else out
    return wrapped


def _bump(M):
    M = M.copy()
    M[0, 0] += 1.0
    return M


@pytest.mark.parametrize("failing", ["equivalence", "mass residual"])
def test_oracle_check_names_the_failing_metric_where_it_failed(monkeypatch, failing):
    # 20 events per (D, seed): call 85 is D=2, seed 1, k=5; the passing
    # metric keeps setting new maxima after it
    steps, target = 20, (1 * len(SEEDS) + 1) * 20 + 5
    if failing == "equivalence":
        def spike(rep):
            rep.z_diff = 1.0
            return rep
        monkeypatch.setattr(augmented, "check_equivalence",
                            _spiked(augmented.check_equivalence, target, spike))
    else:
        monkeypatch.setattr(pushsum, "total_mass",
                            _spiked(pushsum.total_mass, target, lambda m: m + 1.0))
    result = harness._check_equivalence_and_mass(SIZES, DEPTHS, steps, SEEDS)
    assert not result.passed
    assert result.detail.endswith(f" ({failing} worst at I=3 D=2 seed=1 k=5)")


@pytest.mark.parametrize("failing", ["column gap", "row gap"])
def test_stochasticity_check_names_the_failing_gap_where_it_failed(monkeypatch, failing):
    # 10 rounds of 3 agents per (D, seed): call 185 is I=3, D=2, seed 1,
    # k=5; at I=6 the real row gaps set new (passing) maxima after it
    seeds = range(5)
    target = (1 * len(seeds) + 1) * 30 + 5
    name = "transition_matrix" if failing == "column gap" else "build_consensus_matrix"
    monkeypatch.setattr(augmented, name, _spiked(getattr(augmented, name), target, _bump))
    result = harness._check_stochasticity((3, 6), DEPTHS, seeds)
    assert not result.passed
    assert result.detail.endswith(f" ({failing} worst at I=3 D=2 seed=1 k=5)")


def test_one_pushsum_step_call_per_event(monkeypatch):
    # the benchmark counts verify-small's events as calls made through the
    # module attribute `pushsum.step`; a refactor must keep one per event
    ks = []
    step = pushsum.step

    def counted(st, ev, eps=None):
        ks.append(ev.k)
        return step(st, ev, eps)

    monkeypatch.setattr(pushsum, "step", counted)
    sizes, depths, steps, seeds = (3, 4), (0, 1), 13, range(2)
    assert harness._check_equivalence_and_mass(sizes, depths, steps, seeds).passed
    assert ks == list(range(steps)) * (len(sizes) * len(depths) * len(seeds))
