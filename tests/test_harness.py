import json
import os

import numpy as np
import pytest

from dasopt import cli, graph, harness, pushsum, schedule


def small_optimize_config(tmp_path, **overrides):
    cfg = {
        "name": "unit",
        "kind": "optimize",
        "objective": {"family": "least-squares", "I": 4, "n": 6, "d_i": 3,
                      "noise_var": 0.04},
        "graph": {"I": 4, "extra_out_degree": 1},
        "activation": {"model": "cyclic-permuted", "rounds": 120},
        "delay": {"kind": "traveling-time", "D_tv": 4},
        "policy_variants": [{"label": "constant", "kind": "constant", "gamma": 0.8}],
        "replicas": 2,
        "master_seed": 3,
        "metrics_stride": 4,
        "output_dir": str(tmp_path / "out"),
    }
    return harness.merge_config(cfg, overrides)


def test_single_replica_mean_equals_trace(tmp_path):
    cfg = small_optimize_config(tmp_path, replicas=1)
    harness.run_experiment(cfg)
    out = cfg["output_dir"]
    single = open(os.path.join(out, "constant_replica_000.csv")).read()
    mean = open(os.path.join(out, "constant_mean.csv")).read()
    assert single == mean


def test_rerun_is_byte_identical(tmp_path):
    cfg1 = small_optimize_config(tmp_path, output_dir=str(tmp_path / "a"))
    cfg2 = small_optimize_config(tmp_path, output_dir=str(tmp_path / "b"))
    harness.run_experiment(cfg1)
    harness.run_experiment(cfg2)
    for fname in sorted(os.listdir(tmp_path / "a")):
        if fname == "config.json":  # records the differing output paths
            continue
        a = open(tmp_path / "a" / fname).read()
        b = open(tmp_path / "b" / fname).read()
        assert a == b, fname


def test_replica_seeds_are_master_plus_index(tmp_path):
    # replicas 1..2 of master seed 3 coincide with replicas 0..1 of master 4
    cfg_a = small_optimize_config(tmp_path, output_dir=str(tmp_path / "a"),
                                  master_seed=3, replicas=3)
    cfg_b = small_optimize_config(tmp_path, output_dir=str(tmp_path / "b"),
                                  master_seed=4, replicas=2)
    harness.run_experiment(cfg_a)
    harness.run_experiment(cfg_b)
    a1 = open(tmp_path / "a" / "constant_replica_001.csv").read()
    b0 = open(tmp_path / "b" / "constant_replica_000.csv").read()
    assert a1 == b0


def test_mean_is_columnwise_average(tmp_path):
    cfg = small_optimize_config(tmp_path)
    harness.run_experiment(cfg)
    out = cfg["output_dir"]

    def load(name):
        rows = open(os.path.join(out, name)).read().strip().splitlines()[1:]
        return np.array([[float(v) for v in r.split(",")] for r in rows])

    r0, r1, mean = load("constant_replica_000.csv"), load("constant_replica_001.csv"), \
        load("constant_mean.csv")
    m = min(len(r0), len(r1))
    np.testing.assert_allclose(mean[:m, 2:], (r0[:m, 2:] + r1[:m, 2:]) / 2, rtol=1e-12)


def test_benchmark_preset_emits_three_variants(tmp_path):
    cfg = harness.merge_config(harness.preset("ls-paper"), {
        "replicas": 2,
        "activation": {"rounds": 40},
        "output_dir": str(tmp_path / "lsp"),
    })
    summary = harness.run_experiment(cfg)
    assert set(summary["variants"]) == {"constant", "diminishing", "sync"}
    for label in ("constant", "diminishing", "sync"):
        assert os.path.exists(tmp_path / "lsp" / f"{label}_mean.csv")
        assert not summary["variants"][label]["diverged"]
    text = open(tmp_path / "lsp" / "summary.txt").read()
    assert "[theory]" in text


def test_summary_reports_rate_and_mass(tmp_path):
    cfg = small_optimize_config(tmp_path)
    summary = harness.run_experiment(cfg)
    info = summary["variants"]["constant"]
    assert info["final_J"] < 1.0
    assert info["max_mass_residual"] <= 1e-10
    assert info["rate_slope"] < 0


def test_robust_classification_from_text_dataset(tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for _ in range(40):
        feats = rng.random(13)
        label = 1 if feats.sum() > 6.5 else 0
        rows.append(",".join(f"{v:.4f}" for v in feats) + f",{label}")
    path = tmp_path / "heart.csv"
    path.write_text("\n".join(rows) + "\n")
    cfg = {
        "name": "rc-file",
        "kind": "optimize",
        "objective": {"family": "robust-classification", "I": 4,
                      "dataset_path": str(path), "lam_reg": 0.05},
        "graph": {"I": 4, "extra_out_degree": 1},
        "activation": {"model": "cyclic-permuted", "rounds": 100},
        "delay": {"kind": "traveling-time", "D_tv": 3},
        "policy_variants": [{"label": "constant", "kind": "constant", "gamma": 1.0}],
        "replicas": 1,
        "master_seed": 0,
        "metrics_stride": 10,
        "output_dir": str(tmp_path / "rc"),
    }
    summary = harness.run_experiment(cfg)
    info = summary["variants"]["constant"]
    assert not info["diverged"]
    assert np.isfinite(info["final_MF"])
    assert info["max_mass_residual"] <= 1e-10


def small_consensus_config(tmp_path):
    return {
        "name": "cons",
        "kind": "consensus",
        "graph": {"I": 5, "extra_out_degree": 1},
        "activation": {"model": "random-rounds", "rounds": 150, "T_max": 9},
        "delay": {"kind": "traveling-time-with-loss", "D_tv": 5,
                  "loss_rate": 0.2, "D_ls": 2},
        "replicas": 1,
        "master_seed": 1,
        "output_dir": str(tmp_path / "cons"),
    }


def test_consensus_experiment_writes_trace(tmp_path):
    cfg = small_consensus_config(tmp_path)
    summary = harness.run_consensus_experiment(cfg)
    assert summary["max_final_error"] <= 1e-6
    lines = open(tmp_path / "cons" / "replica_000.csv").read().splitlines()
    assert lines[0] == harness.CONSENSUS_HEADER
    assert len(lines) > 100


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_suite():
    return harness.verify_suite("small")


def test_verify_suite_passes(small_suite):
    for res in small_suite:
        assert res.passed, res.line()


def test_verify_suite_covers_expected_checks(small_suite):
    names = {r.name for r in small_suite}
    assert names == {"oracle-equivalence+mass-conservation",
                     "transition-stochasticity",
                     "scrambling-lower-bound",
                     "consensus-geometric-decay",
                     "jacobi-parallel-equivalence"}


def test_corrupted_purge_bookkeeping_breaks_mass_conservation():
    # sabotage the consumed-mass bookkeeping: mark the sender's latest stamp
    # as purged even though only the delayed stamp was summed; the in-flight
    # difference silently evaporates and conservation must flag it
    g = graph.build_cycle_plus_random(4, 1, seed=0)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(4, 120, seed=1)
    # heavy traveling-time jitter keeps mass in flight
    sched = schedule.assign_delays(
        acts, g, schedule.DelayModel(kind="traveling-time", D_tv=12, seed=2))
    z0 = np.random.default_rng(3).normal(size=(4, 1))
    st = pushsum.init(g, w, z0, sched.certified_D)
    expected = z0.sum(axis=0)
    worst = 0.0
    for ev in sched.events:
        pushsum.step(st, ev)
        for j in g.in_neighbors(ev.agent):
            e = (j, ev.agent)
            st.rho_tilde[e] = st.rho[e].current()
            st.sigma_tilde[e] = st.sigma[e].current()
        worst = max(worst, float(np.linalg.norm(pushsum.total_mass(st) - expected)))
    assert worst > 1e-6  # the conservation check flags the corruption


def test_tau_regression_is_caught_by_the_oracle_not_conservation(monkeypatch):
    # dropping the max-gate (tau regresses on reordered packets) conserves
    # mass algebraically, but the delay-free oracle diverges from the engine
    from dasopt import augmented

    original = pushsum.step

    def corrupted(state, event, eps=None):
        i = event.agent
        for j in state.g.in_neighbors(i):
            state.tau[(j, i)] = event.k - event.delays[j]
        return original(state, event, eps)

    monkeypatch.setattr(pushsum, "step", corrupted)
    g = graph.build_cycle_plus_random(4, 1, seed=0)
    w = graph.build_uniform_weights(g)
    acts = schedule.gen_cyclic_permuted(4, 100, seed=1)
    # raw per-event delays regress freely; only the purge keeps use monotone
    sched = schedule.gen_uniform_event_delays(acts, g, 6, seed=2)
    z0 = np.random.default_rng(3).normal(size=(4, 1))
    st = pushsum.init(g, w, z0, sched.certified_D)
    aug = augmented.init_augmented(g, z0, sched.certified_D)
    worst = 0.0
    for ev in sched.events:
        pushsum.step(st, ev)
        augmented.step_augmented(aug, ev, w)
        worst = max(worst, augmented.check_equivalence(st, aug).max_diff)
    assert worst > 1e-6


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_constants_exit_code():
    assert cli.main(["constants", "--m-bar", "0.5", "--agents", "2", "--edges", "2",
                     "--T", "2", "--D", "0", "--c-l", "1.0", "--l-sum", "2.0",
                     "--tau", "0.5"]) == 0


def test_cli_verify_exit_codes(monkeypatch, capsys):
    # the genuine suite runs in test_verify_suite_passes; here the exit-code
    # contract is pinned on stubbed outcomes
    monkeypatch.setattr(harness, "verify_suite",
                        lambda scale: [harness.CheckResult("stub", True, "ok")])
    assert cli.main(["verify"]) == 0
    assert "[PASS] stub" in capsys.readouterr().out
    monkeypatch.setattr(harness, "verify_suite",
                        lambda scale: [harness.CheckResult("stub", True, "ok"),
                                       harness.CheckResult("bad", False, "broken")])
    assert cli.main(["verify"]) == 1
    assert "[FAIL] bad" in capsys.readouterr().out


def test_run_emits_replayable_config(tmp_path):
    for cfg, run in ((small_optimize_config(tmp_path), harness.run_experiment),
                     (small_consensus_config(tmp_path), harness.run_consensus_experiment)):
        run(cfg)
        emitted = json.load(open(os.path.join(cfg["output_dir"], "config.json")))
        assert emitted == cfg


def test_cli_consensus_run(tmp_path, capsys):
    rc = cli.main(["consensus", "--agents", "4", "--rounds", "150",
                   "--delay-kind", "traveling-time", "--d-tv", "3",
                   "--out-dir", str(tmp_path / "c")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "final max consensus error" in out
    assert os.path.exists(tmp_path / "c" / "replica_000.csv")


def test_cli_optimize_desk(tmp_path, capsys):
    rc = cli.main(["optimize", "--agents", "4", "--dimension", "6", "--d-i", "3",
                   "--gamma", "0.8", "--rounds", "100",
                   "--delay-kind", "traveling-time", "--d-tv", "3",
                   "--metrics-stride", "5",
                   "--out-dir", str(tmp_path / "o")])
    assert rc == 0
    assert "constant" in capsys.readouterr().out
    assert os.path.exists(tmp_path / "o" / "constant_mean.csv")


def test_cli_config_file_overrides_flags(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"activation": {"rounds": 60},
                                    "master_seed": 9}))
    rc = cli.main(["optimize", "--agents", "4", "--dimension", "6", "--d-i", "3",
                   "--gamma", "0.8", "--rounds", "999",
                   "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "o2")])
    assert rc == 0
    rows = open(tmp_path / "o2" / "constant_replica_000.csv").read().splitlines()
    # 60 rounds x 4 agents = 240 events; the config file beat the flag
    assert int(rows[-1].split(",")[0]) == 239


def test_cli_preset_with_config_shrink(tmp_path):
    cfg_path = tmp_path / "small.json"
    cfg_path.write_text(json.dumps({
        "replicas": 1,
        "activation": {"rounds": 3},
        "objective": {"I": 6, "n": 10, "d_i": 4},
        "graph": {"I": 6},
        "policy_variants": [{"label": "constant", "kind": "constant", "gamma": 1.0}],
    }))
    rc = cli.main(["optimize", "--preset", "ls-paper", "--config", str(cfg_path),
                   "--out-dir", str(tmp_path / "p")])
    assert rc == 0
    assert os.path.exists(tmp_path / "p" / "constant_mean.csv")


def test_cli_track_run(tmp_path):
    rc = cli.main(["track", "--agents", "4", "--rounds", "200",
                   "--out-dir", str(tmp_path / "t")])
    assert rc == 0
    assert os.path.exists(tmp_path / "t" / "replica_000.csv")
