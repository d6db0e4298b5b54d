"""Optimizer, scheduler, checkpointing, and the run loop."""

import dataclasses
import json
import math
import os
import re
import socket

import numpy as np
import pytest

from conftest import TINY_SPEC, tiny_config
from seqlab.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    load_checkpoint,
    restore_optimizer,
    restore_task_params,
    save_checkpoint,
)
import seqlab.checkpoint as checkpoint
from seqlab.data import SynthSpec, batch_iterator, encode_example, make_task_corpora, task_seed
from seqlab.errors import CheckpointError, ContractError, NumericError
from seqlab.model import ModelConfig, forward_loss
from seqlab.sharing import EUCLIDEAN, Mode, ParamRegistry, SharingPlan, single_task_params
from seqlab.tensor import (
    add,
    backward,
    grad_enabled,
    multiply,
    reduce_sum,
    scale,
    subtract,
    tensor,
)
import seqlab.training as training
from seqlab.training import (
    AdamState,
    TrainConfig,
    TrainTask,
    adam_step,
    clip_gradients,
    mixing_scheduler,
    penalty_descent,
    read_metrics,
    sgd_step,
    train,
    validation_loss,
    warm_start,
)


class TestTrainConfig:
    def test_defaults_valid(self):
        TrainConfig()

    @pytest.mark.parametrize("ratios", [(), (0, 0), (-1, 2)])
    def test_bad_ratios(self, ratios):
        with pytest.raises(ContractError, match="ratio"):
            TrainConfig(ratios=ratios)

    def test_bad_scalars(self):
        with pytest.raises(ContractError, match="coverage weight"):
            TrainConfig(cov_weight=-0.1)
        with pytest.raises(ContractError, match="clip norm"):
            TrainConfig(clip_norm=0.0)
        with pytest.raises(ContractError, match="coverage_mode"):
            TrainConfig(coverage_mode="sometimes")
        with pytest.raises(ContractError, match="set model.use_coverage to false"):
            TrainConfig(coverage_mode="off")
        with pytest.raises(ContractError, match="learning rate"):
            TrainConfig(lr=0.0)
        with pytest.raises(ContractError, match="patience"):
            TrainConfig(patience=0)


class TestMixingScheduler:
    def test_4_3_3_cycle(self):
        sched = mixing_scheduler((4, 3, 3), ("s", "q", "e"))
        got = [next(sched) for _ in range(20)]
        cycle = ["s"] * 4 + ["q"] * 3 + ["e"] * 3
        assert got == cycle + cycle

    def test_primary_only(self):
        sched = mixing_scheduler((1, 0, 0))
        assert [next(sched) for _ in range(5)] == [0] * 5

    def test_100_to_1_two_way(self):
        sched = mixing_scheduler((100, 1), ("g", "s"))
        got = [next(sched) for _ in range(202)]
        assert got[:100] == ["g"] * 100
        assert got[100] == "s"
        assert got[101:201] == ["g"] * 100
        assert got[201] == "s"

    def test_fairness_over_full_cycles(self):
        ratios = (4, 3, 3)
        sched = mixing_scheduler(ratios)
        k = 7
        got = [next(sched) for _ in range(k * sum(ratios))]
        for i, r in enumerate(ratios):
            assert got.count(i) == k * r

    def test_all_zero_rejected(self):
        with pytest.raises(ContractError, match="ratios"):
            mixing_scheduler((0, 0))

    def test_length_mismatch(self):
        with pytest.raises(ContractError, match="2 ratios for 3 tasks"):
            mixing_scheduler((1, 1), ("a", "b", "c"))


class TestClipGradients:
    def test_norm_above_max_is_scaled(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        clipped, norm = clip_gradients(grads, 2.5)
        assert norm == 5.0
        np.testing.assert_allclose(clipped["a"], [1.5])
        np.testing.assert_allclose(clipped["b"], [2.0])

    def test_norm_below_max_unchanged(self):
        grads = {"a": np.array([1.0, 0.0])}
        clipped, norm = clip_gradients(grads, 2.0)
        assert norm == 1.0
        assert clipped["a"] is grads["a"]

    def test_zero_grads_unchanged(self):
        grads = {"a": np.zeros(3)}
        clipped, norm = clip_gradients(grads, 2.0)
        assert norm == 0.0
        assert clipped["a"] is grads["a"]

    def test_nonfinite_named(self):
        grads = {"ok": np.ones(2), "Attn/score_v": np.array([np.inf])}
        with pytest.raises(NumericError, match="Attn/score_v"):
            clip_gradients(grads, 2.0)

    def test_never_increases_norm_and_keeps_direction(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            grads = {str(i): rng.normal(size=rng.integers(1, 6)) for i in range(3)}
            max_norm = float(rng.uniform(0.1, 3.0))
            clipped, norm = clip_gradients(grads, max_norm)
            new_norm = math.sqrt(sum(float((g**2).sum()) for g in clipped.values()))
            assert new_norm <= max(norm, max_norm) + 1e-12
            assert new_norm <= norm + 1e-12
            flat_old = np.concatenate([grads[k].ravel() for k in sorted(grads)])
            flat_new = np.concatenate([clipped[k].ravel() for k in sorted(clipped)])
            cos = flat_old @ flat_new / (np.linalg.norm(flat_old) * np.linalg.norm(flat_new))
            assert cos == pytest.approx(1.0, abs=1e-12)


def toy_params():
    return {"w": tensor(np.zeros(3)), "b": tensor(np.zeros(2))}


class ToyState:
    """AdamState-shaped container for plain dict parameters."""

    def __init__(self, params):
        self.m = {k: np.zeros_like(t.values) for k, t in params.items()}
        self.v = {k: np.zeros_like(t.values) for k, t in params.items()}
        self.t = 0


class TestAdam:
    def test_first_step_moves_by_lr(self):
        params = toy_params()
        grads = {"w": np.array([3.0, -3.0, 0.5]), "b": np.array([1.0, 1.0])}
        state = ToyState(params)
        adam_step(params, grads, state, lr=0.01)
        # bias-corrected m/sqrt(v) is sign(g) for any constant gradient
        np.testing.assert_allclose(params["w"].values, [-0.01, 0.01, -0.01], rtol=1e-6)
        np.testing.assert_allclose(params["b"].values, [-0.01, -0.01], rtol=1e-6)
        assert state.t == 1

    def test_zero_gradient_no_move(self):
        params = toy_params()
        state = ToyState(params)
        grads = {k: np.zeros_like(t.values) for k, t in params.items()}
        adam_step(params, grads, state, lr=0.1)
        np.testing.assert_array_equal(params["w"].values, 0.0)
        assert state.t == 1

    def test_zero_lr_updates_moments_only(self):
        params = toy_params()
        state = ToyState(params)
        grads = {"w": np.ones(3), "b": np.ones(2)}
        adam_step(params, grads, state, lr=0.0)
        np.testing.assert_array_equal(params["w"].values, 0.0)
        assert state.m["w"][0] == pytest.approx(0.1)
        assert state.v["w"][0] == pytest.approx(0.001)

    def test_two_steps_match_hand_formula(self):
        params = {"w": tensor(np.zeros(1))}
        state = ToyState(params)
        g1, g2, lr = 2.0, -1.0, 0.05
        adam_step(params, {"w": np.array([g1])}, state, lr)
        adam_step(params, {"w": np.array([g2])}, state, lr)
        b1, b2, eps = 0.9, 0.999, 1e-8
        m1, v1 = (1 - b1) * g1, (1 - b2) * g1**2
        th1 = -lr * (m1 / (1 - b1)) / (math.sqrt(v1 / (1 - b2)) + eps)
        m2, v2 = b1 * m1 + (1 - b1) * g2, b2 * v1 + (1 - b2) * g2**2
        th2 = th1 - lr * (m2 / (1 - b1**2)) / (math.sqrt(v2 / (1 - b2**2)) + eps)
        assert params["w"].values[0] == pytest.approx(th2, rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_five_steps_bitwise_equal_to_formula(self, dtype):
        """The in-place update rounds exactly as the textbook expression does."""
        rng = np.random.default_rng(4)
        shapes = {"w": (5, 3), "b": (3,), "s": (1,)}
        params = {k: tensor(rng.normal(size=s).astype(dtype)) for k, s in shapes.items()}
        state = ToyState(params)
        x = {k: t.values.copy() for k, t in params.items()}
        m = {k: np.zeros_like(a) for k, a in x.items()}
        v = {k: np.zeros_like(a) for k, a in x.items()}
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        for t in range(1, 6):
            grads = {k: (rng.normal(size=s) * 10.0 ** rng.integers(-6, 2)).astype(dtype)
                     for k, s in shapes.items()}
            adam_step(params, grads, state, lr)
            for k, g in grads.items():
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
                x[k] = x[k] - lr * (m[k] / (1.0 - b1**t)) / (np.sqrt(v[k] / (1.0 - b2**t)) + eps)
        for k in shapes:
            assert params[k].values.dtype == dtype
            np.testing.assert_array_equal(params[k].values, x[k])
            np.testing.assert_array_equal(state.m[k], m[k])
            np.testing.assert_array_equal(state.v[k], v[k])

    def test_missing_gradient_rejected(self):
        params = toy_params()
        state = ToyState(params)
        with pytest.raises(ContractError, match="no gradient"):
            adam_step(params, {"w": np.zeros(3)}, state, lr=0.1)

    def test_sgd_step(self):
        params = toy_params()
        sgd_step(params, {"w": np.array([1.0, 2.0, 3.0])}, lr=0.1)
        np.testing.assert_allclose(params["w"].values, [-0.1, -0.2, -0.3])


class TestPenaltyDescent:
    def test_distance_shrinks_monotonically(self):
        cfg = tiny_config()
        plan = SharingPlan({"Attn": Mode.SOFT, "E2": Mode.SOFT}, gamma=1.0)
        reg = ParamRegistry(cfg, plan, seed=4, init_range=0.1)
        reg.add_task("a")
        reg.add_task("b")
        traj = penalty_descent(reg, steps=100, lr=1e-3)
        assert len(traj) == 101
        assert traj[-1] < traj[0]
        assert all(later < earlier for earlier, later in zip(traj, traj[1:]))

    def test_needs_positive_gamma(self):
        reg = ParamRegistry(tiny_config(), SharingPlan.solo(), seed=0)
        reg.add_task("a")
        with pytest.raises(ContractError, match="gamma"):
            penalty_descent(reg, steps=1)


# ---------------------------------------------------------------------------
# Checkpoints


def small_setup(tmp_path, hidden=8):
    cfg = tiny_config(hidden=hidden)
    params = single_task_params(cfg, task="a", seed=1)
    state = AdamState(params)
    state.t = 3
    for k in state.m:
        state.m[k][...] = 0.5
    vocab = TINY_SPEC.vocab()
    path = save_checkpoint(
        tmp_path / "ck.npz",
        step=42,
        tasks={"a": params},
        config={"note": "unit"},
        optimizer={"a": state},
        vocabs={"a": vocab},
    )
    return cfg, params, state, vocab, path


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        cfg, params, state, vocab, path = small_setup(tmp_path)
        ckpt = load_checkpoint(path)
        assert ckpt.version == CHECKPOINT_VERSION
        assert ckpt.step == 42
        assert ckpt.config == {"note": "unit"}
        assert ckpt.tasks == ("a",)
        for tag, name, t in params.named():
            np.testing.assert_array_equal(ckpt.params["a"][tag][name], t.values)
        assert ckpt.adam_t["a"] == 3
        assert ckpt.adam_m["a"]["Emb"]["table"][0, 0] == 0.5
        assert ckpt.vocabs["a"] == vocab.tokens

    def test_restore_params(self, tmp_path):
        cfg, params, _, _, path = small_setup(tmp_path)
        ckpt = load_checkpoint(path)
        fresh = single_task_params(cfg, task="a", seed=99)
        assert not np.array_equal(
            fresh["Emb"]["table"].values, params["Emb"]["table"].values
        )
        restore_task_params(fresh, ckpt)
        for tag, name, t in params.named():
            np.testing.assert_array_equal(fresh[tag][name].values, t.values)

    def test_restore_single_task_into_other_name(self, tmp_path):
        cfg, params, _, _, path = small_setup(tmp_path)
        other = single_task_params(cfg, task="z", seed=7)
        restore_task_params(other, load_checkpoint(path))
        np.testing.assert_array_equal(
            other["Emb"]["table"].values, params["Emb"]["table"].values
        )

    def test_restore_shape_mismatch(self, tmp_path):
        _, _, _, _, path = small_setup(tmp_path, hidden=8)
        bigger = single_task_params(tiny_config(hidden=16), task="a")
        with pytest.raises(CheckpointError, match="shape mismatch"):
            restore_task_params(bigger, load_checkpoint(path))

    def test_restore_optimizer(self, tmp_path):
        cfg, params, state, _, path = small_setup(tmp_path)
        fresh = AdamState(single_task_params(cfg, task="a", seed=5))
        restore_optimizer(fresh, load_checkpoint(path), "a")
        assert fresh.t == 3
        np.testing.assert_array_equal(fresh.m["Emb/table"], state.m["Emb/table"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "ghost.npz")

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_text("not a checkpoint")
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(path)

    def test_missing_version(self, tmp_path):
        path = tmp_path / "old.npz"
        np.savez(path, step=np.array(1))
        with pytest.raises(CheckpointError, match="no version"):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(path, version=np.array(99), step=np.array(1))
        with pytest.raises(CheckpointError, match="version 99"):
            load_checkpoint(path)

    def test_version_1_per_gate_archive_is_refused(self, tmp_path):
        # Version 1 stored every LSTM gate as its own array; this build
        # reads only the fused layout and says which versions differ.
        path = tmp_path / "v1.npz"
        np.savez(
            path,
            version=np.array(1),
            step=np.array(5),
            config=np.array(json.dumps({})),
            tasks=np.array(json.dumps(["a"])),
            **{"params/a/E1/fwd_wi": np.zeros((8, 8))},
        )
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "version 1" in str(err.value)
        assert f"version {CHECKPOINT_VERSION}" in str(err.value)

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, version=np.array(CHECKPOINT_VERSION), step=np.array(1))
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(path)


# ---------------------------------------------------------------------------
# The run loop


def copy_task(name="copy", sizes=(48, 12, 12), generator="copy"):
    corpora = make_task_corpora(generator, seed=5, sizes=sizes, spec=TINY_SPEC)
    return TrainTask(name, corpora, TINY_SPEC.vocab())


def quick_conf(**overrides):
    base = dict(
        batch_size=8, max_steps=9, val_every=3, checkpoint_every=3,
        ratios=(1,), seed=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def solo_registry(cfg, name="copy", seed=0):
    reg = ParamRegistry(cfg, SharingPlan.solo(), seed=seed, init_range=0.1)
    reg.add_task(name)
    return reg


class TestTrainLoop:
    def test_artifacts_and_lock_lifecycle(self, tmp_path):
        cfg = tiny_config()
        run = tmp_path / "run"
        result = train(cfg, quick_conf(), solo_registry(cfg), [copy_task()], run)
        assert result.steps == 9
        assert result.stop_reason == "max_steps"
        assert (run / "config.json").exists()
        assert (run / "run_meta.json").exists()
        assert not (run / "LOCK").exists()
        assert result.checkpoint_steps == (3, 6, 9)
        for s in (3, 6, 9):
            assert (run / "checkpoints" / f"step-{s:06d}.npz").exists()
        echo = json.loads((run / "config.json").read_text())
        assert echo["tasks"] == ["copy"]
        assert echo["train"]["max_steps"] == 9

    def test_metric_log_contents(self, tmp_path):
        cfg = tiny_config()
        run = tmp_path / "run"
        train(cfg, quick_conf(), solo_registry(cfg), [copy_task()], run)
        records = read_metrics(run)
        trains = [r for r in records if r["kind"] == "train"]
        vals = [r for r in records if r["kind"] == "val"]
        assert len(trains) == 9 and len(vals) == 3
        for r in trains:
            assert r["total"] == pytest.approx(
                r["nll"] + 1.0 * r["l_cov"] + r["soft_penalty"], rel=1e-9
            )
            assert r["l_cov"] > 0  # coverage on for the primary task
        assert [r["step"] for r in vals] == [3, 6, 9]

    def test_coverage_off_means_total_equals_nll(self, tmp_path):
        cfg = tiny_config(use_coverage=False)
        run = tmp_path / "run"
        train(
            cfg, quick_conf(max_steps=3),
            solo_registry(cfg), [copy_task()], run,
        )
        for r in read_metrics(run):
            if r["kind"] == "train":
                assert r["l_cov"] == 0.0
                assert r["total"] == r["nll"]

    def test_model_switch_alone_turns_coverage_off(self, tmp_path):
        # A default TrainConfig schedules coverage "on"; the model's switch
        # still keeps the coverage term and its feature out of training.
        cfg = tiny_config(use_coverage=False)
        reg = solo_registry(cfg)
        cov_w = reg.task("copy")["Attn"]["cov_w"]
        start = cov_w.values.copy()
        train(cfg, TrainConfig(batch_size=8, max_steps=6, val_every=3), reg, [copy_task()],
              tmp_path / "run")
        trains = [r for r in read_metrics(tmp_path / "run") if r["kind"] == "train"]
        assert len(trains) == 6
        for r in trains:
            assert r["l_cov"] == 0.0
            assert r["total"] == r["nll"] + r["soft_penalty"]
        np.testing.assert_array_equal(cov_w.values, start)

    def test_phased_needs_model_coverage(self, tmp_path):
        cfg = tiny_config(use_coverage=False)
        run = tmp_path / "run"
        with pytest.raises(ContractError, match="set model.use_coverage to true"):
            train(cfg, quick_conf(coverage_mode="phased"), solo_registry(cfg), [copy_task()], run)
        assert not run.exists()

    def test_determinism(self, tmp_path):
        cfg = tiny_config()
        finals = []
        logs = []
        for i in range(2):
            reg = solo_registry(cfg)
            run = tmp_path / f"run{i}"
            train(cfg, quick_conf(), reg, [copy_task()], run)
            finals.append({k: t.values.copy() for k, t in reg.task("copy").flat().items()})
            logs.append((run / "metrics.jsonl").read_text())
        assert logs[0] == logs[1]
        for key in finals[0]:
            np.testing.assert_array_equal(finals[0][key], finals[1][key])

    def test_schedule_and_aux_coverage(self, tmp_path):
        cfg = tiny_config()
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.01), seed=0, init_range=0.1)
        reg.add_task("copy")
        reg.add_task("kw")
        tasks = [copy_task("copy"), copy_task("kw", generator="keyword-extract")]
        run = tmp_path / "run"
        train(cfg, quick_conf(ratios=(2, 1), max_steps=6), reg, tasks, run)
        trains = [r for r in read_metrics(run) if r["kind"] == "train"]
        assert [r["task"] for r in trains] == ["copy", "copy", "kw", "copy", "copy", "kw"]
        for r in trains:
            if r["task"] == "kw":
                assert r["l_cov"] == 0.0  # coverage is primary-only
            assert r["soft_penalty"] > 0.0

    def test_lock_blocks_second_run(self, tmp_path):
        cfg = tiny_config()
        run = tmp_path / "run"
        run.mkdir()
        lock = training._acquire_lock(run)
        owner = f"pid {os.getpid()} host {socket.gethostname()}"
        with pytest.raises(ContractError, match=f"locked by {re.escape(owner)} "):
            train(cfg, quick_conf(), solo_registry(cfg), [copy_task()], run)
        assert lock.read_text() == owner + "\n"  # a held lock is never removed

    def test_refuses_to_overwrite_finished_run(self, tmp_path):
        cfg = tiny_config()
        run = tmp_path / "run"
        train(cfg, quick_conf(max_steps=3), solo_registry(cfg), [copy_task()], run)
        with pytest.raises(ContractError, match="already contains"):
            train(cfg, quick_conf(), solo_registry(cfg, seed=1), [copy_task()], run)

    def test_ratio_task_mismatch(self, tmp_path):
        cfg = tiny_config()
        with pytest.raises(ContractError, match="ratios"):
            train(cfg, quick_conf(ratios=(1, 1)), solo_registry(cfg),
                  [copy_task()], tmp_path / "run")

    def test_unregistered_task(self, tmp_path):
        cfg = tiny_config()
        with pytest.raises(ContractError, match="unknown task"):
            train(cfg, quick_conf(), solo_registry(cfg, name="other"),
                  [copy_task()], tmp_path / "run")

    def test_divergence_aborts_keeping_checkpoints(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        real = training.forward_loss
        seen = {"n": 0}

        def poisoned(params, cfg_, batch, **kw):
            parts = real(params, cfg_, batch, **kw)
            if grad_enabled():
                seen["n"] += 1
                if seen["n"] > 7:
                    bad = np.array(np.nan)
                    return dataclasses.replace(parts, total=tensor(bad))
            return parts

        monkeypatch.setattr(training, "forward_loss", poisoned)
        run = tmp_path / "run"
        with pytest.raises(NumericError, match="diverged at step 8"):
            train(cfg, quick_conf(max_steps=30), solo_registry(cfg), [copy_task()], run)
        assert (run / "checkpoints" / "step-000003.npz").exists()
        assert (run / "checkpoints" / "step-000006.npz").exists()
        assert not (run / "LOCK").exists()
        assert read_metrics(run)[-1]["kind"] == "abort"

    def test_patience_stop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(training, "validation_loss", lambda *a, **k: (1.0, 1.0))
        cfg = tiny_config()
        run = tmp_path / "run"
        result = train(
            cfg, quick_conf(max_steps=50, val_every=1, patience=2),
            solo_registry(cfg), [copy_task()], run,
        )
        # eval 1 improves (from inf); evals 2 and 3 do not -> stop at step 3
        assert result.stop_reason == "patience"
        assert result.steps == 3
        assert result.best_step == 1
        meta = json.loads((run / "run_meta.json").read_text())
        assert meta["stop_reason"] == "patience"
        assert "not improved for 2 consecutive" in meta["convergence"]

    def test_phased_coverage(self, tmp_path, monkeypatch):
        monkeypatch.setattr(training, "validation_loss", lambda *a, **k: (1.0, 1.0))
        cfg = tiny_config()
        run = tmp_path / "run"
        result = train(
            cfg,
            quick_conf(
                max_steps=50, val_every=1, patience=2,
                coverage_mode="phased", lr=1e-3, coverage_lr=1e-4,
            ),
            solo_registry(cfg), [copy_task()], run,
        )
        records = read_metrics(run)
        phases = [r for r in records if r["kind"] == "phase"]
        assert len(phases) == 1 and phases[0]["step"] == 3
        trains = {r["step"]: r for r in records if r["kind"] == "train"}
        assert trains[3]["lr"] == 1e-3 and trains[3]["l_cov"] == 0.0
        assert trains[4]["lr"] == 1e-4 and trains[4]["l_cov"] > 0.0
        assert result.stop_reason == "patience"
        assert result.steps == 6

    def test_gamma_zero_multitask_matches_solo_runs(self, tmp_path):
        # soft sharing with gamma=0 is exactly independent training
        cfg = tiny_config()
        tasks = {
            "copy": copy_task("copy"),
            "kw": copy_task("kw", generator="keyword-extract"),
        }
        mtl_reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.0), seed=3, init_range=0.1)
        for name in tasks:
            mtl_reg.add_task(name)
        train(
            cfg, quick_conf(ratios=(1, 1), max_steps=10, seed=3),
            mtl_reg, list(tasks.values()), tmp_path / "mtl",
        )
        for name, task in tasks.items():
            solo_reg = ParamRegistry(cfg, SharingPlan.solo(), seed=3, init_range=0.1)
            solo_reg.add_task(name)
            # the aux task trains without coverage inside the MTL run, so its
            # independent baseline must too
            solo_cfg = dataclasses.replace(cfg, use_coverage=name == "copy")
            train(
                solo_cfg, quick_conf(ratios=(1,), max_steps=5, seed=3),
                solo_reg, [task], tmp_path / f"solo-{name}",
            )
            mtl_flat = mtl_reg.task(name).flat()
            for key, t in solo_reg.task(name).flat().items():
                np.testing.assert_array_equal(t.values, mtl_flat[key].values)

    def test_squared_penalty_step_matches_hand_step(self, tmp_path):
        # one step of `train` equals one step built by hand from the same
        # batch, with the squared penalty as tensor ops on frozen counterparts
        cfg = tiny_config()
        tconf = quick_conf(ratios=(1, 1), max_steps=1, val_every=5, checkpoint_every=5)
        tasks = [copy_task("copy"), copy_task("kw", generator="keyword-extract")]

        def registry():
            plan = SharingPlan.preset("final", gamma=0.05)
            reg = ParamRegistry(cfg, plan, seed=0, init_range=0.1)
            for t in tasks:
                reg.add_task(t.name)
            return reg

        run = tmp_path / "run"
        train(cfg, tconf, registry(), tasks, run)
        trained = load_checkpoint(run / "checkpoints" / "step-000001.npz").task_arrays("copy")

        def hand_step(with_penalty):
            ref = registry()
            own, other = ref.task("copy"), ref.task("kw")
            examples = [encode_example(ex, tasks[0].vocab) for ex in tasks[0].corpora.train]
            rng = np.random.default_rng(task_seed(tconf.seed, "copy", stream=1))
            batch = next(batch_iterator(examples, tconf.batch_size, rng, dtype=cfg.np_dtype))
            loss = forward_loss(own, cfg, batch, cov_weight=tconf.cov_weight, use_coverage=True).total
            if with_penalty:
                penalty = None
                for tag in ref.plan.soft_tags:
                    for name, t in own[tag].items():
                        diff = subtract(t, tensor(other[tag][name].values.copy()))
                        term = reduce_sum(multiply(diff, diff))
                        penalty = term if penalty is None else add(penalty, term)
                loss = add(loss, scale(penalty, ref.plan.gamma))
            flat = own.flat()
            adjoint = backward(loss, wrt=flat.values())
            grads, _ = clip_gradients({k: adjoint[t] for k, t in flat.items()}, tconf.clip_norm)
            adam_step(flat, grads, AdamState(own), tconf.lr)
            return own

        expected = hand_step(with_penalty=True)
        for tag, name, t in expected.named():
            np.testing.assert_allclose(trained[tag][name], t.values, rtol=0, atol=1e-12)
        # the comparison has power: the same step without the penalty differs
        unpulled = hand_step(with_penalty=False)
        gap = max(
            float(np.abs(trained[tag][name] - unpulled[tag][name].values).max())
            for tag in ("E2", "Attn", "D1")
            for name in unpulled[tag]
        )
        assert gap > 1e-4

    def test_hard_sharing_stays_identical(self, tmp_path):
        cfg = tiny_config()
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.0, hard=True), seed=0, init_range=0.1)
        reg.add_task("copy")
        reg.add_task("kw")
        tasks = [copy_task("copy"), copy_task("kw", generator="keyword-extract")]
        train(cfg, quick_conf(ratios=(1, 1), max_steps=8), reg, tasks, tmp_path / "run")
        a, b = reg.task("copy"), reg.task("kw")
        for tag in ("E2", "Attn", "D1"):
            for name in a[tag]:
                np.testing.assert_array_equal(a[tag][name].values, b[tag][name].values)
        assert not np.array_equal(a["Emb"]["table"].values, b["Emb"]["table"].values)

    def test_warm_checkpoint_restores_params(self, tmp_path):
        cfg = tiny_config()
        base_reg = solo_registry(cfg)
        base_run = tmp_path / "base"
        train(cfg, quick_conf(), base_reg, [copy_task()], base_run)
        ckpt_path = warm_start(base_run, 1.0)
        saved = load_checkpoint(ckpt_path)

        warm_reg = solo_registry(cfg, seed=77)
        task = copy_task()
        task = TrainTask(task.name, task.corpora, task.vocab, warm_checkpoint=ckpt_path)
        run = tmp_path / "warm"
        train(cfg, quick_conf(max_steps=1, val_every=5, checkpoint_every=5),
              solo_registry(cfg, seed=77), [task], run)
        records = read_metrics(run)
        assert records[0]["kind"] == "warm_start"
        assert records[0]["checkpoint_step"] == saved.step


class TestValidationLoss:
    def test_coverage_toggle(self):
        from seqlab.data import encode_example

        cfg = tiny_config()
        params = single_task_params(cfg, seed=0, init_range=0.1)
        corp = make_task_corpora("copy", seed=5, sizes=(4, 6, 4), spec=TINY_SPEC)
        vocab = TINY_SPEC.vocab()
        enc = [encode_example(ex, vocab) for ex in corp.val]
        nll_off, loss_off = validation_loss(params, cfg, enc, 4, 1.0, use_coverage=False)
        nll_on, loss_on = validation_loss(params, cfg, enc, 4, 1.0, use_coverage=True)
        assert loss_off == nll_off
        assert nll_on == pytest.approx(nll_off)
        assert loss_on > nll_on  # coverage term is nonnegative and here positive

    def test_empty_rejected(self):
        cfg = tiny_config()
        params = single_task_params(cfg)
        with pytest.raises(ContractError, match="empty"):
            validation_loss(params, cfg, [], 4, 1.0, False)


class TestWarmStart:
    def fake_run(self, tmp_path, best_step, ckpt_steps):
        run = tmp_path / "base"
        (run / "checkpoints").mkdir(parents=True)
        (run / "run_meta.json").write_text(json.dumps({"best_step": best_step}))
        params = single_task_params(tiny_config(), task="a")
        for s in ckpt_steps:
            save_checkpoint(
                run / "checkpoints" / f"step-{s:06d}.npz",
                step=s, tasks={"a": params}, config={},
            )
        return run

    def test_nearest_exact_hit(self, tmp_path):
        run = self.fake_run(tmp_path, 1000, range(100, 1300, 100))
        assert warm_start(run, 0.9).name == "step-000900.npz"

    def test_fraction_one_is_best_checkpoint(self, tmp_path):
        run = self.fake_run(tmp_path, 1000, range(100, 1300, 100))
        assert warm_start(run, 1.0).name == "step-001000.npz"

    def test_tie_goes_to_earlier(self, tmp_path):
        run = self.fake_run(tmp_path, 1000, (800, 1000))  # target 900
        assert warm_start(run, 0.9).name == "step-000800.npz"

    def test_rounds_target_up(self, tmp_path):
        run = self.fake_run(tmp_path, 5, (4, 6))  # 0.9 * 5 = 4.5 -> target 5: tie
        assert warm_start(run, 0.9).name == "step-000004.npz"

    def test_no_checkpoint_at_or_before_target(self, tmp_path):
        run = self.fake_run(tmp_path, 1000, (2000,))
        with pytest.raises(ContractError, match="no checkpoint at or before"):
            warm_start(run, 0.9)

    def test_no_validation_recorded(self, tmp_path):
        run = self.fake_run(tmp_path, 0, (100,))
        with pytest.raises(ContractError, match="no validation"):
            warm_start(run, 0.9)

    def test_bad_fraction(self, tmp_path):
        with pytest.raises(ContractError, match="fraction"):
            warm_start(tmp_path, 0.0)

    def test_missing_meta(self, tmp_path):
        with pytest.raises(ContractError, match="run_meta"):
            warm_start(tmp_path, 0.9)

    def test_failed_write_leaves_no_partial_checkpoint(self, tmp_path, monkeypatch):
        run = self.fake_run(tmp_path, 1000, (800, 1000))
        ckpt_dir = run / "checkpoints"
        before = {p.name: p.read_bytes() for p in ckpt_dir.iterdir()}

        def savez_dies_midway(fh, **arrays):
            fh.write(b"PK\x03\x04 truncated")
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint.np, "savez", savez_dies_midway)
        params = single_task_params(tiny_config(), task="a")
        for step in (900, 1000):  # a new step, and an overwrite of an old one
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(
                    ckpt_dir / f"step-{step:06d}.npz", step=step, tasks={"a": params}, config={}
                )
        monkeypatch.undo()

        after = {p.name: p.read_bytes() for p in ckpt_dir.iterdir()}
        assert after == before
        for fraction, step in ((0.9, 800), (1.0, 1000)):
            picked = warm_start(run, fraction)
            assert picked.name == f"step-{step:06d}.npz"
            assert load_checkpoint(picked).step == step
