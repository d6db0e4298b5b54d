"""Optimizer, scheduler, checkpointing, and the run loop."""

import dataclasses
import gc
import json
import math
import os
import re
import socket
import stat
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import TINY_SPEC, tiny_config
from seqlab.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    atomic_write,
    load_checkpoint,
    restore_optimizer,
    restore_task_params,
    save_checkpoint,
)
import seqlab.checkpoint as checkpoint
from seqlab.cli import _gradcheck_setup
from seqlab.data import Example, SynthSpec, batch_iterator, encode_example, make_task_corpora, task_seed
from seqlab.errors import CheckpointError, ContractError, NumericError
from seqlab.model import TAGS, ModelConfig, forward_loss
from seqlab.sharing import (
    EUCLIDEAN,
    TILE,
    Layout,
    Mode,
    ParamRegistry,
    SharingPlan,
    TaskParams,
    single_task_params,
)
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
    HELD_OUT_BATCH,
    AdamState,
    TrainConfig,
    TrainTask,
    adam_step,
    clip_gradients,
    mixing_scheduler,
    penalty_descent,
    read_metrics,
    step_gradient_check,
    token_accuracy,
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

    @pytest.mark.parametrize("ratios", [(0.5, 1), (True, 1), (1.0, 1)])
    def test_non_integer_ratios(self, ratios):
        # int(0.5) == 0 would silently drop the primary task from the cycle.
        with pytest.raises(ContractError, match="integers"):
            TrainConfig(ratios=ratios)
        with pytest.raises(ContractError, match="integers"):
            mixing_scheduler(ratios)

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


def arena_of(params):
    """A zero gradient arena for `params` and its per-array views."""
    arena = np.zeros(params.layout.size, dtype=params.buffers[0].dtype)
    return arena, params.layout.views(arena)


def one_buffer_params(size, rng, dtype=np.float64):
    """Parameters that are one buffer of `size` elements, one array."""
    shapes = {tag: {"w": (size,)} if tag == "Emb" else {} for tag in TAGS}
    layout = Layout.build(shapes, SharingPlan.solo())
    buffer = rng.normal(size=size).astype(dtype)
    return TaskParams("t", {}, layout, (buffer,))


class TestClipGradients:
    def test_norm_above_max_is_scaled(self):
        params = single_task_params(tiny_config())
        arena, views = arena_of(params)
        views["Attn/score_v"][0] = 3.0
        views["Emb/table"][1, 2] = 4.0
        norm = clip_gradients(arena, 2.5, params.layout)
        assert norm == 5.0
        assert views["Attn/score_v"][0] == 1.5  # scaled by exactly 2.5 / 5
        assert views["Emb/table"][1, 2] == 2.0
        assert np.count_nonzero(arena) == 2

    def test_norm_below_max_unchanged(self):
        params = single_task_params(tiny_config())
        arena, views = arena_of(params)
        views["Attn/score_v"][0] = 1.0
        before = arena.copy()
        assert clip_gradients(arena, 2.0, params.layout) == 1.0
        np.testing.assert_array_equal(arena, before)

    def test_zero_grads_unchanged(self):
        params = single_task_params(tiny_config())
        arena, _ = arena_of(params)
        assert clip_gradients(arena, 2.0, params.layout) == 0.0
        assert not arena.any()

    def test_nonfinite_named(self):
        # the first array in arena order whose squared sum is not finite
        params = single_task_params(tiny_config())
        arena = np.ones(params.layout.size)
        views = params.layout.views(arena)
        views["Attn/score_v"][1] = np.inf
        views["Out/vocab_b"][0] = np.nan
        with pytest.raises(NumericError, match="Attn/score_v"):
            clip_gradients(arena, 2.0, params.layout)

    def test_array_whose_squares_overflow_is_named(self):
        params = single_task_params(tiny_config())
        arena, views = arena_of(params)
        views["Out/vocab_b"][0] = 1e200
        with pytest.raises(NumericError, match="Out/vocab_b"):
            clip_gradients(arena, 2.0, params.layout)

    def test_overflowing_norm_raises(self):
        # every array's squared sum is finite, their total is not
        params = single_task_params(tiny_config())
        arena, views = arena_of(params)
        views["Attn/score_v"][0] = 1.2e154
        views["Emb/table"][0, 0] = 1.2e154
        with pytest.raises(NumericError, match="norm overflowed"):
            clip_gradients(arena, 2.0, params.layout)
        assert views["Attn/score_v"][0] == 1.2e154  # nothing was scaled

    def test_never_increases_norm_and_keeps_direction(self):
        params = single_task_params(tiny_config())
        rng = np.random.default_rng(0)
        for _ in range(20):
            original = rng.normal(size=params.layout.size) * 10.0 ** rng.uniform(-3, 0)
            arena = original.copy()
            max_norm = float(rng.uniform(0.1, 3.0))
            norm = clip_gradients(arena, max_norm, params.layout)
            new_norm = math.sqrt(math.fsum(arena * arena))
            assert new_norm <= max(norm, max_norm) * (1 + 1e-12)
            assert new_norm <= norm * (1 + 1e-12)
            cos = original @ arena / (np.linalg.norm(original) * np.linalg.norm(arena))
            assert cos == pytest.approx(1.0, abs=1e-12)

    def test_scales_in_place(self):
        params = single_task_params(tiny_config())
        arena, views = arena_of(params)
        views["Attn/score_v"][0] = 3.0
        views["Emb/table"][0, 0] = 4.0
        clip_gradients(arena, 2.5, params.layout)
        assert views["Emb/table"][0, 0] == pytest.approx(2.0)
        assert params.layout.views(arena)["Emb/table"].base is arena

    @pytest.mark.parametrize("size", [1, TILE - 1, TILE, TILE + 1])
    def test_tile_sums_near_the_exact_norm(self, size):
        # the norm summed per tile, at and around the tile boundary, is
        # within 4 ulps of the correctly rounded one
        rng = np.random.default_rng(size)
        params = one_buffer_params(size, rng)
        grad = rng.normal(size=size) * 10.0 ** rng.uniform(-4, 4, size=size)
        want = math.sqrt(math.fsum(grad * grad))
        got = clip_gradients(grad, 1e300, params.layout)
        assert abs(got - want) <= 4 * math.ulp(want)

    def test_flat_arena_names_the_non_finite_array(self):
        reg = ParamRegistry(tiny_config(), SharingPlan.solo(), seed=1)
        reg.add_task("a")
        flat = np.ones(reg.layout.size)
        reg.layout.views(flat)["Attn/score_v"][1] = np.nan
        with pytest.raises(NumericError, match="Attn/score_v"):
            clip_gradients(flat, 2.0, reg.layout)


def textbook_adam(x, m, v, g, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step as the textbook writes it, on whole arrays."""
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * (g * g)
    x = x - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return x, m, v


class TestAdam:
    def test_first_step_moves_by_lr(self):
        params = single_task_params(tiny_config())
        params.buffers[0][...] = 0.0
        grad = np.random.default_rng(0).choice([-3.0, 0.5, 3.0], size=params.layout.size)
        state = AdamState(params)
        adam_step(params, grad, state, lr=0.01)
        # bias-corrected m/sqrt(v) is sign(g) for any constant gradient
        np.testing.assert_allclose(params.buffers[0], -0.01 * np.sign(grad), rtol=1e-6)
        assert state.t == 1

    def test_zero_gradient_no_move(self):
        params = single_task_params(tiny_config())
        before = params.buffers[0].copy()
        state = AdamState(params)
        adam_step(params, np.zeros(params.layout.size), state, lr=0.1)
        np.testing.assert_array_equal(params.buffers[0], before)
        assert state.t == 1

    def test_zero_lr_updates_moments_only(self):
        params = single_task_params(tiny_config())
        before = params.buffers[0].copy()
        state = AdamState(params)
        adam_step(params, np.ones(params.layout.size), state, lr=0.0)
        np.testing.assert_array_equal(params.buffers[0], before)
        np.testing.assert_allclose(state.flat_m, 0.1)
        np.testing.assert_allclose(state.flat_v, 0.001)

    def test_two_steps_match_hand_formula(self):
        params = single_task_params(tiny_config())
        params.buffers[0][...] = 0.0
        state = AdamState(params)
        g1, g2, lr = 2.0, -1.0, 0.05
        adam_step(params, np.full(params.layout.size, g1), state, lr)
        adam_step(params, np.full(params.layout.size, g2), state, lr)
        b1, b2, eps = 0.9, 0.999, 1e-8
        m1, v1 = (1 - b1) * g1, (1 - b2) * g1**2
        th1 = -lr * (m1 / (1 - b1)) / (math.sqrt(v1 / (1 - b2)) + eps)
        m2, v2 = b1 * m1 + (1 - b1) * g2, b2 * v1 + (1 - b2) * g2**2
        th2 = th1 - lr * (m2 / (1 - b1**2)) / (math.sqrt(v2 / (1 - b2**2)) + eps)
        np.testing.assert_allclose(params.buffers[0], th2, rtol=1e-12)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_five_steps_bitwise_equal_to_formula(self, dtype):
        """The in-place update rounds exactly as the textbook expression does."""
        params = single_task_params(tiny_config(dtype=dtype), seed=4)
        state = AdamState(params)
        x = params.buffers[0].copy()
        m, v = np.zeros_like(x), np.zeros_like(x)
        rng = np.random.default_rng(4)
        for t in range(1, 6):
            grad, views = arena_of(params)
            for view in views.values():  # gradients of many magnitudes
                view[...] = rng.normal(size=view.shape) * 10.0 ** rng.integers(-6, 2)
            adam_step(params, grad, state, 0.01)
            x, m, v = textbook_adam(x, m, v, grad, t, 0.01)
        assert params.buffers[0].dtype == x.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(params.buffers[0], x)
        np.testing.assert_array_equal(state.flat_m, m)
        np.testing.assert_array_equal(state.flat_v, v)

    @pytest.mark.parametrize("size", [1, TILE - 1, TILE, TILE + 1])
    def test_tiles_round_as_whole_arrays(self, size):
        """The tiled op sequence gives the bits of the same ops on a whole
        array, at and around the tile boundary."""
        rng = np.random.default_rng(size)
        params = one_buffer_params(size, rng)
        state = AdamState(params)
        x = params.buffers[0].copy()
        m, v = np.zeros_like(x), np.zeros_like(x)
        for t in range(1, 4):
            grad = rng.normal(size=size) * 10.0 ** rng.integers(-6, 2)
            adam_step(params, grad, state, 0.01)
            x, m, v = textbook_adam(x, m, v, grad, t, 0.01)
        np.testing.assert_array_equal(params.buffers[0], x)
        np.testing.assert_array_equal(state.flat_m, m)
        np.testing.assert_array_equal(state.flat_v, v)

    @pytest.mark.parametrize("hard", [False, True])
    def test_task_arena_matches_per_array_steps(self, hard):
        """A task's step over its buffers and a flat gradient arena equals
        the textbook step on each array alone, hard groups included."""
        cfg = tiny_config(hidden=48)
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.0, hard=hard), seed=2)
        own = reg.add_task("a")
        reg.add_task("b")
        assert max(b - a for a, b in reg.layout.segments) > TILE  # several tiles
        assert len(own.buffers) == (4 if hard else 1)
        x = {k: t.values.copy() for k, t in own.flat().items()}
        m = {k: np.zeros_like(a) for k, a in x.items()}
        v = {k: np.zeros_like(a) for k, a in x.items()}
        state = AdamState(own)
        rng = np.random.default_rng(3)
        for t in range(1, 4):
            grad = rng.normal(size=reg.layout.size)
            adam_step(own, grad, state, lr=0.01)
            for k, g in reg.layout.views(grad).items():
                x[k], m[k], v[k] = textbook_adam(x[k], m[k], v[k], g, t, 0.01)
        assert state.t == 3
        for key, t in own.flat().items():
            np.testing.assert_array_equal(t.values, x[key], err_msg=key)
            np.testing.assert_array_equal(state.m[key], m[key])
            np.testing.assert_array_equal(state.v[key], v[key])
        if hard:
            np.testing.assert_array_equal(reg.task("b")["Attn"]["enc_w"].values, own["Attn"]["enc_w"].values)

    def test_moments_are_views_of_flat_arenas(self):
        params = single_task_params(tiny_config(), task="a")
        state = AdamState(params)
        for which, flat in ((state.m, state.flat_m), (state.v, state.flat_v)):
            assert list(which) == list(params.flat())
            assert all(arr.base is flat for arr in which.values())
            assert flat.size == params.layout.size


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

    def test_writes_into_the_views(self):
        reg = ParamRegistry(tiny_config(), SharingPlan.preset("final", gamma=1.0), seed=4)
        for name in "ab":
            reg.add_task(name)
        before = {n: (p.buffers[0].copy(), {k: t.values for k, t in p.flat().items()})
                  for n, p in reg.tasks.items()}
        penalty_descent(reg, steps=2, lr=1e-3)
        for name, (copy, arrays) in before.items():
            params = reg.task(name)
            assert all(t.values is arrays[k] for k, t in params.flat().items())
            assert not np.array_equal(params.buffers[0], copy)

    def test_needs_positive_gamma(self):
        reg = ParamRegistry(tiny_config(), SharingPlan.solo(), seed=0)
        reg.add_task("a")
        with pytest.raises(ContractError, match="gamma"):
            penalty_descent(reg, steps=1)


class TestStepGradientCheck:
    def test_halved_penalty_pull_fails_the_full_loss_oracle(self, monkeypatch):
        """Gate 1's check, on the soft arrays only, fails when the closed-form
        penalty adds half its pull to the gradient arena and keeps its value."""
        soft_penalty = ParamRegistry.soft_penalty

        def halved(self, task, grad):
            before = grad.copy()
            value = soft_penalty(self, task, grad)
            grad -= (grad - before) / 2.0
            return value

        monkeypatch.setattr(ParamRegistry, "soft_penalty", halved)
        check = _gradcheck_setup(seed=0, dtype="float64")
        report = check(step=3e-4, tolerance=1e-4, tags=("E2", "Attn", "D1"))
        assert {k.split("/")[0] for k in report.per_group} == {"E2", "Attn", "D1"}
        assert not report.passed
        assert report.max_rel_error > 0.1

    def test_float32_model_passes_and_keeps_its_buffers(self):
        """A float32 model, probed on a float64 copy of its registry, passes
        at 1e-2 on its soft arrays, and its own buffers stay float32 and
        bitwise unchanged."""
        cfg = ModelConfig(
            vocab_size=len(TINY_SPEC.vocab()), emb_dim=3, hidden=3, attn_dim=4, dtype="float32"
        )
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.1), seed=7, init_range=0.5)
        for name in "ab":
            reg.add_task(name)
        before = [b.copy() for p in reg.tasks.values() for b in p.buffers]
        corp = make_task_corpora("copy", seed=3, sizes=(2, 1, 1), spec=TINY_SPEC)
        batch = next(batch_iterator(
            [encode_example(ex, TINY_SPEC.vocab()) for ex in corp.train], 2,
            np.random.default_rng(0), dtype=cfg.np_dtype,
        ))
        report = step_gradient_check(
            reg, "a", cfg, batch, 1.0, step=1e-3, tolerance=1e-2, tags=("E2", "Attn", "D1")
        )
        assert report.passed, report.summary()
        after = [b for p in reg.tasks.values() for b in p.buffers]
        assert all(b.dtype == np.float32 for b in after)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))


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
        coverage=["a"],
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
        assert ckpt.coverage == ("a",)
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

    def test_restores_write_into_the_views(self, tmp_path):
        cfg, params, state, _, path = small_setup(tmp_path)
        ckpt = load_checkpoint(path)
        fresh = single_task_params(cfg, task="a", seed=99)
        arrays = {k: t.values for k, t in fresh.flat().items()}
        restore_task_params(fresh, ckpt)
        assert all(t.values is arrays[k] for k, t in fresh.flat().items())
        np.testing.assert_array_equal(fresh.buffers[0], params.buffers[0])
        moments = AdamState(fresh)
        views = (dict(moments.m), dict(moments.v))
        restore_optimizer(moments, ckpt, "a")
        assert all(moments.m[k] is views[0][k] and moments.v[k] is views[1][k] for k in views[0])
        np.testing.assert_array_equal(moments.flat_m, state.flat_m)
        np.testing.assert_array_equal(moments.flat_v, state.flat_v)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "ghost.npz")

    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_text("not a checkpoint")
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(path)

    def test_single_array_file(self, tmp_path):
        path = tmp_path / "one.npy"
        np.save(path, np.arange(3))
        with pytest.raises(CheckpointError, match="single array"):
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

    def test_version_2_archive_without_coverage_record_is_refused(self, tmp_path):
        # Version 2 did not record which tasks trained with coverage.
        path = tmp_path / "v2.npz"
        np.savez(
            path,
            version=np.array(2),
            step=np.array(5),
            config=np.array(json.dumps({})),
            tasks=np.array(json.dumps(["a"])),
        )
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "version 2" in str(err.value)
        assert f"version {CHECKPOINT_VERSION}" in str(err.value)

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, version=np.array(CHECKPOINT_VERSION), step=np.array(1))
        with pytest.raises(CheckpointError, match="config"):
            load_checkpoint(path)
        np.savez(
            path,
            version=np.array(CHECKPOINT_VERSION),
            step=np.array(1),
            config=np.array(json.dumps({})),
            tasks=np.array(json.dumps(["a"])),
        )
        with pytest.raises(CheckpointError, match="coverage"):
            load_checkpoint(path)

    def test_truncated_archive(self, tmp_path):
        *_, path = small_setup(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(path)

    def test_truncated_archive_leaves_no_file_open(self, tmp_path):
        *_, path = small_setup(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(CheckpointError, match="cannot read"):
                load_checkpoint(path)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_moments_are_read_on_first_use(self, tmp_path, monkeypatch):
        _, _, state, _, path = small_setup(tmp_path)
        read = []
        real_getitem = np.lib.npyio.NpzFile.__getitem__

        def getitem(archive, key):
            read.append(key)
            return real_getitem(archive, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", getitem)
        ckpt = load_checkpoint(path)
        assert ckpt.adam_t == {"a": 3}
        assert [k for k in read if k.startswith("adam/") and not k.endswith("/t")] == []
        np.testing.assert_array_equal(ckpt.adam_m["a"]["Emb"]["table"], state.m["Emb/table"])
        np.testing.assert_array_equal(ckpt.adam_v["a"]["Emb"]["table"], state.v["Emb/table"])
        assert "adam/a/m/Emb/table" in read and "adam/a/v/Emb/table" in read

    def test_moments_of_a_changed_file_are_refused(self, tmp_path):
        _, params, state, _, path = small_setup(tmp_path)
        ckpt = load_checkpoint(path)
        save_checkpoint(
            path, step=43, tasks={"a": params}, config={}, coverage=[], optimizer={"a": state}
        )
        with pytest.raises(CheckpointError, match="changed since it was loaded"):
            ckpt.digest()
        assert ckpt.step == 42 and ckpt.params["a"]  # what was loaded stays

    def test_unreadable_config_echo(self, tmp_path):
        path = tmp_path / "bad-config.npz"
        np.savez(
            path,
            version=np.array(CHECKPOINT_VERSION),
            step=np.array(1),
            config=np.array("{not json"),
            tasks=np.array(json.dumps([])),
            coverage=np.array(json.dumps([])),
        )
        with pytest.raises(CheckpointError, match="cannot read"):
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

        real_backward = training.backward
        backward_calls = []

        def counted_backward(root, **kw):
            backward_calls.append(seen["n"])
            return real_backward(root, **kw)

        monkeypatch.setattr(training, "forward_loss", poisoned)
        monkeypatch.setattr(training, "backward", counted_backward)
        run = tmp_path / "run"
        with pytest.raises(NumericError, match="diverged at step 8"):
            train(cfg, quick_conf(max_steps=30), solo_registry(cfg), [copy_task()], run)
        assert (run / "checkpoints" / "step-000003.npz").exists()
        assert (run / "checkpoints" / "step-000006.npz").exists()
        assert not (run / "LOCK").exists()
        assert read_metrics(run)[-1]["kind"] == "abort"
        # the step whose model loss is NaN stops before its backward pass
        assert backward_calls == list(range(1, 8))

    def test_nonfinite_penalty_aborts_keeping_checkpoints(self, tmp_path, monkeypatch):
        # a finite model loss whose soft penalty overflows still aborts the
        # run, now that the penalty is computed after the backward pass
        cfg = tiny_config()
        tasks = [copy_task("copy"), copy_task("kw", generator="keyword-extract")]
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.05), seed=0, init_range=0.1)
        for t in tasks:
            reg.add_task(t.name)
        real = training.forward_loss
        seen = {"n": 0}

        def poisoned(params, cfg_, batch, **kw):
            if grad_enabled():
                seen["n"] += 1
                if seen["n"] == 7:  # step 7 trains "copy"; its co-task drifts away
                    for t in reg.task("kw")["E2"].values():
                        t.values[...] = 1e200
            return real(params, cfg_, batch, **kw)

        monkeypatch.setattr(training, "forward_loss", poisoned)
        copy_before = {k: t.values.copy() for k, t in reg.task("copy").flat().items()}
        run = tmp_path / "run"
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="diverged at step 7"):
            train(cfg, quick_conf(ratios=(1, 1), max_steps=30), reg, tasks, run)
        assert (run / "checkpoints" / "step-000003.npz").exists()
        assert (run / "checkpoints" / "step-000006.npz").exists()
        assert not (run / "LOCK").exists()
        records = read_metrics(run)
        assert [r["step"] for r in records if r["kind"] == "train"] == list(range(1, 7))
        assert records[-1] == {"kind": "abort", "step": 7, "task": "copy", "total": math.inf}
        # the aborted step updated nothing: "copy" is as step 6's checkpoint left it
        saved = load_checkpoint(run / "checkpoints" / "step-000006.npz").task_arrays("copy")
        for tag, name, t in reg.task("copy").named():
            np.testing.assert_array_equal(t.values, saved[tag][name])
            assert not np.array_equal(t.values, copy_before[f"{tag}/{name}"])

    def test_nonfinite_gradient_aborts_keeping_checkpoints(self, tmp_path, monkeypatch):
        # a finite loss whose gradient is not finite aborts like a non-finite
        # loss: an `abort` record, and an error naming the step, task and array
        cfg = tiny_config()
        reg = solo_registry(cfg)
        flat = reg.task("copy").flat()
        real_backward = training.backward
        calls = []

        def poisoned(root, **kw):
            grads = real_backward(root, **kw)
            calls.append(1)
            if len(calls) == 3:
                grads[flat["E1/bwd_u"]][0, 1] = np.nan
            return grads

        monkeypatch.setattr(training, "backward", poisoned)
        run = tmp_path / "run"
        with pytest.raises(
            NumericError,
            match=r"diverged at step 3 on task 'copy' "
            r"\(non-finite gradient for parameter E1/bwd_u\)",
        ):
            train(cfg, quick_conf(checkpoint_every=2), reg, [copy_task()], run)
        assert (run / "checkpoints" / "step-000002.npz").exists()
        assert not (run / "LOCK").exists()
        records = read_metrics(run)
        assert [r["step"] for r in records if r["kind"] == "train"] == [1, 2]
        assert records[-1] == {
            "kind": "abort", "step": 3, "task": "copy",
            "error": "non-finite gradient for parameter E1/bwd_u",
        }
        # the aborted step updated nothing
        saved = load_checkpoint(run / "checkpoints" / "step-000002.npz").task_arrays("copy")
        for tag, name, t in reg.task("copy").named():
            np.testing.assert_array_equal(t.values, saved[tag][name])

    def test_step_arrays_are_freed_before_next_step_validation_and_checkpoint(
        self, tmp_path, monkeypatch
    ):
        # a training step's arrays (its tape, adjoints and gradients) die with
        # the step: none is alive when the next step's forward pass, a
        # validation pass or a checkpoint write starts
        cfg = tiny_config()
        tasks = [copy_task("copy"), copy_task("kw", generator="keyword-extract")]
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.05), seed=0, init_range=0.1)
        for t in tasks:
            reg.add_task(t.name)
        step_arrays = []
        checked = {"forward_loss": 0, "validation_loss": 0, "save_checkpoint": 0}

        def assert_freed(where):
            alive = sum(ref() is not None for ref in step_arrays)
            assert alive == 0, f"{alive} earlier step's arrays alive when {where} starts"
            checked[where] += 1

        real_forward = training.forward_loss

        def forward(params, cfg_, batch, **kw):
            if not grad_enabled():
                return real_forward(params, cfg_, batch, **kw)
            assert_freed("forward_loss")
            parts = real_forward(params, cfg_, batch, **kw)
            step_arrays.append(weakref.ref(parts.outputs.final_dist.values))
            return parts

        def starts_clean(name):
            real_fn = getattr(training, name)

            def wrapped(*args, **kw):
                assert_freed(name)
                return real_fn(*args, **kw)

            return wrapped

        monkeypatch.setattr(training, "forward_loss", forward)
        for name in ("validation_loss", "save_checkpoint"):
            monkeypatch.setattr(training, name, starts_clean(name))
        train(
            cfg, quick_conf(ratios=(1, 1), max_steps=6, val_every=2, checkpoint_every=3),
            reg, tasks, tmp_path / "run",
        )
        assert len(step_arrays) == 6
        # 6 steps; 3 validations of 2 tasks each; checkpoints at steps 3 and 6
        assert checked == {"forward_loss": 6, "validation_loss": 6, "save_checkpoint": 2}

    def test_training_examples_are_encoded_when_first_drawn(self, tmp_path, monkeypatch):
        # held-out examples are encoded up front; a training example the
        # first time a batch draws it, once
        encoded = []
        real_encode = training.encode_example

        def encode(ex, vocab):
            encoded.append(ex)
            return real_encode(ex, vocab)

        monkeypatch.setattr(training, "encode_example", encode)
        cfg = tiny_config()
        task = copy_task()
        conf = quick_conf(max_steps=4, val_every=4, checkpoint_every=4)
        train(cfg, conf, solo_registry(cfg), [task], tmp_path / "run")
        val = len(task.corpora.val)
        assert encoded[:val] == list(task.corpora.val)
        drawn = {id(ex) for ex in encoded[val:]}
        # 4 steps of 8 rows draw 32 of the 48 training examples, each once
        assert len(drawn) == len(encoded) - val == 32
        assert drawn <= {id(ex) for ex in task.corpora.train}

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_empty_training_example_is_refused_before_the_first_step(self, tmp_path, side):
        cfg = tiny_config()
        task = copy_task()
        empty = Example(("w01",), ()) if side == "target" else Example((), ("w01",))
        corpora = dataclasses.replace(task.corpora, train=task.corpora.train + (empty,))
        with pytest.raises(ContractError, match=f"empty {side}"):
            train(cfg, quick_conf(), solo_registry(cfg), [dataclasses.replace(task, corpora=corpora)],
                  tmp_path / "run")
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

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
            loss = forward_loss(own, cfg, batch, cov_weight=tconf.cov_weight).total
            if with_penalty:
                penalty = None
                for tag in ref.plan.soft_tags:
                    for name, t in own[tag].items():
                        diff = subtract(t, tensor(other[tag][name].values.copy()))
                        term = reduce_sum(multiply(diff, diff))
                        penalty = term if penalty is None else add(penalty, term)
                loss = add(loss, scale(penalty, ref.plan.gamma))
            adjoint = backward(loss, wrt=own.flat().values())
            grad = np.zeros(ref.layout.size)
            for key, view in ref.layout.views(grad).items():
                view[...] = adjoint[own.flat()[key]]
            clip_gradients(grad, tconf.clip_norm, ref.layout)
            adam_step(own, grad, AdamState(own), tconf.lr)
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
        no_cov = dataclasses.replace(cfg, use_coverage=False)
        nll_off, loss_off = validation_loss(params, no_cov, enc, 4, 1.0)
        nll_on, loss_on = validation_loss(params, cfg, enc, 4, 1.0)
        assert loss_off == nll_off
        assert nll_on == pytest.approx(nll_off)
        assert loss_on > nll_on  # coverage term is nonnegative and here positive

    def test_empty_rejected(self):
        cfg = tiny_config()
        params = single_task_params(cfg)
        with pytest.raises(ContractError, match="empty"):
            validation_loss(params, cfg, [], 4, 1.0)

    def test_example_order_does_not_matter(self):
        """Held-out batches are formed in length order, whatever order the
        examples come in: the loss moves at most in the last ulp and the
        token accuracy not at all."""
        cfg = tiny_config()
        params = single_task_params(cfg, seed=2, init_range=0.5)
        spec = dataclasses.replace(TINY_SPEC, min_len=2, max_len=9)
        corp = make_task_corpora("copy-oov", seed=5, sizes=(4, 30, 4), spec=spec)
        vocab = spec.vocab()
        enc = [encode_example(ex, vocab) for ex in corp.val]
        shuffled = [enc[i] for i in np.random.default_rng(1).permutation(len(enc))]
        want = validation_loss(params, cfg, enc, 4, 1.0)
        got = validation_loss(params, cfg, shuffled, 4, 1.0)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w)
        assert token_accuracy(params, cfg, shuffled, 4) == token_accuracy(params, cfg, enc, 4)

    def test_row_count_does_not_matter(self):
        """The held-out batch size only regroups rows: 8 and 32 rows give
        the same losses to within the last few ulps."""
        cfg = tiny_config()
        params = single_task_params(cfg, seed=2, init_range=0.5)
        spec = dataclasses.replace(TINY_SPEC, min_len=2, max_len=9)
        corp = make_task_corpora("copy-oov", seed=5, sizes=(4, 70, 4), spec=spec)
        enc = [encode_example(ex, spec.vocab()) for ex in corp.val]
        want = validation_loss(params, cfg, enc, 8, 1.0)
        got = validation_loss(params, cfg, enc, HELD_OUT_BATCH, 1.0)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w)

    @pytest.mark.parametrize("batch_size", [1, 4, 8, 16, 48])
    def test_train_validates_in_fixed_row_batches(self, tmp_path, monkeypatch, batch_size):
        rows = []
        real = training.validation_loss

        def spy(params, cfg, examples, batch_size_, cov_weight):
            rows.append(batch_size_)
            return real(params, cfg, examples, batch_size_, cov_weight)

        monkeypatch.setattr(training, "validation_loss", spy)
        cfg = tiny_config()
        train(
            cfg, quick_conf(batch_size=batch_size, max_steps=2, val_every=1, checkpoint_every=2),
            solo_registry(cfg), [copy_task(sizes=(48, 12, 12))], tmp_path / "run",
        )
        assert rows == [HELD_OUT_BATCH, HELD_OUT_BATCH]

    def test_token_accuracy_default_rows(self):
        import inspect

        default = inspect.signature(token_accuracy).parameters["batch_size"].default
        assert default == HELD_OUT_BATCH


class TestWarmStart:
    def fake_run(self, tmp_path, best_step, ckpt_steps):
        run = tmp_path / "base"
        (run / "checkpoints").mkdir(parents=True)
        (run / "run_meta.json").write_text(json.dumps({"best_step": best_step}))
        params = single_task_params(tiny_config(), task="a")
        for s in ckpt_steps:
            save_checkpoint(
                run / "checkpoints" / f"step-{s:06d}.npz",
                step=s, tasks={"a": params}, config={}, coverage=[],
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

    def test_ignores_names_train_never_writes(self, tmp_path):
        run = self.fake_run(tmp_path, 1000, range(100, 1300, 100))
        expected = warm_start(run, 0.9)
        for name in ("step-best.npz", "step-.npz", "step-0x10.npz"):
            (run / "checkpoints" / name).write_bytes(b"not a checkpoint")
        assert warm_start(run, 0.9) == expected

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

    @pytest.mark.parametrize("text", ['{"best_step": 10', "", "[1, 2]"])
    def test_invalid_meta_names_the_file(self, tmp_path, text):
        run = self.fake_run(tmp_path, 1000, (900,))
        (run / "run_meta.json").write_text(text)  # cut mid-write, empty, or not a record
        with pytest.raises(ContractError, match=re.escape(str(run / "run_meta.json"))):
            warm_start(run, 0.9)

    def test_log_does_not_depend_on_the_run_directory(self, tmp_path):
        """Gate 9's warm-started recipe, shortened, run under two directory
        names: every metric log is byte-identical, and each warm-start
        record names the checkpoint's file, step and array digest."""
        spec = SynthSpec()
        vocab = spec.vocab()
        gens = ("copy-oov", "keyword-extract", "subset-rewrite")
        corpora = {g: make_task_corpora(g, seed=5, sizes=(40, 12, 12), spec=spec) for g in gens}
        cfg = ModelConfig(vocab_size=len(vocab), emb_dim=16, hidden=32)

        def recipe(root):
            warm = {}
            solo = TrainConfig(batch_size=8, max_steps=6, val_every=2, checkpoint_every=2, seed=5)
            for gen in gens:
                solo_cfg = dataclasses.replace(cfg, use_coverage=gen == "copy-oov")
                reg = ParamRegistry(solo_cfg, SharingPlan.solo(), seed=5, init_range=0.1)
                reg.add_task(gen)
                train(solo_cfg, solo, reg, [TrainTask(gen, corpora[gen], vocab)], root / f"solo-{gen}")
                warm[gen] = warm_start(root / f"solo-{gen}", 0.9)
            reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=1e-6), seed=5, init_range=0.1)
            for gen in gens:
                reg.add_task(gen)
            mtl = TrainConfig(ratios=(4, 3, 3), batch_size=8, max_steps=10, val_every=5,
                              checkpoint_every=10, patience=999, seed=5)
            tasks = [TrainTask(g, corpora[g], vocab, warm_checkpoint=warm[g]) for g in gens]
            train(cfg, mtl, reg, tasks, root / "mtl")
            return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("metrics.jsonl"))}

        first = recipe(tmp_path / "first")
        second = recipe(tmp_path / "elsewhere" / "second-run")
        assert len(first) == 4 and first == second
        warm = [r for r in read_metrics(tmp_path / "first" / "mtl") if r["kind"] == "warm_start"]
        assert [r["task"] for r in warm] == list(gens)
        for r in warm:
            path = tmp_path / "first" / f"solo-{r['task']}" / "checkpoints" / r["checkpoint"]
            ckpt = load_checkpoint(path)
            assert r["checkpoint_step"] == ckpt.step
            assert r["checkpoint_sha256"] == ckpt.digest()


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
                    ckpt_dir / f"step-{step:06d}.npz", step=step, tasks={"a": params},
                    config={}, coverage=[],
                )
        monkeypatch.undo()

        after = {p.name: p.read_bytes() for p in ckpt_dir.iterdir()}
        assert after == before
        for fraction, step in ((0.9, 800), (1.0, 1000)):
            picked = warm_start(run, fraction)
            assert picked.name == f"step-{step:06d}.npz"
            assert load_checkpoint(picked).step == step


class TestReadMetrics:
    def test_cut_last_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"kind": "train", "step": 1}\n\n{"kind": "train", "st')
        with pytest.raises(ContractError, match=re.escape(f"{path}:3:")):
            read_metrics(tmp_path)

    def test_non_record_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text('{"kind": "train", "step": 1}\n7\n')
        with pytest.raises(ContractError, match=re.escape(f"{path}:2:")):
            read_metrics(tmp_path)

    def test_complete_log_reads(self, tmp_path):
        (tmp_path / "metrics.jsonl").write_text('{"a": 1}\n\n{"b": 2}\n')
        assert read_metrics(tmp_path) == [{"a": 1}, {"b": 2}]


class TestAtomicWrite:
    def test_file_appears_when_the_block_ends(self, tmp_path):
        path = tmp_path / "out.json"
        with atomic_write(path) as fh:
            fh.write(b"{}")
            assert not path.exists()
        assert path.read_bytes() == b"{}"
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("held", [None, b"old bytes"])
    def test_write_that_raises_keeps_the_target(self, tmp_path, held):
        path = tmp_path / "out.json"
        if held is not None:
            path.write_bytes(held)
        with pytest.raises(RuntimeError, match="cut"):
            with atomic_write(path) as fh:
                fh.write(b"half a rec")
                raise RuntimeError("cut")
        if held is None:
            assert os.listdir(tmp_path) == []
        else:
            assert os.listdir(tmp_path) == ["out.json"]
            assert path.read_bytes() == held

    def test_a_pipe_is_written_in_place(self, tmp_path):
        # os.replace would swap the pipe for a regular file
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with atomic_write(pipe) as fh:
                fh.write(b"record\n")
            assert os.read(reader, 64) == b"record\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_train_writes_its_json_files_through_it(self, tmp_path, monkeypatch):
        written = []

        def spy(path):
            written.append(Path(path).name)
            return atomic_write(path)

        monkeypatch.setattr(training, "atomic_write", spy)
        cfg = tiny_config()
        run = tmp_path / "run"
        train(cfg, quick_conf(max_steps=3), solo_registry(cfg), [copy_task()], run)
        assert written == ["config.json", "run_meta.json"]
        assert json.loads((run / "run_meta.json").read_text())["steps"] == 3
        assert json.loads((run / "config.json").read_text())["tasks"] == ["copy"]


# One short gate-size, two-task soft-sharing run that clips every step, so a
# last-ulp change in the gradient norm reaches the parameters; prints its
# final checkpoint's digest.  argv: run directory.
BLAS_CHILD = """
import sys
from seqlab.checkpoint import load_checkpoint
from seqlab.data import SynthSpec, make_task_corpora
from seqlab.model import ModelConfig
from seqlab.sharing import ParamRegistry, SharingPlan
from seqlab.training import TrainConfig, TrainTask, train

spec = SynthSpec()
vocab = spec.vocab()
cfg = ModelConfig(vocab_size=len(vocab), emb_dim=16, hidden=32, use_pointer=True, use_coverage=True)
reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=1e-3), seed=1, init_range=0.1)
tasks = []
for gen in ("copy-oov", "keyword-extract"):
    reg.add_task(gen)
    tasks.append(TrainTask(gen, make_task_corpora(gen, seed=1, sizes=(64, 16, 16), spec=spec), vocab))
tconf = TrainConfig(ratios=(1, 1), batch_size=8, clip_norm=0.1, max_steps=10,
                    val_every=10, checkpoint_every=10, patience=999, seed=1)
result = train(cfg, tconf, reg, tasks, sys.argv[1])
print(load_checkpoint(result.run_dir / "checkpoints" / "step-000010.npz").digest())
"""


def test_training_bits_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(training.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        run = tmp_path / f"threads-{threads}"
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        proc = subprocess.run(
            [sys.executable, "-c", BLAS_CHILD, str(run)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        records = read_metrics(run)
        assert [r["kind"] for r in records].count("val") == 2
        steps = [r for r in records if r["kind"] == "train"]
        assert all(r["soft_penalty"] > 0 and r["grad_norm"] > 0.1 for r in steps)
        runs[threads] = ((run / "metrics.jsonl").read_bytes(), proc.stdout.strip())
    assert runs["1"] == runs["2"]
