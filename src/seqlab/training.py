"""Optimization: Adam, gradient clipping, task mixing, warm starts, phases.

The run loop alternates mini-batches between tasks on a fixed integer
mixing cycle, applies per-task Adam to each task's own parameters (arrays
under hard sharing are updated in place, so co-tasks see the change
immediately), and writes a line-delimited metric log plus periodic
checkpoints into a locked run directory.
"""

from __future__ import annotations

import json
import math
import os
import socket
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .checkpoint import atomic_write, load_checkpoint, restore_task_params, save_checkpoint
from .data import (
    Batch,
    EncodedExample,
    Example,
    TaskCorpora,
    Vocab,
    batch_iterator,
    batches_once,
    encode_example,
    task_seed,
)
from .errors import ContractError, NumericError
from .model import ModelConfig, forward_loss
from .sharing import Layout, ParamRegistry, TaskParams, tiles
from .tensor import backward, no_grad

__all__ = [
    "TrainConfig",
    "TrainTask",
    "RunResult",
    "mixing_scheduler",
    "clip_gradients",
    "AdamState",
    "adam_step",
    "penalty_descent",
    "validation_loss",
    "token_accuracy",
    "in_vocab_fraction",
    "HELD_OUT_BATCH",
    "train",
    "warm_start",
    "read_metrics",
]

COVERAGE_MODES = ("on", "phased")
LOCK_NAME = "LOCK"
METRICS_NAME = "metrics.jsonl"
META_NAME = "run_meta.json"
CONFIG_NAME = "config.json"
CHECKPOINT_DIR = "checkpoints"
# Rows per batch of every held-out pass (`train`'s validation and
# `token_accuracy`), whatever the training batch size.
HELD_OUT_BATCH = 32


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one run.

    `ratios` aligns with the task list passed to `train`; the first task is
    the primary one (its validation loss drives early stopping, and `train`
    gives it alone coverage).  Whether it gets coverage at all is
    `ModelConfig.use_coverage`; `coverage_mode` only schedules it: "on"
    (from step 1) or "phased" (activate coverage and drop to `coverage_lr`
    once the no-coverage model has converged).  `warm_fraction`, in (0, 1],
    is the `warm_start` fraction for tasks that warm-start from a run.
    """

    cov_weight: float = 1.0
    ratios: tuple[int, ...] = (1,)
    lr: float = 1e-3
    coverage_lr: float = 1e-4
    clip_norm: float = 2.0
    batch_size: int = 16
    max_steps: int = 200
    val_every: int = 50
    checkpoint_every: int = 50
    patience: int = 5
    coverage_mode: str = "on"
    warm_fraction: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.warm_fraction <= 1.0:
            raise ContractError(
                f"warm_fraction must be in (0, 1], got {self.warm_fraction}"
            )
        _check_ratios(self.ratios)
        if self.cov_weight < 0:
            raise ContractError(f"coverage weight must be >= 0, got {self.cov_weight}")
        if self.clip_norm <= 0:
            raise ContractError(f"clip norm must be > 0, got {self.clip_norm}")
        if self.coverage_mode not in COVERAGE_MODES:
            raise ContractError(
                f"coverage_mode must be one of {COVERAGE_MODES}, got {self.coverage_mode!r} "
                "(to train without coverage, set model.use_coverage to false)"
            )
        for field_name in ("batch_size", "max_steps", "val_every", "checkpoint_every", "patience"):
            if getattr(self, field_name) < 1:
                raise ContractError(f"{field_name} must be >= 1")
        if self.lr <= 0 or self.coverage_lr <= 0:
            raise ContractError("learning rates must be positive")


# ---------------------------------------------------------------------------
# Scheduler


def _check_ratios(ratios: Sequence[int]) -> None:
    integers = all(isinstance(r, int) and not isinstance(r, bool) for r in ratios)
    if not ratios or not integers or min(ratios) < 0 or max(ratios) == 0:
        raise ContractError(
            f"mixing ratios must be nonnegative integers with at least one positive, "
            f"got {tuple(ratios)}"
        )


def mixing_scheduler(
    ratios: Sequence[int], tasks: Sequence[str] | None = None
) -> Iterator:
    """Endless deterministic task cycle: ratios (4, 3, 3) over tasks
    (s, q, e) yield s,s,s,s,q,q,q,e,e,e and repeat.  A zero ratio drops
    its task from the cycle entirely.
    """
    _check_ratios(ratios)
    if tasks is not None and len(tasks) != len(ratios):
        raise ContractError(
            f"{len(ratios)} ratios for {len(tasks)} tasks"
        )
    cycle: list = []
    for i, r in enumerate(ratios):
        label = i if tasks is None else tasks[i]
        cycle.extend([label] * r)

    def generate():
        while True:
            yield from cycle

    return generate()


# ---------------------------------------------------------------------------
# Gradient transforms and optimizer


def clip_gradients(grads: np.ndarray, max_norm: float, layout: Layout) -> float:
    """Scale a flat gradient arena laid out by `layout` in place by
    max_norm/g when its global L2 norm g exceeds max_norm; otherwise leave
    it untouched.  Returns the raw norm.

    The squares are summed one partial sum per tile of `tiles`, added in
    arena order.  A squared norm that is not finite raises `NumericError`
    naming the first array whose squared sum is not finite, or saying that
    the norm overflowed when every array's sum is finite.
    """
    if max_norm <= 0:
        raise ContractError(f"clip_gradients: max_norm must be > 0, got {max_norm}")
    cuts = tiles(0, grads.size)
    squares = np.empty(cuts[0].stop, dtype=grads.dtype)
    total = 0.0
    for tile in cuts:
        total += float(np.multiply(grads[tile], grads[tile], out=squares[: tile.stop - tile.start]).sum())
    if not math.isfinite(total):
        for name, g in layout.views(grads).items():
            if not math.isfinite(float(np.sum(g * g))):
                raise NumericError(f"non-finite gradient for parameter {name}")
        raise NumericError(f"the gradient norm overflowed (squared norm {total})")
    norm = math.sqrt(total)
    if norm > max_norm:
        grads *= max_norm / norm
    return norm


class AdamState:
    """Per-task first/second moments, keyed by flat parameter name.

    The moments of a task's arrays are views of two flat arenas laid out
    like its parameters (`flat_m`, `flat_v`; see `sharing.Layout`).
    """

    __slots__ = ("m", "v", "t", "flat_m", "flat_v")

    def __init__(self, params: TaskParams):
        layout = params.layout
        self.flat_m = np.zeros(layout.size, dtype=params.buffers[0].dtype)
        self.flat_v = np.zeros_like(self.flat_m)
        self.m = layout.views(self.flat_m)
        self.v = layout.views(self.flat_v)
        self.t = 0


# Adam's moment decay rates and denominator floor (the usual defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: TaskParams, grads: np.ndarray, state: AdamState, lr: float) -> AdamState:
    """Standard bias-corrected Adam update, applied to the arrays in place.

    Each element gets x -= lr (m / correct1) / (sqrt(v / correct2) + ADAM_EPS),
    rounded one operation at a time in the order that expression reads.
    `grads` is a flat gradient arena laid out like `params` and `state` its
    `AdamState`: the update runs over each parameter buffer with its slices
    of the arenas, in `tiles`, through two scratch tiles.
    """
    state.t += 1
    correct1 = 1.0 - ADAM_BETA1**state.t
    correct2 = 1.0 - ADAM_BETA2**state.t
    scratch = np.empty((2, tiles(0, grads.size)[0].stop), dtype=grads.dtype)
    for x, (a, b) in zip(params.buffers, params.layout.segments):
        g, m, v = grads[a:b], state.flat_m[a:b], state.flat_v[a:b]
        for tile in tiles(0, x.size):
            xt, gt, mt, vt = x[tile], g[tile], m[tile], v[tile]
            step, denom = scratch[:, : xt.size]
            mt *= ADAM_BETA1
            np.multiply(gt, 1.0 - ADAM_BETA1, out=step)
            mt += step
            vt *= ADAM_BETA2
            np.multiply(gt, gt, out=step)
            step *= 1.0 - ADAM_BETA2
            vt += step
            np.divide(mt, correct1, out=step)
            step *= lr
            np.divide(vt, correct2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            xt -= step
    return state


def penalty_descent(
    registry: ParamRegistry, steps: int, lr: float = 1e-3
) -> list[float]:
    """Data-free pull of soft-shared tags toward each other.

    Round-robins plain gradient-descent steps on the soft penalty alone and
    returns the aggregate shared-tag distance after every step (index 0 is
    the starting distance).  Small `lr` keeps each step a pure contraction
    of every pairwise gap, so the trajectory decreases monotonically.  Each
    step subtracts lr times the penalty's gradient arena from the soft span
    of the task's own buffer.
    """
    if registry.plan.gamma <= 0:
        raise ContractError("penalty_descent needs gamma > 0")

    def total_distance() -> float:
        report = registry.distance_report()
        return sum(d for tag in registry.plan.soft_tags for d in report[tag].values())

    trajectory = [total_distance()]
    order = list(registry.tasks.values())
    for i in range(steps):
        task = order[i % len(order)]
        grad = np.zeros(registry.layout.soft_size, dtype=task.buffers[0].dtype)
        registry.soft_penalty(task.task, grad)
        task.buffers[0][: grad.size] -= lr * grad
        trajectory.append(total_distance())
    return trajectory


# ---------------------------------------------------------------------------
# Validation


def validation_loss(
    params: TaskParams,
    cfg: ModelConfig,
    examples: Sequence[EncodedExample],
    batch_size: int,
    cov_weight: float,
) -> tuple[float, float]:
    """Per-example mean (nll, objective) over a held-out set, grad-free.

    The objective includes the coverage term when `cfg.use_coverage` is on.
    """
    if not examples:
        raise ContractError("validation_loss: empty example set")
    nll_sum = 0.0
    loss_sum = 0.0
    with no_grad():
        for batch in batches_once(examples, batch_size, dtype=cfg.np_dtype):
            n = batch.src_ids.shape[0]
            parts = forward_loss(params, cfg, batch, cov_weight=cov_weight)
            nll_sum += float(parts.nll.values) * n
            loss_sum += float(parts.total.values) * n
    count = len(examples)
    return nll_sum / count, loss_sum / count


def token_accuracy(
    params: TaskParams,
    cfg: ModelConfig,
    examples: Sequence[EncodedExample],
    batch_size: int = HELD_OUT_BATCH,
) -> float:
    """Teacher-forced token accuracy over a held-out set, grad-free.

    At every real decoder step the argmax of the output distribution is
    compared against the reference token's extended id.  A model without a
    copy mechanism only produces in-vocabulary ids, so reference positions
    that name out-of-vocabulary source tokens can never be counted correct
    for it; its accuracy is therefore bounded by the in-vocabulary fraction
    of the reference tokens.
    """
    if not examples:
        raise ContractError("token_accuracy: empty example set")
    correct = 0
    total = 0
    with no_grad():
        for batch in batches_once(examples, batch_size, dtype=cfg.np_dtype):
            parts = forward_loss(params, cfg, batch)
            live = batch.dec_mask.astype(bool)
            pred = np.argmax(parts.outputs.final_dist.values, axis=-1)
            correct += int(np.sum((pred == batch.dec_out) & live))
            total += int(np.sum(live))
    return correct / total


def in_vocab_fraction(
    examples: Sequence[EncodedExample], vocab_size: int
) -> float:
    """Fraction of reference tokens whose extended id is in-vocabulary.

    Counts the end-of-sequence token each example's reference ends with,
    matching the steps ``token_accuracy`` scores.
    """
    if not examples:
        raise ContractError("in_vocab_fraction: empty example set")
    in_vocab = 0
    total = 0
    for ex in examples:
        in_vocab += int(np.sum(ex.tgt_ext < vocab_size)) + 1  # + END
        total += ex.tgt_ext.shape[0] + 1
    return in_vocab / total


# ---------------------------------------------------------------------------
# The run loop


@dataclass(frozen=True)
class TrainTask:
    """One task's data bundle; the first task handed to `train` is primary."""

    name: str
    corpora: TaskCorpora
    vocab: Vocab
    warm_checkpoint: Path | str | None = None


@dataclass(frozen=True)
class RunResult:
    run_dir: Path
    steps: int
    stop_reason: str  # "max_steps" or "patience"
    best_step: int
    best_val: float
    checkpoint_steps: tuple[int, ...]


def _log(fh, **record) -> None:
    fh.write(json.dumps(record) + "\n")
    fh.flush()


def _acquire_lock(run_dir: Path) -> Path:
    """Create the run directory's lock, holding this process's pid and host.

    A held lock is never removed here, even when its owner looks dead: the
    error names the owner so that a person can check before removing it.
    """
    lock = run_dir / LOCK_NAME
    try:
        with open(lock, "x") as fh:
            fh.write(f"pid {os.getpid()} host {socket.gethostname()}\n")
    except FileExistsError:
        try:
            owner = lock.read_text().strip() or "an unnamed owner"
        except OSError as exc:
            owner = f"an unreadable lock ({exc.strerror})"
        raise ContractError(
            f"run directory {run_dir} is locked by {owner} "
            f"(remove {lock} if that run is dead)"
        ) from None
    return lock


class _EncodeOnDraw(Sequence[EncodedExample]):
    """A task's training examples, each encoded the first time it is
    drawn, and kept: a short run draws only some of them.  An example
    with an empty source or target is refused here, before any step."""

    def __init__(self, examples: Sequence[Example], vocab: Vocab):
        for i, ex in enumerate(examples):
            if not (ex.source and ex.target):
                side = "source" if not ex.source else "target"
                raise ContractError(f"training example {i} has an empty {side}")
        self._examples = examples
        self._vocab = vocab
        self._encoded: list[EncodedExample | None] = [None] * len(examples)

    def __len__(self) -> int:
        return len(self._examples)

    def __getitem__(self, i) -> EncodedExample:
        enc = self._encoded[i]
        if enc is None:
            enc = self._encoded[i] = encode_example(self._examples[i], self._vocab)
        return enc


def _train_step(
    registry: ParamRegistry,
    task: str,
    cfg: ModelConfig,
    batch: Batch,
    adam: AdamState,
    lr: float,
    tconf: TrainConfig,
    grad: np.ndarray,
) -> dict[str, float]:
    """One optimizer step of `task` on `batch`: the fields of its log record.

    `grad` is the gradient arena, laid out by `registry.layout`; it lives
    across steps and is overwritten by each.  `backward` writes the model
    loss's gradient into it, the soft penalty adds its own, and clipping
    and Adam run over it.  `backward` frees the tape node by node as it
    runs; only the loss values read after it stay.  The VJP outputs are
    locals here, freed when the step returns, before the next step, a
    validation pass or a checkpoint write.  The soft penalty runs after
    `backward`, once the tape is gone; it reads only the parameters, which
    `backward` does not change.  A record whose `total` is not finite holds nothing else, and
    its step updated nothing: a non-finite model loss stops before
    `backward`.
    """
    params = registry.task(task)
    parts = forward_loss(params, cfg, batch, cov_weight=tconf.cov_weight)
    model_total = float(parts.total.values)
    if not math.isfinite(model_total):
        return {"total": model_total}
    backward(parts.total, wrt=params.flat().values(), into=registry.layout.views(grad).values())
    nll = float(parts.nll.values)
    l_cov = float(parts.coverage.values) if parts.coverage is not None else 0.0
    del parts

    penalty_value = registry.soft_penalty(task, grad)
    total = model_total + penalty_value
    if not math.isfinite(total):
        return {"total": total}
    grad_norm = clip_gradients(grad, tconf.clip_norm, registry.layout)
    adam_step(params, grad, adam, lr)
    return {
        "grad_norm": grad_norm,
        "nll": nll,
        "l_cov": l_cov,
        "soft_penalty": penalty_value,
        "total": total,
    }


def train(
    cfg: ModelConfig,
    tconf: TrainConfig,
    registry: ParamRegistry,
    tasks: Sequence[TrainTask],
    run_dir,
    config_echo: dict | None = None,
) -> RunResult:
    """Run the mixing loop to completion, writing artifacts under run_dir.

    Stops at `max_steps` or when the primary task's validation loss has not
    improved for `patience` consecutive evaluations ("converged"); in
    phased coverage mode the first convergence instead switches coverage on
    at the reduced learning rate and training continues to a second stop.

    This loop alone decides which task has coverage: each task runs under
    its own copy of `cfg`, and only the primary task's copy has
    `use_coverage` on, while coverage is active and `cfg.use_coverage` is
    true.  Every checkpoint records the tasks that had it at its step; in a
    phased run the checkpoint of the switch step records none, because that
    step still trained without coverage.

    Each step runs in `_train_step`, so its tape and VJP outputs are
    released before the next step, a validation pass or a checkpoint write;
    the soft penalty is computed after `backward`.  One gradient arena,
    laid out by `registry.layout`, serves every task's steps and lives for
    the whole run.  Validation passes run in batches of `HELD_OUT_BATCH`
    rows, whatever `tconf.batch_size` is.  Held-out examples are encoded
    before the first step, training examples when a batch first draws
    them.

    Each `warm_start` record names the checkpoint's file, its step and
    `Checkpoint.digest`, not its path, so the log does not depend on where
    the run's inputs live.

    A non-finite loss, or a non-finite gradient under a finite loss, aborts
    the run with NumericError after an `abort` record naming the step and
    task; checkpoints already on disk are kept.  A non-finite model loss
    aborts before `backward`.
    """
    if len(tasks) != len(tconf.ratios):
        raise ContractError(
            f"{len(tconf.ratios)} mixing ratios for {len(tasks)} tasks"
        )
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ContractError(f"duplicate task names in {names}")
    if tconf.coverage_mode == "phased" and not cfg.use_coverage:
        raise ContractError("coverage_mode 'phased' needs coverage: set model.use_coverage to true")
    by_name = {t.name: t for t in tasks}
    params = {name: registry.task(name) for name in names}  # validates registration

    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    if (run_dir / METRICS_NAME).exists():
        raise ContractError(f"{run_dir} already contains a run; use a fresh directory")
    lock = _acquire_lock(run_dir)
    try:
        echo = config_echo or {}
        echo = {
            **echo,
            "model": asdict(cfg),
            "train": asdict(tconf),
            "plan": registry.plan.describe(),
            "tasks": names,
        }
        with atomic_write(run_dir / CONFIG_NAME) as fh:
            fh.write((json.dumps(echo, indent=2) + "\n").encode())

        enc_train = {n: _EncodeOnDraw(by_name[n].corpora.train, by_name[n].vocab) for n in names}
        enc_val = {
            n: [encode_example(ex, by_name[n].vocab) for ex in by_name[n].corpora.val]
            for n in names
        }
        iters = {
            n: batch_iterator(
                enc_train[n],
                tconf.batch_size,
                np.random.default_rng(task_seed(tconf.seed, n, stream=1)),
                dtype=cfg.np_dtype,
            )
            for n in names
        }
        adam = {n: AdamState(params[n]) for n in names}
        grad = np.empty(registry.layout.size, dtype=cfg.np_dtype)
        vocabs = {n: by_name[n].vocab for n in names}
        primary = names[0]

        with open(run_dir / METRICS_NAME, "w") as log:
            for task in names:
                spec = by_name[task]
                if spec.warm_checkpoint is not None:
                    ckpt = load_checkpoint(spec.warm_checkpoint)
                    restore_task_params(params[task], ckpt)
                    _log(
                        log,
                        kind="warm_start",
                        task=task,
                        checkpoint=Path(spec.warm_checkpoint).name,
                        checkpoint_step=ckpt.step,
                        checkpoint_sha256=ckpt.digest(),
                    )

            schedule = mixing_scheduler(tconf.ratios, names)
            task_cfg = {n: replace(cfg, use_coverage=False) for n in names}
            if tconf.coverage_mode == "on":
                task_cfg[primary] = cfg
            lr = tconf.lr
            best_val = math.inf
            best_step = 0
            bad_evals = 0
            ckpt_steps: list[int] = []
            stop_reason = "max_steps"
            step = 0

            def save(step_now: int) -> None:
                path = run_dir / CHECKPOINT_DIR / f"step-{step_now:06d}.npz"
                save_checkpoint(
                    path,
                    step=step_now,
                    tasks=params,
                    config=echo,
                    coverage=covered,
                    optimizer=adam,
                    vocabs=vocabs,
                )
                ckpt_steps.append(step_now)

            def diverged(reason: str, **fields) -> NumericError:
                # Log the `abort` record of the current step and build its error.
                _log(log, kind="abort", step=step, task=task, **fields)
                return NumericError(
                    f"training diverged at step {step} on task {task!r} "
                    f"({reason}); last-good checkpoints kept in {run_dir / CHECKPOINT_DIR}"
                )

            while step < tconf.max_steps:
                step += 1
                task = next(schedule)
                # The tasks this step trains with coverage; checkpoints record them.
                covered = [n for n in names if task_cfg[n].use_coverage]
                try:
                    record = _train_step(
                        registry, task, task_cfg[task], next(iters[task]), adam[task], lr, tconf,
                        grad,
                    )
                except NumericError as exc:  # a non-finite gradient under a finite loss
                    raise diverged(str(exc), error=str(exc)) from exc
                if not math.isfinite(record["total"]):
                    raise diverged(f"loss {record['total']}", total=record["total"])
                _log(log, kind="train", step=step, task=task, lr=lr, **record)

                if step % tconf.val_every == 0:
                    primary_loss = None
                    for name in names:
                        v_nll, v_loss = validation_loss(
                            params[name],
                            task_cfg[name],
                            enc_val[name],
                            HELD_OUT_BATCH,
                            tconf.cov_weight,
                        )
                        _log(
                            log, kind="val", step=step, task=name,
                            val_nll=v_nll, val_loss=v_loss,
                        )
                        if name == primary:
                            primary_loss = v_loss
                    if primary_loss < best_val:
                        best_val = primary_loss
                        best_step = step
                        bad_evals = 0
                    else:
                        bad_evals += 1
                    if bad_evals >= tconf.patience:
                        if tconf.coverage_mode == "phased" and not task_cfg[primary].use_coverage:
                            task_cfg[primary] = cfg
                            lr = tconf.coverage_lr
                            best_val = math.inf
                            best_step = 0
                            bad_evals = 0
                            _log(log, kind="phase", step=step, coverage=True, lr=lr)
                        else:
                            stop_reason = "patience"

                if step % tconf.checkpoint_every == 0:
                    save(step)
                if stop_reason == "patience":
                    break

            if not ckpt_steps or ckpt_steps[-1] != step:
                save(step)

        meta = {
            "steps": step,
            "stop_reason": stop_reason,
            "best_step": best_step,
            "best_val": best_val if math.isfinite(best_val) else None,
            "primary": primary,
            "patience": tconf.patience,
            "val_every": tconf.val_every,
            "convergence": (
                f"best validation loss of task {primary!r} not improved for "
                f"{tconf.patience} consecutive evaluations"
            ),
        }
        with atomic_write(run_dir / META_NAME) as fh:
            fh.write((json.dumps(meta, indent=2) + "\n").encode())
        return RunResult(
            run_dir=run_dir,
            steps=step,
            stop_reason=stop_reason,
            best_step=best_step,
            best_val=best_val,
            checkpoint_steps=tuple(ckpt_steps),
        )
    finally:
        lock.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Warm start


def read_metrics(run_dir) -> list[dict]:
    """Parse a run's line-delimited metric log.

    A line that is not a JSON record (a last line cut mid-write, say)
    raises `ContractError` naming ``path:line``.
    """
    path = Path(run_dir) / METRICS_NAME
    if not path.exists():
        raise ContractError(f"{run_dir} has no metric log")
    records = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ContractError(f"{path}:{number}: not a metric record ({exc})") from None
        if not isinstance(record, dict):
            raise ContractError(f"{path}:{number}: not a metric record")
        records.append(record)
    return records


def warm_start(baseline_run, fraction: float) -> Path:
    """Pick the checkpoint nearest step ceil(fraction * S*), where S* is the
    step of the baseline run's best validation loss.  Ties go to the earlier
    checkpoint; having no checkpoint at or before the target is an error.
    """
    if not 0 < fraction <= 1:
        raise ContractError(f"warm-start fraction must be in (0, 1], got {fraction}")
    run_dir = Path(baseline_run)
    meta_path = run_dir / META_NAME
    if not meta_path.exists():
        raise ContractError(f"{run_dir} has no {META_NAME}; is it a finished run?")
    try:
        meta = json.loads(meta_path.read_text())
    except ValueError as exc:
        raise ContractError(f"{meta_path} is not valid JSON ({exc}); is it a finished run?") from None
    if not isinstance(meta, dict):
        raise ContractError(f"{meta_path} is not a run record; is it a finished run?")
    if not meta.get("best_step"):
        raise ContractError(f"baseline run {run_dir} recorded no validation losses")
    target = math.ceil(fraction * meta["best_step"])
    # Only the step-<digits>.npz names `train` writes; skip anything else.
    found = ((p.stem[len("step-"):], p) for p in (run_dir / CHECKPOINT_DIR).glob("step-*.npz"))
    candidates = sorted((int(s), p) for s, p in found if s.isascii() and s.isdigit())
    if not candidates:
        raise ContractError(f"{run_dir} has no checkpoints")
    if candidates[0][0] > target:
        raise ContractError(
            f"no checkpoint at or before warm-start target step {target} "
            f"(earliest is {candidates[0][0]})"
        )
    return min(candidates, key=lambda sp: (abs(sp[0] - target), sp[0]))[1]
