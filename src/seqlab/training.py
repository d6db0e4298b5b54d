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
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, restore_task_params, save_checkpoint
from .data import (
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
from .sharing import ParamRegistry, TaskParams
from .tensor import Tensor, backward, no_grad

__all__ = [
    "TrainConfig",
    "LossBreakdown",
    "TrainTask",
    "RunResult",
    "mixing_scheduler",
    "clip_gradients",
    "AdamState",
    "adam_step",
    "sgd_step",
    "penalty_descent",
    "validation_loss",
    "token_accuracy",
    "in_vocab_fraction",
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


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one run.

    `ratios` aligns with the task list passed to `train`; the first task is
    the primary one (its validation loss drives early stopping, and it alone
    gets coverage).  Whether it gets coverage at all is
    `ModelConfig.use_coverage`; `coverage_mode` only schedules it: "on"
    (from step 1) or "phased" (activate coverage and drop to `coverage_lr`
    once the no-coverage model has converged).
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
        if not 0.0 <= self.warm_fraction <= 1.0:
            raise ContractError(
                f"warm_fraction must be in [0, 1], got {self.warm_fraction}"
            )
        if not self.ratios or min(self.ratios) < 0 or max(self.ratios) == 0:
            raise ContractError(
                f"mixing ratios must be nonnegative with at least one positive, "
                f"got {self.ratios}"
            )
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


@dataclass(frozen=True)
class LossBreakdown:
    """One training step's loss, split into its three ingredients."""

    nll: float
    l_cov: float
    soft_penalty: float
    total: float


# ---------------------------------------------------------------------------
# Scheduler


def mixing_scheduler(
    ratios: Sequence[int], tasks: Sequence[str] | None = None
) -> Iterator:
    """Endless deterministic task cycle: ratios (4, 3, 3) over tasks
    (s, q, e) yield s,s,s,s,q,q,q,e,e,e and repeat.  A zero ratio drops
    its task from the cycle entirely.
    """
    ratios = tuple(int(r) for r in ratios)
    if not ratios or min(ratios) < 0 or max(ratios) == 0:
        raise ContractError(f"invalid mixing ratios {ratios}")
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


def clip_gradients(
    grads: dict[str, np.ndarray], max_norm: float
) -> tuple[dict[str, np.ndarray], float]:
    """Scale all gradients by max_norm/g when the global L2 norm g exceeds
    max_norm; otherwise return them untouched.  Returns (grads, raw norm).
    """
    if max_norm <= 0:
        raise ContractError(f"clip_gradients: max_norm must be > 0, got {max_norm}")
    total = 0.0
    for name, g in grads.items():
        sq = float(np.sum(g * g))
        if not math.isfinite(sq):
            raise NumericError(f"non-finite gradient for parameter {name}")
        total += sq
    norm = math.sqrt(total)
    if norm <= max_norm:
        return grads, norm
    factor = max_norm / norm
    return {name: g * factor for name, g in grads.items()}, norm


class AdamState:
    """Per-task first/second moments, keyed by flat parameter name."""

    __slots__ = ("m", "v", "t")

    def __init__(self, params: TaskParams):
        flat = params.flat()
        self.m = {k: np.zeros_like(t.values) for k, t in flat.items()}
        self.v = {k: np.zeros_like(t.values) for k, t in flat.items()}
        self.t = 0


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """Standard bias-corrected Adam update, applied to the arrays in place.

    Each array gets x -= lr (m / correct1) / (sqrt(v / correct2) + eps),
    rounded one operation at a time in the order that expression reads,
    with two scratch buffers shared by all arrays instead of temporaries.
    """
    missing = params.keys() - grads.keys()
    if missing:
        raise ContractError(f"adam_step: no gradient for {sorted(missing)[0]}")
    state.t += 1
    correct1 = 1.0 - beta1**state.t
    correct2 = 1.0 - beta2**state.t
    size = max((t.values.size for t in params.values()), default=0)
    pool: dict[np.dtype, np.ndarray] = {}
    for name, tensor_ in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        x = tensor_.values
        if x.dtype not in pool:
            pool[x.dtype] = np.empty(2 * size, dtype=x.dtype)
        step = pool[x.dtype][: x.size].reshape(x.shape)
        denom = pool[x.dtype][size : size + x.size].reshape(x.shape)
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=step)
        m += step
        v *= beta2
        np.multiply(g, g, out=step)
        step *= 1.0 - beta2
        v += step
        np.divide(m, correct1, out=step)
        step *= lr
        np.divide(v, correct2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        step /= denom
        x -= step
    return state


def sgd_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], lr: float) -> None:
    """Plain in-place gradient descent."""
    for name, tensor_ in params.items():
        if name in grads:
            tensor_.values -= lr * grads[name]


def penalty_descent(
    registry: ParamRegistry, steps: int, lr: float = 1e-3
) -> list[float]:
    """Data-free pull of soft-shared tags toward each other.

    Round-robins plain gradient-descent steps on the soft penalty alone and
    returns the aggregate shared-tag distance after every step (index 0 is
    the starting distance).  Small `lr` keeps each step a pure contraction
    of every pairwise gap, so the trajectory decreases monotonically.
    """
    if registry.plan.gamma <= 0:
        raise ContractError("penalty_descent needs gamma > 0")

    def total_distance() -> float:
        report = registry.distance_report()
        return sum(
            dist
            for tag in registry.plan.soft_tags
            for dist in report[tag].values()
        )

    trajectory = [total_distance()]
    order = list(registry.tasks)
    for i in range(steps):
        task = order[i % len(order)]
        _, grads = registry.soft_penalty(task)
        flat = registry.task(task).flat()
        sgd_step(flat, {f"{t}/{n}": g for (t, n), g in grads.items()}, lr)
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
    use_coverage: bool,
) -> tuple[float, float]:
    """Per-example mean (nll, objective) over a held-out set, grad-free."""
    if not examples:
        raise ContractError("validation_loss: empty example set")
    nll_sum = 0.0
    loss_sum = 0.0
    with no_grad():
        for batch in batches_once(examples, batch_size, dtype=cfg.np_dtype):
            n = batch.src_ids.shape[0]
            parts = forward_loss(
                params, cfg, batch, cov_weight=cov_weight, use_coverage=use_coverage
            )
            nll_sum += float(parts.nll.values) * n
            loss_sum += float(parts.total.values) * n
    count = len(examples)
    return nll_sum / count, loss_sum / count


def token_accuracy(
    params: TaskParams,
    cfg: ModelConfig,
    examples: Sequence[EncodedExample],
    batch_size: int = 32,
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
    Coverage applies to the primary task only, and only when
    `cfg.use_coverage` is true.
    A non-finite loss aborts the run with NumericError; checkpoints already
    on disk are kept.
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
    flat = {name: params[name].flat() for name in names}

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
        (run_dir / CONFIG_NAME).write_text(json.dumps(echo, indent=2) + "\n")

        enc_train = {
            n: [encode_example(ex, by_name[n].vocab) for ex in by_name[n].corpora.train]
            for n in names
        }
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
                        checkpoint=str(spec.warm_checkpoint),
                        checkpoint_step=ckpt.step,
                    )

            schedule = mixing_scheduler(tconf.ratios, names)
            coverage_active = cfg.use_coverage and tconf.coverage_mode == "on"
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
                    optimizer=adam,
                    vocabs=vocabs,
                )
                ckpt_steps.append(step_now)

            while step < tconf.max_steps:
                step += 1
                task = next(schedule)
                batch = next(iters[task])
                use_cov = coverage_active and task == primary
                parts = forward_loss(
                    params[task],
                    cfg,
                    batch,
                    cov_weight=tconf.cov_weight,
                    use_coverage=use_cov,
                )
                penalty_value, penalty_grads = registry.soft_penalty(task)
                total_value = float(parts.total.values) + penalty_value

                if not math.isfinite(total_value):
                    _log(log, kind="abort", step=step, task=task, total=total_value)
                    raise NumericError(
                        f"training diverged at step {step} on task {task!r} "
                        f"(loss {total_value}); last-good checkpoints kept in "
                        f"{run_dir / CHECKPOINT_DIR}"
                    )

                wrt = flat[task]
                adjoint = backward(parts.total, wrt=wrt.values())
                grads = {k: adjoint[t] for k, t in wrt.items()}
                for (tag, name), extra in penalty_grads.items():
                    key = f"{tag}/{name}"
                    grads[key] = grads[key] + extra
                grads, grad_norm = clip_gradients(grads, tconf.clip_norm)
                adam_step(wrt, grads, adam[task], lr)

                breakdown = LossBreakdown(
                    nll=float(parts.nll.values),
                    l_cov=float(parts.coverage.values) if parts.coverage is not None else 0.0,
                    soft_penalty=penalty_value,
                    total=total_value,
                )
                _log(
                    log,
                    kind="train",
                    step=step,
                    task=task,
                    lr=lr,
                    grad_norm=grad_norm,
                    **asdict(breakdown),
                )

                if step % tconf.val_every == 0:
                    primary_loss = None
                    for name in names:
                        v_cov = coverage_active and name == primary
                        v_nll, v_loss = validation_loss(
                            params[name],
                            cfg,
                            enc_val[name],
                            tconf.batch_size,
                            tconf.cov_weight,
                            v_cov,
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
                        if tconf.coverage_mode == "phased" and not coverage_active:
                            coverage_active = True
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
        (run_dir / META_NAME).write_text(json.dumps(meta, indent=2) + "\n")
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
    """Parse a run's line-delimited metric log."""
    path = Path(run_dir) / METRICS_NAME
    if not path.exists():
        raise ContractError(f"{run_dir} has no metric log")
    return [json.loads(line) for line in path.read_text().splitlines() if line]


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
    meta = json.loads(meta_path.read_text())
    if not meta.get("best_step"):
        raise ContractError(f"baseline run {run_dir} recorded no validation losses")
    target = math.ceil(fraction * meta["best_step"])
    candidates = sorted(
        (int(p.stem.split("-")[1]), p)
        for p in (run_dir / CHECKPOINT_DIR).glob("step-*.npz")
    )
    if not candidates:
        raise ContractError(f"{run_dir} has no checkpoints")
    if candidates[0][0] > target:
        raise ContractError(
            f"no checkpoint at or before warm-start target step {target} "
            f"(earliest is {candidates[0][0]})"
        )
    return min(candidates, key=lambda sp: (abs(sp[0] - target), sp[0]))[1]
