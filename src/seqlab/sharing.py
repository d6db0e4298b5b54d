"""Layer-specific parameter sharing across tasks.

Each of the eight parameter groups (``Emb``, ``E1``, ``E2``, ``Attn``,
``D1``, ``D2``, ``Out``, ``Ptr``) is independently marked hard-shared,
soft-shared, or private:

* hard: all tasks alias one array object, so any task's update is
  everyone's update;
* soft: every task owns a copy, and a penalty gamma * distance( own, other )
  summed over the other tasks pulls the copies together;
* private: every task owns a copy and nothing couples them.

The penalty distance is computed over the flattened concatenation of a
group's arrays per task pair.  The default form is squared Euclidean
distance; the plain Euclidean form (``form="l2"``) is also available, with
its gradient defined as zero when the distance falls below 1e-12.  With
three or more tasks every pair of soft copies is pulled together, so each
task pays the penalty against all the others.

Training applies the penalty in closed form for both forms
(:meth:`ParamRegistry.soft_penalty`): on a task's step its value joins the
loss and its gradient is added to the backward pass's, with the counterpart
copies held constant.

Embeddings are per task by default (the encoder and decoder of one task
share them by construction); the output projection and the copy gate
default to private as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

import numpy as np

from .data import task_seed
from .errors import ContractError
from .model import ModelConfig, TAGS, init_blocks, param_shapes
from .tensor import Tensor

SQUARED = "squared"
EUCLIDEAN = "l2"
ZERO_DISTANCE = 1e-12

PRESETS = {
    # The configuration that won the ablation: soft-share the second
    # encoder layer, the attention, and the first decoder layer.
    "final": ("E2", "Attn", "D1"),
    "d1+d2": ("D1", "D2"),
    "e1+d2": ("E1", "D2"),
    "e1+attn+d2": ("E1", "Attn", "D2"),
}


class Mode(str, Enum):
    HARD = "hard"
    SOFT = "soft"
    PRIVATE = "private"


@dataclass(frozen=True)
class SharingPlan:
    modes: Mapping[str, Mode]
    gamma: float = 0.0
    form: str = SQUARED

    def __post_init__(self):
        unknown = set(self.modes) - set(TAGS)
        if unknown:
            raise ContractError(f"SharingPlan: unknown tags {sorted(unknown)}")
        full = {tag: Mode(self.modes.get(tag, Mode.PRIVATE)) for tag in TAGS}
        object.__setattr__(self, "modes", full)
        if self.gamma < 0:
            raise ContractError(f"SharingPlan: gamma must be >= 0, got {self.gamma}")
        if self.form not in (SQUARED, EUCLIDEAN):
            raise ContractError(f"SharingPlan: form must be {SQUARED!r} or {EUCLIDEAN!r}")

    def mode(self, tag: str) -> Mode:
        return self.modes[tag]

    @property
    def soft_tags(self) -> tuple[str, ...]:
        return tuple(t for t in TAGS if self.modes[t] is Mode.SOFT)

    @property
    def hard_tags(self) -> tuple[str, ...]:
        return tuple(t for t in TAGS if self.modes[t] is Mode.HARD)

    @classmethod
    def solo(cls) -> "SharingPlan":
        """Everything private: the single-task baseline."""
        return cls({})

    def describe(self) -> dict:
        """JSON-ready echo of the plan, as stored in run configs and checkpoints."""
        return {
            "modes": {tag: mode.value for tag, mode in self.modes.items()},
            "gamma": self.gamma,
            "form": self.form,
        }

    @classmethod
    def preset(cls, name: str, gamma: float, hard: bool = False, form: str = SQUARED) -> "SharingPlan":
        if name not in PRESETS:
            raise ContractError(f"SharingPlan: unknown preset {name!r}; choose from {sorted(PRESETS)}")
        mode = Mode.HARD if hard else Mode.SOFT
        return cls({tag: mode for tag in PRESETS[name]}, gamma=gamma, form=form)


@dataclass
class TaskParams:
    """One task's view of the model parameters, grouped by sharing tag."""

    task: str
    groups: dict[str, dict[str, Tensor]]

    def named(self) -> Iterator[tuple[str, str, Tensor]]:
        for tag in TAGS:
            for name in sorted(self.groups[tag]):
                yield tag, name, self.groups[tag][name]

    def flat(self) -> dict[str, Tensor]:
        return {f"{tag}/{name}": t for tag, name, t in self.named()}

    def __getitem__(self, tag: str) -> dict[str, Tensor]:
        return self.groups[tag]

    def keys(self):
        return self.groups.keys()


class ParamRegistry:
    """Owns every task's parameter arrays and enforces the sharing plan.

    Initialization draws each task's arrays from a generator seeded only by
    (seed, task name), in a fixed tag/block order (see
    :func:`~seqlab.model.init_blocks`), so a task's starting point never
    depends on which other tasks are registered.  Hard groups are
    created by the first task to register and aliased by the rest.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        plan: SharingPlan,
        seed: int = 0,
        init_range: float = 0.02,
    ):
        if init_range <= 0:
            raise ContractError(f"init_range must be positive, got {init_range}")
        self.cfg = cfg
        self.plan = plan
        self.seed = seed
        self.init_range = init_range
        self.tasks: dict[str, TaskParams] = {}
        self._hard: dict[str, dict[str, Tensor]] = {}
        self._shapes = param_shapes(cfg)
        self._blocks = {tag: init_blocks(tag, shapes) for tag, shapes in self._shapes.items()}

    def add_task(self, task: str) -> TaskParams:
        if task in self.tasks:
            raise ContractError(f"task {task!r} already registered")
        rng = np.random.default_rng(task_seed(self.seed, task, stream=0))
        dt = self.cfg.np_dtype
        groups: dict[str, dict[str, Tensor]] = {}
        for tag in TAGS:
            if self.plan.mode(tag) is Mode.HARD and tag in self._hard:
                groups[tag] = self._hard[tag]
                continue
            shapes = self._shapes[tag]
            arrays = {name: np.empty(shapes[name], dtype=dt) for name in sorted(shapes)}
            for name, index in self._blocks[tag]:
                block = arrays[name][index]
                block[...] = rng.uniform(-self.init_range, self.init_range, block.shape)
            group = {name: Tensor(arr) for name, arr in arrays.items()}
            if self.plan.mode(tag) is Mode.HARD:
                self._hard[tag] = group
            groups[tag] = group
        params = TaskParams(task, groups)
        self.tasks[task] = params
        return params

    def task(self, task: str) -> TaskParams:
        if task not in self.tasks:
            raise ContractError(f"unknown task {task!r}")
        return self.tasks[task]

    def soft_penalty(self, task: str) -> tuple[float, dict[tuple[str, str], np.ndarray]]:
        """Closed-form penalty value and gradients for one task's soft arrays.

        Training uses this for both forms.  Counterpart tasks are treated as constants; their pull happens on
        their own steps.  With gamma 0, no soft tag or a single task it
        returns ``(0.0, {})``.
        """
        gamma = self.plan.gamma
        value = 0.0
        grads: dict[tuple[str, str], np.ndarray] = {}
        if gamma == 0.0 or not self.plan.soft_tags or len(self.tasks) < 2:
            return value, grads
        own = self.task(task)
        others = [t for name, t in self.tasks.items() if name != task]
        for tag in self.plan.soft_tags:
            names = sorted(own.groups[tag])
            for other in others:
                diffs = {
                    n: own.groups[tag][n].values - other.groups[tag][n].values
                    for n in names
                }
                if self.plan.form == SQUARED:
                    value += gamma * sum(float((d * d).sum()) for d in diffs.values())
                    for n, d in diffs.items():
                        key = (tag, n)
                        g = 2.0 * gamma * d
                        grads[key] = grads[key] + g if key in grads else g
                else:
                    dist = np.sqrt(sum(float((d * d).sum()) for d in diffs.values()))
                    value += gamma * dist
                    if dist >= ZERO_DISTANCE:
                        for n, d in diffs.items():
                            key = (tag, n)
                            g = gamma * d / dist
                            grads[key] = grads[key] + g if key in grads else g
        return value, grads

    def distance_report(self) -> dict[str, dict[tuple[str, str], float]]:
        """Euclidean distance between every task pair, per tag."""
        names = sorted(self.tasks)
        report: dict[str, dict[tuple[str, str], float]] = {}
        for tag in TAGS:
            pairs: dict[tuple[str, str], float] = {}
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    ga, gb = self.tasks[a].groups[tag], self.tasks[b].groups[tag]
                    sq = sum(
                        float(((ga[n].values - gb[n].values) ** 2).sum()) for n in ga
                    )
                    pairs[(a, b)] = float(np.sqrt(sq))
            report[tag] = pairs
        return report


def single_task_params(cfg: ModelConfig, task: str = "solo", seed: int = 0, init_range: float = 0.02) -> TaskParams:
    """Fresh private parameters for one task (no registry bookkeeping)."""
    reg = ParamRegistry(cfg, SharingPlan.solo(), seed=seed, init_range=init_range)
    return reg.add_task(task)
