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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from .data import task_seed
from .errors import ContractError
from .model import ModelConfig, TAGS, init_blocks, param_shapes
from .tensor import Tensor

SQUARED = "squared"
EUCLIDEAN = "l2"
ZERO_DISTANCE = 1e-12
# Elements per pass of a loop over flat buffers: 256 KB of float64, small
# enough that a pass of several operations stays in cache.
TILE = 32768

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


def tiles(start: int, stop: int) -> list[slice]:
    """Cut [start, stop) into consecutive slices of `TILE` elements, the
    last one shorter.  The first slice is the widest, so it sizes scratch."""
    return [slice(a, min(a + TILE, stop)) for a in range(start, stop, TILE)]


@dataclass(frozen=True)
class Layout:
    """Where each of a task's arrays sits in one flat vector.

    The vector is a run of segments: the task's own buffer (its soft arrays
    first, tag by tag in `TAGS` order, then its private arrays), then one
    buffer per hard group, in `TAGS` order.  Within a tag, arrays go in
    name order, so each tag fills one span.  Every task of a registry has
    this layout, and gradient and Adam moment arenas share it, so one slice
    names the same arrays in all.
    """

    # flat key -> (segment, start, stop, shape), in `TaskParams.flat` order
    spans: Mapping[str, tuple[int, int, int, tuple[int, ...]]]
    segments: tuple[tuple[int, int], ...]  # (start, stop) of each segment
    tag_spans: Mapping[str, tuple[int, int]]  # (start, stop) of each tag's arrays
    soft_size: int  # the soft arrays fill [0, soft_size)

    @classmethod
    def build(cls, shapes: Mapping[str, Mapping[str, tuple[int, ...]]], plan: SharingPlan) -> "Layout":
        own = plan.soft_tags + tuple(t for t in TAGS if plan.mode(t) is Mode.PRIVATE)
        placed: dict[str, tuple[int, int, int, tuple[int, ...]]] = {}
        tag_spans = {}
        start = 0
        for seg, tags in enumerate((own, *((t,) for t in plan.hard_tags))):
            for tag in tags:
                tag_start = start
                for name in sorted(shapes[tag]):
                    stop = start + math.prod(shapes[tag][name])
                    placed[f"{tag}/{name}"] = (seg, start, stop, tuple(shapes[tag][name]))
                    start = stop
                tag_spans[tag] = (tag_start, start)
        segments = ((0, tag_spans[own[-1]][1] if own else 0), *(tag_spans[t] for t in plan.hard_tags))
        soft_size = max((tag_spans[t][1] for t in plan.soft_tags), default=0)
        spans = {f"{t}/{n}": placed[f"{t}/{n}"] for t in TAGS for n in sorted(shapes[t])}
        return cls(spans, segments, tag_spans, soft_size)

    @property
    def size(self) -> int:
        return self.segments[-1][1]

    def split(self, buffers: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
        """Every array's view of one buffer per segment, in `TaskParams.flat` order."""
        firsts = [a for a, _ in self.segments]
        return {
            key: buffers[seg][a - firsts[seg] : b - firsts[seg]].reshape(shape)
            for key, (seg, a, b, shape) in self.spans.items()
        }

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Every array's view of one flat vector of `size` elements."""
        return self.split([flat[a:b] for a, b in self.segments])


@dataclass
class TaskParams:
    """One task's view of the model parameters, grouped by sharing tag.

    Every array is a view of one of `buffers`, one per segment of `layout`:
    the task's own, then each hard group's, which every task aliases.
    """

    task: str
    groups: dict[str, dict[str, Tensor]]
    layout: Layout
    buffers: tuple[np.ndarray, ...]

    def named(self) -> Iterator[tuple[str, str, Tensor]]:
        for tag in TAGS:
            for name in sorted(self.groups[tag]):
                yield tag, name, self.groups[tag][name]

    def flat(self) -> dict[str, Tensor]:
        return {f"{tag}/{name}": t for tag, name, t in self.named()}

    def __getitem__(self, tag: str) -> dict[str, Tensor]:
        return self.groups[tag]


class ParamRegistry:
    """Owns every task's parameter arrays and enforces the sharing plan.

    Initialization draws each task's arrays from a generator seeded only by
    (seed, task name), in a fixed tag/block order (see
    :func:`~seqlab.model.init_blocks`), so a task's starting point never
    depends on which other tasks are registered.  Hard groups are
    created by the first task to register and aliased by the rest.

    Every array is a view of a flat buffer laid out by `layout`: each task
    owns one for its soft and private arrays, and each hard group is one
    buffer that every task holds.
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
        self._shapes = param_shapes(cfg)
        self._blocks = {tag: init_blocks(tag, shapes) for tag, shapes in self._shapes.items()}
        self.layout = Layout.build(self._shapes, plan)
        self._hard = tuple(np.empty(b - a, dtype=cfg.np_dtype) for a, b in self.layout.segments[1:])

    def add_task(self, task: str) -> TaskParams:
        if task in self.tasks:
            raise ContractError(f"task {task!r} already registered")
        rng = np.random.default_rng(task_seed(self.seed, task, stream=0))
        (start, stop), *_ = self.layout.segments
        buffers = (np.empty(stop - start, dtype=self.cfg.np_dtype), *self._hard)
        arrays = self.layout.split(buffers)
        first = next(iter(self.tasks.values()), None)
        groups: dict[str, dict[str, Tensor]] = {}
        for tag in TAGS:
            if self.plan.mode(tag) is Mode.HARD and first is not None:
                groups[tag] = first.groups[tag]
                continue
            group = {name: arrays[f"{tag}/{name}"] for name in sorted(self._shapes[tag])}
            for name, index in self._blocks[tag]:
                block = group[name][index]
                block[...] = rng.uniform(-self.init_range, self.init_range, block.shape)
            groups[tag] = {name: Tensor(arr) for name, arr in group.items()}
        params = TaskParams(task, groups, self.layout, buffers)
        self.tasks[task] = params
        return params

    def task(self, task: str) -> TaskParams:
        if task not in self.tasks:
            raise ContractError(f"unknown task {task!r}")
        return self.tasks[task]

    def soft_penalty(self, task: str, grad: np.ndarray) -> float:
        """Closed-form penalty value for one task's soft arrays, for both
        forms; adds the penalty's gradient into the arena `grad`.

        Counterpart tasks are treated as constants; their pull happens on
        their own steps.  With gamma 0, no soft tag or a single task it
        returns 0.0 and leaves `grad` alone.  The soft arrays fill the first
        `layout.soft_size` elements of every task's own buffer and of `grad`.
        Each tag's span runs in `tiles`: a tile's squared distance to each
        counterpart is one partial sum, added in tile order, and a tile's
        pull from all counterparts is summed before it is added to `grad`.
        """
        gamma = self.plan.gamma
        if gamma == 0.0 or not self.plan.soft_tags or len(self.tasks) < 2:
            return 0.0
        squared = self.plan.form == SQUARED
        own = self.task(task).buffers[0]
        others = [t.buffers[0] for name, t in self.tasks.items() if name != task]
        width = tiles(0, self.layout.soft_size)[0].stop
        diff, sq, pull = np.empty((3, width), dtype=own.dtype)

        def distance2(other: np.ndarray, tile: slice) -> float:
            # leaves own - other in `diff` for the pull
            d = np.subtract(own[tile], other[tile], out=diff[: tile.stop - tile.start])
            return float(np.multiply(d, d, out=sq[: d.size]).sum())

        value = 0.0
        for tag in self.plan.soft_tags:
            cuts = tiles(*self.layout.tag_spans[tag])
            # the l2 gradient divides by each distance, so it measures first
            dist2 = [0.0 if squared else sum(distance2(o, t) for t in cuts) for o in others]
            dist = [math.sqrt(x) for x in dist2]
            for tile in cuts:
                n = tile.stop - tile.start
                total = None
                for k, other in enumerate(others):
                    if squared:
                        dist2[k] += distance2(other, tile)
                    elif dist[k] < ZERO_DISTANCE:
                        continue
                    else:
                        np.subtract(own[tile], other[tile], out=diff[:n])
                    out = pull[:n] if total is None else sq[:n]
                    np.multiply(2.0 * gamma if squared else gamma, diff[:n], out=out)
                    if not squared:
                        out /= dist[k]
                    total = out if total is None else np.add(total, out, out=total)
                if total is not None:
                    grad[tile] += total
            for k in range(len(others)):
                value += gamma * (dist2[k] if squared else dist[k])
        return value

    def distance_report(self) -> dict[str, dict[tuple[str, str], float]]:
        """Euclidean distance between every task pair, per tag, summed over
        the `tiles` of the tag's span in each task's own buffer (the first
        segment); a hard tag is one buffer, so its distance is 0.0."""
        names = sorted(self.tasks)
        own = {name: params.buffers[0] for name, params in self.tasks.items()}
        report: dict[str, dict[tuple[str, str], float]] = {}
        for tag in TAGS:
            cuts = [] if self.plan.mode(tag) is Mode.HARD else tiles(*self.layout.tag_spans[tag])
            report[tag] = {
                (a, b): math.sqrt(sum(float(np.square(own[a][t] - own[b][t]).sum()) for t in cuts))
                for i, a in enumerate(names)
                for b in names[i + 1 :]
            }
        return report


def single_task_params(cfg: ModelConfig, task: str = "solo", seed: int = 0, init_range: float = 0.02) -> TaskParams:
    """Fresh private parameters for one task (no registry bookkeeping)."""
    reg = ParamRegistry(cfg, SharingPlan.solo(), seed=seed, init_range=init_range)
    return reg.add_task(task)
