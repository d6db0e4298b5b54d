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


@dataclass(frozen=True)
class Layout:
    """Where each of a task's arrays sits in one flat vector.

    The vector is a run of segments: the task's own buffer (its soft arrays
    first, tag by tag in `TAGS` order, then its private arrays), then one
    buffer per hard group, in `TAGS` order.  Within a tag, arrays go in
    name order.  Every task of a registry has this layout, and gradient and
    Adam moment arenas share it, so one slice names the same arrays in all.
    """

    # flat key -> (segment, start, stop, shape), in `TaskParams.flat` order
    spans: Mapping[str, tuple[int, int, int, tuple[int, ...]]]
    segments: tuple[tuple[int, int], ...]  # (start, stop) of each segment
    soft_size: int  # the soft arrays fill [0, soft_size)
    # Runs of whole arrays of one tag, in vector order, each at most TILE
    # elements unless one array is longer: (tag, start, stop, arrays), each
    # array as (flat key, start, stop).  The soft tags' runs come first.
    chunks: tuple[tuple[str, int, int, tuple[tuple[str, int, int], ...]], ...]

    @classmethod
    def build(cls, shapes: Mapping[str, Mapping[str, tuple[int, ...]]], plan: SharingPlan) -> "Layout":
        own = plan.soft_tags + tuple(t for t in TAGS if plan.mode(t) is Mode.PRIVATE)
        placed: dict[str, tuple[int, int, int, tuple[int, ...]]] = {}
        segments = []
        chunks = []
        start = 0
        for seg, tags in enumerate((own, *((t,) for t in plan.hard_tags))):
            first = start
            for tag in tags:
                run: list[tuple[str, int, int]] = []
                for name in sorted(shapes[tag]):
                    key, stop = f"{tag}/{name}", start + math.prod(shapes[tag][name])
                    placed[key] = (seg, start, stop, tuple(shapes[tag][name]))
                    if run and stop - run[0][1] > TILE:
                        chunks.append((tag, run[0][1], run[-1][2], tuple(run)))
                        run = []
                    run.append((key, start, stop))
                    start = stop
                chunks.append((tag, run[0][1], run[-1][2], tuple(run)))
            segments.append((first, start))
        soft_size = max((b for tag, _, b, _ in chunks if tag in plan.soft_tags), default=0)
        spans = {f"{t}/{n}": placed[f"{t}/{n}"] for t in TAGS for n in sorted(shapes[t])}
        return cls(spans, tuple(segments), soft_size, tuple(chunks))

    @property
    def soft_chunks(self) -> tuple:
        return tuple(c for c in self.chunks if c[2] <= self.soft_size)

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

    def keys(self):
        return self.groups.keys()


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

    def soft_penalty(
        self, task: str, into: np.ndarray | None = None
    ) -> tuple[float, dict[tuple[str, str], np.ndarray]]:
        """Closed-form penalty value and gradients for one task's soft arrays.

        Training uses this for both forms.  Counterpart tasks are treated
        as constants; their pull happens on their own steps.  With gamma 0,
        no soft tag or a single task it returns ``(0.0, {})``.

        The soft arrays are the first `layout.soft_size` elements of every
        task's own buffer, so each pass runs over `layout.soft_chunks`.
        Each array's squared distance is still its own sum, added in the
        order of the per-array form, so the value is bitwise that form's.
        Without `into`, the gradient comes back per pulled array; with it,
        `into` (a gradient arena laid out by `layout`) has the gradient
        added to its soft span, and the dict comes back empty.
        """
        gamma = self.plan.gamma
        if gamma == 0.0 or not self.plan.soft_tags or len(self.tasks) < 2:
            return 0.0, {}
        layout = self.layout
        squared = self.plan.form == SQUARED
        own = self.task(task).buffers[0]
        others = [t.buffers[0] for name, t in self.tasks.items() if name != task]
        chunks = layout.soft_chunks
        width = max(b - a for _, a, b, _ in chunks)
        diff, sq, pull = np.empty((3, width), dtype=own.dtype)
        # Squared distance per (counterpart, tag): one partial sum per array.
        parts: dict[tuple[int, str], list[float]] = {}

        def measure(k: int, tag: str, a: int, arrays, d: np.ndarray) -> None:
            s = np.multiply(d, d, out=sq[: d.size])
            parts.setdefault((k, tag), []).extend(float(s[i - a : j - a].sum()) for _, i, j in arrays)

        dist: dict[tuple[int, str], float] = {}
        if not squared:  # the l2 gradient needs each distance first
            for tag, a, b, arrays in chunks:
                for k, other in enumerate(others):
                    measure(k, tag, a, arrays, np.subtract(own[a:b], other[a:b], out=diff[: b - a]))
            dist = {key: np.sqrt(sum(p)) for key, p in parts.items()}

        grad = np.zeros(layout.soft_size, dtype=own.dtype) if into is None else into
        pulled: set[str] = set()
        for tag, a, b, arrays in chunks:
            total = None
            for k, other in enumerate(others):
                if not squared and dist[k, tag] < ZERO_DISTANCE:
                    continue
                d = np.subtract(own[a:b], other[a:b], out=diff[: b - a])
                if squared:
                    measure(k, tag, a, arrays, d)
                out = pull[: b - a] if total is None else sq[: b - a]
                if squared:
                    np.multiply(2.0 * gamma, d, out=out)
                else:
                    np.multiply(gamma, d, out=out)
                    out /= dist[k, tag]
                if total is None:
                    total = out
                else:
                    total += out
            if total is not None:
                grad[a:b] += total
                pulled.add(tag)

        value = 0.0
        for tag in self.plan.soft_tags:
            for k in range(len(others)):
                if squared:
                    value += gamma * sum(parts[k, tag])
                else:
                    value += gamma * dist[k, tag]
        if into is not None:
            return value, {}
        grads = {}
        for key, (_, a, b, shape) in layout.spans.items():
            tag, name = key.split("/", 1)
            if tag in pulled:
                grads[(tag, name)] = grad[a:b].reshape(shape)
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
