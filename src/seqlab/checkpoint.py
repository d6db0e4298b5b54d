"""Self-describing run snapshots.

A checkpoint is a single ``.npz`` archive holding a version field, the run
config echo, the global step counter, the tasks that trained with coverage
at that step, every task's named parameter arrays, per-task optimizer
moments, and each task's vocabulary.  Everything needed to resume or decode
is in the file; nothing is pickled.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from .errors import CheckpointError
from .sharing import TaskParams

CHECKPOINT_VERSION = 3

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "atomic_write",
    "save_checkpoint",
    "load_checkpoint",
    "restore_task_params",
    "restore_optimizer",
]


NestedArrays = dict[str, dict[str, dict[str, np.ndarray]]]


@contextmanager
def atomic_write(path) -> Iterator[BinaryIO]:
    """Open a binary file that appears at `path` complete or not at all:
    the block writes a temporary name beside it that no run-directory glob
    matches, then ``os.replace`` moves it onto `path`.  If the block
    raises, `path` keeps what it held and the temporary file goes.  An
    existing `path` that is not a regular file (``/dev/stdout``, say) is
    written in place, since replacing it would destroy it."""
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "wb") as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.partial")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass
class Checkpoint:
    """In-memory view of a loaded snapshot.

    `load_checkpoint` reads everything but the Adam moments, which are
    twice the size of the parameters and which only resuming and `digest`
    read.  `adam_m` and `adam_v` are read from `path` the first time either
    is asked for, and kept; a file that was replaced or changed since the
    load raises `CheckpointError` then.
    """

    path: Path
    version: int
    step: int
    config: dict
    tasks: tuple[str, ...]
    coverage: tuple[str, ...]  # the tasks that trained with coverage
    params: NestedArrays
    adam_t: dict[str, int] = field(default_factory=dict)
    vocabs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    # The loaded file's identity: (device, inode, size, mtime_ns).
    stamp: tuple[int, ...] = field(default=(), repr=False)

    @functools.cached_property
    def _moments(self) -> tuple[NestedArrays, NestedArrays]:
        return _open(self.path, self._read_moments)

    def _read_moments(self, archive, stamp: tuple[int, ...]) -> tuple[NestedArrays, NestedArrays]:
        if stamp != self.stamp:
            raise CheckpointError(f"{self.path} changed since it was loaded; load it again")
        m: NestedArrays = {}
        v: NestedArrays = {}
        for key in archive.files:
            parts = key.split("/")
            if parts[0] == "adam" and len(parts) == 5:
                _nested(m if parts[2] == "m" else v, parts[1], parts[3], parts[4], archive[key])
        return m, v

    @property
    def adam_m(self) -> NestedArrays:
        return self._moments[0]

    @property
    def adam_v(self) -> NestedArrays:
        return self._moments[1]

    def task_arrays(self, task: str) -> dict[str, dict[str, np.ndarray]]:
        if task not in self.params:
            raise CheckpointError(
                f"checkpoint holds tasks {sorted(self.params)}, not {task!r}"
            )
        return self.params[task]

    def digest(self) -> str:
        """sha256 of every parameter and moment array with its name, dtype
        and shape, in name order: it names the arrays, not the file."""
        h = hashlib.sha256()
        for kind, store in (("params", self.params), ("adam/m", self.adam_m), ("adam/v", self.adam_v)):
            for task in sorted(store):
                for tag in sorted(store[task]):
                    for name in sorted(store[task][tag]):
                        arr = np.ascontiguousarray(store[task][tag][name])
                        h.update(f"{kind}/{task}/{tag}/{name} {arr.dtype.str} {arr.shape}\n".encode())
                        h.update(arr.tobytes())
        return h.hexdigest()


def save_checkpoint(
    path,
    *,
    step: int,
    tasks: Mapping[str, TaskParams],
    config: dict,
    coverage: Iterable[str],
    optimizer=None,
    vocabs: Mapping[str, object] | None = None,
) -> Path:
    """Write one archive for all tasks.

    `coverage` names the tasks whose model had coverage on at this step;
    decoding a task rebuilds its model from the config echo and this record.
    `optimizer`, when given, maps task name to an object with ``m``/``v``
    dicts (flat name -> array) and an integer ``t``; `vocabs` maps task name
    to a Vocab (or any object with ``.tokens``).  The write is atomic: the
    archive appears at `path` complete or not at all.
    """
    path = Path(path)
    arrays: dict[str, np.ndarray] = {
        "version": np.array(CHECKPOINT_VERSION),
        "step": np.array(int(step)),
        "config": np.array(json.dumps(config)),
        "tasks": np.array(json.dumps(sorted(tasks))),
        "coverage": np.array(json.dumps(sorted(coverage))),
    }
    for task, params in tasks.items():
        for tag, name, t in params.named():
            arrays[f"params/{task}/{tag}/{name}"] = t.values
    if optimizer:
        for task, state in optimizer.items():
            arrays[f"adam/{task}/t"] = np.array(int(state.t))
            for key, m in state.m.items():
                arrays[f"adam/{task}/m/{key}"] = m
            for key, v in state.v.items():
                arrays[f"adam/{task}/v/{key}"] = v
    if vocabs:
        for task, vocab in vocabs.items():
            arrays[f"vocab/{task}"] = np.array(list(vocab.tokens), dtype=str)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as fh:
        np.savez(fh, **arrays)
    return path


def _nested(store: NestedArrays, task: str, tag: str, name: str, arr: np.ndarray):
    store.setdefault(task, {}).setdefault(tag, {})[name] = arr


def load_checkpoint(path) -> Checkpoint:
    """Read an archive; any file that is not a readable checkpoint of this
    version (missing, truncated, corrupted or malformed) raises
    `CheckpointError`.  The Adam moments are read later, on first use (see
    `Checkpoint`)."""
    path = Path(path)
    return _open(path, lambda archive, stamp: _read(path, archive, stamp))


def _open(path: Path, read):
    """`read(archive, stamp)` on the npz archive at `path`, with the file's
    identity `stamp`; the file is closed after, whatever happens.  A file
    that cannot be read raises `CheckpointError` naming it."""
    try:
        with open(path, "rb") as fh:
            archive = np.load(fh, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                raise CheckpointError(f"{path} holds a single array, not a checkpoint archive")
            st = os.fstat(fh.fileno())
            with archive:
                return read(archive, (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns))
    except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        # json.JSONDecodeError is a ValueError
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None


def _read(path: Path, archive, stamp: tuple[int, ...]) -> Checkpoint:
    keys = set(archive.files)
    if "version" not in keys:
        raise CheckpointError(f"{path} has no version field; not a checkpoint")
    version = int(archive["version"])
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path} is checkpoint version {version}; this build reads "
            f"version {CHECKPOINT_VERSION}"
        )
    for required in ("step", "config", "tasks", "coverage"):
        if required not in keys:
            raise CheckpointError(f"{path} is missing the {required!r} field")
    ckpt = Checkpoint(
        path=path,
        version=version,
        step=int(archive["step"]),
        config=json.loads(str(archive["config"])),
        tasks=tuple(json.loads(str(archive["tasks"]))),
        coverage=tuple(json.loads(str(archive["coverage"]))),
        params={},
        stamp=stamp,
    )
    for key in keys:
        parts = key.split("/")
        if parts[0] == "params":
            if len(parts) != 4:
                raise CheckpointError(f"{path}: malformed parameter key {key!r}")
            _nested(ckpt.params, parts[1], parts[2], parts[3], archive[key])
        elif parts[0] == "adam":
            if len(parts) == 3 and parts[2] == "t":
                ckpt.adam_t[parts[1]] = int(archive[key])
            elif not (len(parts) == 5 and parts[2] in ("m", "v")):
                raise CheckpointError(f"{path}: malformed optimizer key {key!r}")
        elif parts[0] == "vocab":
            ckpt.vocabs[parts[1]] = tuple(str(t) for t in archive[key])
    missing = set(ckpt.tasks) - set(ckpt.params)
    if missing:
        raise CheckpointError(f"{path}: no parameters for tasks {sorted(missing)}")
    return ckpt


def restore_task_params(
    target: TaskParams, ckpt: Checkpoint, source_task: str | None = None
) -> None:
    """Copy one task's arrays from a checkpoint into live parameters.

    `source_task` defaults to the target's own name; a single-task
    checkpoint may be restored into a differently named task.
    """
    if source_task is None:
        if target.task in ckpt.params:
            source_task = target.task
        elif len(ckpt.params) == 1:
            source_task = next(iter(ckpt.params))
        else:
            raise CheckpointError(
                f"checkpoint holds tasks {sorted(ckpt.params)}; name one to "
                f"restore into {target.task!r}"
            )
    saved = ckpt.task_arrays(source_task)
    for tag, name, t in target.named():
        if tag not in saved or name not in saved[tag]:
            raise CheckpointError(f"checkpoint lacks {tag}/{name} for {source_task!r}")
        arr = saved[tag][name]
        if arr.shape != t.values.shape:
            raise CheckpointError(
                f"shape mismatch restoring {tag}/{name}: checkpoint "
                f"{arr.shape} vs model {t.values.shape}"
            )
        t.values[...] = arr


def restore_optimizer(state, ckpt: Checkpoint, task: str) -> None:
    """Load saved moments into an existing optimizer state object."""
    if task not in ckpt.adam_t:
        raise CheckpointError(f"checkpoint has no optimizer state for {task!r}")
    state.t = ckpt.adam_t[task]
    for which, live in (("m", state.m), ("v", state.v)):
        saved = (ckpt.adam_m if which == "m" else ckpt.adam_v).get(task, {})
        for key, arr in live.items():
            tag, name = key.split("/", 1)
            if tag not in saved or name not in saved[tag]:
                raise CheckpointError(f"checkpoint lacks moment {which} for {key}")
            if saved[tag][name].shape != arr.shape:
                raise CheckpointError(f"optimizer shape mismatch for {key}")
            arr[...] = saved[tag][name]
