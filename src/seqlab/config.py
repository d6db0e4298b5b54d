"""Run configuration: a single strict, echoable description of an experiment.

A run is described by one JSON document with these sections:

``seed``
    Master seed.  Parameter initialisation and batch sampling derive from it;
    the training section may pin its own ``seed`` but defaults to this one.
``out_dir``
    Directory the run writes into (created by the trainer, refused if it
    already contains run artifacts).
``model``
    Architecture dimensions (see :class:`seqlab.model.ModelConfig`).
``plan``
    Parameter-sharing plan: either ``{"preset": name, ...}`` or
    ``{"modes": {group: mode}, ...}`` with optional ``gamma`` / ``form`` /
    ``hard``.  Omitted entirely means every group is private (single-task).
``train``
    Optimisation knobs (see :class:`seqlab.training.TrainConfig`).
``decode``
    Beam search defaults (:class:`DecodeConfig`).
``eval``
    Reporting knobs (:class:`EvalConfig`).
``tasks``
    Ordered list of task definitions (:class:`TaskDef`).  The first task is
    primary: it drives early stopping and alone gets coverage, when
    ``model.use_coverage`` is true.  ``model.use_coverage`` is the one
    coverage switch, for training and decoding alike; ``train.coverage_mode``
    only schedules it (``"on"`` or ``"phased"``).

Parsing is strict: an unknown key anywhere raises :class:`ConfigError`
naming the key and the section it appeared in.  ``RunConfig.to_dict()``
round-trips: the dict written into a run directory parses back to an equal
``RunConfig``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigError, ContractError
from .model import ModelConfig
from .sharing import PRESETS, TAGS, Mode, SharingPlan
from .training import TrainConfig

__all__ = [
    "DecodeConfig",
    "EvalConfig",
    "TaskDef",
    "RunConfig",
    "parse_run_config",
    "load_run_config",
]


# ---------------------------------------------------------------------------
# Leaf sections


@dataclass(frozen=True)
class DecodeConfig:
    """Beam-search defaults used by the decode command."""

    beam: int = 4
    max_len: int = 20
    min_len: int = 0

    def __post_init__(self):
        if self.beam < 1:
            raise ContractError(f"decode.beam must be >= 1, got {self.beam}")
        if self.max_len < 0:
            raise ContractError(f"decode.max_len must be >= 0, got {self.max_len}")
        if not 0 <= self.min_len <= self.max_len:
            raise ContractError(
                f"decode.min_len must be in [0, max_len], got "
                f"min_len={self.min_len} max_len={self.max_len}"
            )


@dataclass(frozen=True)
class EvalConfig:
    """Reporting knobs for the eval command."""

    per_example: bool = True


@dataclass(frozen=True)
class TaskDef:
    """One task: a name, its corpora, and (optionally) where to warm-start.

    Exactly one of ``vocab_path`` (token-per-line file) or ``vocab_size``
    (build the vocabulary from the training corpus, capped at this size
    including specials) must be provided.  ``warm_run`` points at a finished
    single-task run directory; the trainer resolves it to the checkpoint
    nearest ``train.warm_fraction`` of that run's best step.
    ``warm_checkpoint`` names a checkpoint file directly and wins over
    ``warm_run``.
    """

    name: str
    train_path: str
    val_path: str
    test_path: str | None = None
    vocab_path: str | None = None
    vocab_size: int | None = None
    warm_run: str | None = None
    warm_checkpoint: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ContractError("task name must be non-empty")
        if (self.vocab_path is None) == (self.vocab_size is None):
            raise ContractError(
                f"task {self.name!r} must set exactly one of vocab_path or "
                f"vocab_size"
            )
        if self.vocab_size is not None and self.vocab_size < 5:
            raise ContractError(
                f"task {self.name!r}: vocab_size must be >= 5 (four special "
                f"tokens plus content), got {self.vocab_size}"
            )


# ---------------------------------------------------------------------------
# Top-level config


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run."""

    tasks: tuple[TaskDef, ...]
    model: ModelConfig
    plan: SharingPlan
    train: TrainConfig
    decode: DecodeConfig = DecodeConfig()
    eval: EvalConfig = EvalConfig()
    out_dir: str = "run"
    seed: int = 0

    def __post_init__(self):
        if not self.tasks:
            raise ContractError("config must define at least one task")
        names = [t.name for t in self.tasks]
        if len(set(names)) != len(names):
            raise ContractError(f"duplicate task names in config: {names}")
        if len(self.train.ratios) != len(self.tasks):
            raise ContractError(
                f"train.ratios has {len(self.train.ratios)} entries for "
                f"{len(self.tasks)} tasks"
            )

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form; ``parse_run_config`` inverts it exactly."""
        return {
            "seed": self.seed,
            "out_dir": self.out_dir,
            "tasks": [
                {k: v for k, v in dataclasses.asdict(t).items() if v is not None}
                for t in self.tasks
            ],
            "model": dataclasses.asdict(self.model),
            "plan": self.plan.describe(),
            "train": {
                **dataclasses.asdict(self.train),
                "ratios": list(self.train.ratios),
            },
            "decode": dataclasses.asdict(self.decode),
            "eval": dataclasses.asdict(self.eval),
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Parsing


def _require_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _check_keys(data: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} in {where} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _build(cls, data: Mapping[str, Any], where: str):
    """Construct a config dataclass, translating failures to ConfigError."""
    fields = {f.name for f in dataclasses.fields(cls)}
    _check_keys(data, fields, where)
    try:
        return cls(**data)
    except ContractError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_plan(data: Mapping[str, Any]) -> SharingPlan:
    _check_keys(data, {"preset", "modes", "gamma", "form", "hard"}, "plan")
    if ("preset" in data) == ("modes" in data):
        raise ConfigError("plan must set exactly one of 'preset' or 'modes'")
    gamma = data.get("gamma", 0.0)
    form = data.get("form", "squared")
    try:
        if "preset" in data:
            preset = data["preset"]
            if preset not in PRESETS:
                raise ConfigError(
                    f"plan.preset must be one of {sorted(PRESETS)}, got {preset!r}"
                )
            return SharingPlan.preset(
                preset, gamma=gamma, form=form, hard=bool(data.get("hard", False))
            )
        if "hard" in data:
            raise ConfigError("plan.hard is only valid with plan.preset")
        modes_raw = _require_mapping(data["modes"], "plan.modes")
        _check_keys(modes_raw, set(TAGS), "plan.modes")
        modes = {}
        for tag, value in modes_raw.items():
            try:
                modes[tag] = Mode(value)
            except ValueError:
                raise ConfigError(
                    f"plan.modes.{tag}: unknown mode {value!r} "
                    f"(expected one of {[m.value for m in Mode]})"
                ) from None
        return SharingPlan(modes, gamma=gamma, form=form)
    except ContractError as exc:
        raise ConfigError(f"plan: {exc}") from exc


def parse_run_config(data: Mapping[str, Any]) -> RunConfig:
    """Parse a plain dict (e.g. loaded JSON) into a validated RunConfig."""
    data = _require_mapping(data, "config")
    _check_keys(
        data,
        {"seed", "out_dir", "tasks", "model", "plan", "train", "decode", "eval"},
        "config",
    )

    seed = data.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")

    out_dir = data.get("out_dir", "run")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError(f"out_dir must be a non-empty string, got {out_dir!r}")

    tasks_raw = data.get("tasks")
    if not isinstance(tasks_raw, list) or not tasks_raw:
        raise ConfigError("tasks must be a non-empty list of task objects")
    tasks = tuple(
        _build(TaskDef, _require_mapping(t, f"tasks[{i}]"), f"tasks[{i}]")
        for i, t in enumerate(tasks_raw)
    )

    if "model" not in data:
        raise ConfigError("config is missing required section 'model'")
    model = _build(ModelConfig, _require_mapping(data["model"], "model"), "model")

    if "plan" in data:
        plan = _parse_plan(_require_mapping(data["plan"], "plan"))
    else:
        plan = SharingPlan.solo()

    train_raw = dict(_require_mapping(data.get("train", {}), "train"))
    if "ratios" in train_raw:
        ratios = train_raw["ratios"]
        if not isinstance(ratios, list) or not all(
            isinstance(r, int) and not isinstance(r, bool) for r in ratios
        ):
            raise ConfigError(f"train.ratios must be a list of integers, got {ratios!r}")
        train_raw["ratios"] = tuple(ratios)
    else:
        train_raw["ratios"] = (1,) * len(tasks)
    train_raw.setdefault("seed", seed)
    train = _build(TrainConfig, train_raw, "train")

    decode = _build(
        DecodeConfig, _require_mapping(data.get("decode", {}), "decode"), "decode"
    )
    eval_cfg = _build(
        EvalConfig, _require_mapping(data.get("eval", {}), "eval"), "eval"
    )

    try:
        return RunConfig(
            tasks=tasks,
            model=model,
            plan=plan,
            train=train,
            decode=decode,
            eval=eval_cfg,
            out_dir=out_dir,
            seed=seed,
        )
    except ContractError as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path: str | Path) -> RunConfig:
    """Load and validate a JSON config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return parse_run_config(data)
