"""Command-line driver: one binary, four subcommands.

``seqlab train``      run an experiment described by a JSON config file
``seqlab decode``     beam-search a checkpoint over a file of sources
``seqlab eval``       score hypothesis/reference files and print a table
``seqlab gradcheck``  verify analytic gradients on a tiny full-loss model

The config file is the source of truth; flags override individual fields.
Exit codes: 0 success, 2 configuration or input error, 3 checkpoint error,
4 numeric failure (divergence, failed gradient check).  Set the
``SEQLAB_LOG`` environment variable (debug/info/warning/error) to control
log verbosity on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .checkpoint import atomic_write, load_checkpoint
from .config import DecodeConfig, RunConfig, load_run_config
from .data import (
    Batch,
    Example,
    TaskCorpora,
    Vocab,
    encode_source_only,
    ids_to_tokens,
    load_corpus,
    load_sources,
)
from .decoding import beam_search
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    NumericError,
)
from .metrics import EvalItem, evaluate_corpus
from .model import ModelConfig
from .sharing import ParamRegistry, SharingPlan
from .tensor import Tensor
from .training import TrainTask, step_gradient_check, train, warm_start

__all__ = ["main", "EXIT_OK", "EXIT_CONFIG", "EXIT_CHECKPOINT", "EXIT_NUMERIC"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_NUMERIC = 4

log = logging.getLogger("seqlab.cli")


def _setup_logging() -> None:
    name = os.environ.get("SEQLAB_LOG", "warning").strip().upper()
    level = logging.getLevelName(name)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


# ---------------------------------------------------------------------------
# train


def _load_corpus_file(path: str, task: str) -> list[Example]:
    try:
        return load_corpus(path)
    except OSError as exc:
        raise ConfigError(f"task {task!r}: cannot read corpus file {path}: {exc}") from exc


def _task_bundle(cfg: RunConfig, tdef) -> TrainTask:
    train_ex = _load_corpus_file(tdef.train_path, tdef.name)
    val_ex = _load_corpus_file(tdef.val_path, tdef.name)
    test_ex = _load_corpus_file(tdef.test_path, tdef.name) if tdef.test_path else []
    if not train_ex or not val_ex:
        raise ConfigError(f"task {tdef.name!r}: train and val corpora must be non-empty")
    corpora = TaskCorpora(tuple(train_ex), tuple(val_ex), tuple(test_ex))

    if tdef.vocab_path is not None:
        try:
            vocab = Vocab.load(tdef.vocab_path)
        except OSError as exc:
            raise ConfigError(
                f"task {tdef.name!r}: cannot read vocabulary file {tdef.vocab_path}: {exc}"
            ) from exc
    else:
        texts = [ex.source for ex in train_ex] + [ex.target for ex in train_ex]
        vocab = Vocab.build(texts, max_size=tdef.vocab_size)
    if len(vocab) != cfg.model.vocab_size:
        raise ConfigError(
            f"task {tdef.name!r}: vocabulary has {len(vocab)} tokens but "
            f"model.vocab_size is {cfg.model.vocab_size}"
        )

    warm = tdef.warm_checkpoint
    if warm is None and tdef.warm_run is not None:
        warm = warm_start(tdef.warm_run, cfg.train.warm_fraction)
        log.info("task %s warm-starts from %s", tdef.name, warm)
    return TrainTask(tdef.name, corpora, vocab, warm_checkpoint=warm)


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if args.seed is not None:
        cfg = dataclasses.replace(
            cfg, seed=args.seed, train=dataclasses.replace(cfg.train, seed=args.seed)
        )
    if args.max_steps is not None:
        cfg = dataclasses.replace(
            cfg, train=dataclasses.replace(cfg.train, max_steps=args.max_steps)
        )

    bundles = [_task_bundle(cfg, tdef) for tdef in cfg.tasks]
    registry = ParamRegistry(cfg.model, cfg.plan, seed=cfg.seed)
    for tdef in cfg.tasks:
        registry.add_task(tdef.name)
    log.info(
        "training %d task(s) for up to %d steps", len(bundles), cfg.train.max_steps
    )
    result = train(
        cfg.model,
        cfg.train,
        registry,
        bundles,
        run_dir=cfg.out_dir,
        config_echo={"run_config": cfg.to_dict()},
    )
    print(f"run directory: {result.run_dir}")
    print(
        f"stopped after {result.steps} steps ({result.stop_reason}); "
        f"best step {result.best_step} (val nll {result.best_val:.4f})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# decode


def _checkpoint_model(ckpt, task: str) -> ModelConfig:
    """The model `task` was trained as at the checkpoint's step: the echoed
    model config, with coverage as the checkpoint records it for `task`."""
    model_echo = ckpt.config.get("model")
    if not isinstance(model_echo, dict):
        raise CheckpointError("checkpoint config echo lacks a model section")
    try:
        mcfg = ModelConfig(**model_echo)
    except (TypeError, ContractError) as exc:
        raise CheckpointError(f"checkpoint model config is invalid: {exc}") from exc
    return dataclasses.replace(mcfg, use_coverage=task in ckpt.coverage)


def _checkpoint_task(ckpt, requested: str | None) -> str:
    if requested is not None:
        if requested not in ckpt.params:
            raise ConfigError(
                f"checkpoint holds tasks {sorted(ckpt.params)}, not {requested!r}"
            )
        return requested
    if len(ckpt.params) == 1:
        return next(iter(ckpt.params))
    raise ConfigError(
        f"checkpoint holds several tasks {sorted(ckpt.params)}; pick one with --task"
    )


def cmd_decode(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    task = _checkpoint_task(ckpt, args.task)
    mcfg = _checkpoint_model(ckpt, task)
    if task not in ckpt.vocabs:
        raise CheckpointError(f"checkpoint has no vocabulary for task {task!r}")
    vocab = Vocab(list(ckpt.vocabs[task]))
    if len(vocab) != mcfg.vocab_size:
        raise CheckpointError(
            f"checkpoint vocabulary for {task!r} has {len(vocab)} tokens but the "
            f"model expects {mcfg.vocab_size}"
        )
    params = {
        tag: {name: Tensor(arr) for name, arr in group.items()}
        for tag, group in ckpt.task_arrays(task).items()
    }

    run_echo = ckpt.config.get("run_config")
    defaults_echo = run_echo.get("decode", {}) if isinstance(run_echo, dict) else {}
    try:
        defaults = DecodeConfig(**defaults_echo)
    except (TypeError, ContractError):
        defaults = DecodeConfig()
    beam = args.beam if args.beam is not None else defaults.beam
    max_len = args.max_len if args.max_len is not None else defaults.max_len
    min_len = args.min_len if args.min_len is not None else defaults.min_len
    dconf = DecodeConfig(beam=beam, max_len=max_len, min_len=min_len)  # validates

    try:
        inputs = load_sources(args.input)
    except OSError as exc:
        raise ConfigError(f"cannot read input file {args.input}: {exc}") from exc
    if not inputs:
        raise ConfigError(f"input file {args.input} holds no records")
    log.info("decoding %d sources with beam %d", len(inputs), dconf.beam)

    encoded = [encode_source_only(ex, vocab) for ex in inputs]
    pools = beam_search(
        params, mcfg, encoded, beam=dconf.beam, max_len=dconf.max_len, min_len=dconf.min_len
    )
    records = []
    for ex, enc, pool in zip(inputs, encoded, pools):
        best = pool[0]
        rec = {"source": " ".join(ex.source)}
        if ex.target:
            rec["reference"] = " ".join(ex.target)
        rec["hypothesis"] = " ".join(ids_to_tokens(best.tokens, vocab, enc.oovs))
        rec["score"] = best.score
        records.append(rec)

    lines = "".join(json.dumps(r) + "\n" for r in records)
    if args.output:
        with atomic_write(args.output) as fh:
            fh.write(lines.encode("utf-8"))
        print(f"decoded {len(records)} sources -> {args.output}")
    else:
        sys.stdout.write(lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _read_lines(path: str, what: str) -> list[str]:
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc


def cmd_eval(args) -> int:
    hyps = _read_lines(args.hyp, "hypothesis")
    refs = _read_lines(args.ref, "reference")
    if len(hyps) != len(refs):
        raise ConfigError(
            f"hypothesis file has {len(hyps)} lines but reference file has "
            f"{len(refs)}; they must align"
        )
    sources: list[str | None] = [None] * len(hyps)
    if args.source:
        sources = list(_read_lines(args.source, "source"))
        if len(sources) != len(hyps):
            raise ConfigError(
                f"source file has {len(sources)} lines but hypothesis file has "
                f"{len(hyps)}; they must align"
            )
    keywords: list[tuple[str, ...] | None] = [None] * len(hyps)
    if args.keywords:
        kw_lines = _read_lines(args.keywords, "keywords")
        if len(kw_lines) != len(hyps):
            raise ConfigError(
                f"keywords file has {len(kw_lines)} lines but hypothesis file has "
                f"{len(hyps)}; they must align"
            )
        keywords = [tuple(line.split()) for line in kw_lines]

    items = [
        EvalItem(candidate=h, reference=r, source=s, keywords=k)
        for h, r, s, k in zip(hyps, refs, sources, keywords)
    ]
    report = evaluate_corpus(items)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            report.write_jsonl(fh)
        log.info("wrote per-example report to %s", args.report)
    print(report.table())
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def _gradcheck_setup(seed: int, dtype: str):
    """The gradient check of a tiny full-loss problem, to call with `step`
    and `tolerance`: pointer, coverage and the soft sharing penalty.

    Two tasks share E2/Attn/D1 softly; the check runs the checked task's
    training loss, `loss_and_gradient`, so the penalty it checks is the one
    training adds.
    """
    mcfg = ModelConfig(
        vocab_size=20, emb_dim=8, hidden=8, use_pointer=True, use_coverage=True,
        dtype=dtype,
    )
    plan = SharingPlan.preset("final", gamma=1e-3)
    registry = ParamRegistry(mcfg, plan, seed=seed, init_range=0.5)
    registry.add_task("a")
    registry.add_task("b")

    rng = np.random.default_rng(seed)
    dt = mcfg.np_dtype
    src = rng.integers(4, mcfg.vocab_size, size=(2, 5))
    src[0, 3] = 1  # an unknown source token exercises the copy path
    src_mask = np.ones((2, 5), dtype=dt)
    src_mask[1, 4] = 0.0
    src_ext = src.copy()
    src_ext[0, 3] = mcfg.vocab_size  # extended id for the unknown token
    tgt_in = rng.integers(4, mcfg.vocab_size, size=(2, 4))
    tgt_in[:, 0] = 2
    tgt_out = np.concatenate([tgt_in[:, 1:], np.full((2, 1), 3)], axis=1)
    tgt_out[0, 1] = mcfg.vocab_size  # gold token reachable only by copying
    dec_mask = np.ones((2, 4), dtype=dt)
    dec_mask[1, 3] = 0.0

    batch = Batch(
        src_ids=src, src_ext=src_ext, src_mask=src_mask,
        dec_in=tgt_in, dec_out=tgt_out, dec_mask=dec_mask,
        max_oov=1,
    )
    return functools.partial(step_gradient_check, registry, "a", mcfg, batch, cov_weight=1.0)


def cmd_gradcheck(args) -> int:
    tolerance = args.tolerance
    if args.dtype == "float32" and args.tolerance is None:
        tolerance = 1e-2
        print(
            "warning: 32-bit mode, tolerance relaxed to 1e-2", file=sys.stderr
        )
    elif args.tolerance is None:
        tolerance = 1e-4

    check = _gradcheck_setup(args.seed, args.dtype)
    report = check(step=args.step, tolerance=tolerance)
    print(f"seed {args.seed}  step {args.step:g}  dtype {args.dtype}")
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqlab",
        description="Train, decode, and evaluate pointer-generator sequence models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run an experiment from a JSON config file")
    p.add_argument("--config", required=True, help="path to the run config (JSON)")
    p.add_argument("--out", help="override the output run directory")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--max-steps", type=int, help="override train.max_steps")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="beam-search a checkpoint over input sources")
    p.add_argument("--checkpoint", required=True, help="checkpoint archive (.npz)")
    p.add_argument("--input", required=True, help="jsonl file of {source[, target]}")
    p.add_argument("--output", help="output jsonl path (default: stdout)")
    p.add_argument("--task", help="task to decode with (multi-task checkpoints)")
    p.add_argument("--beam", type=int, help="beam width (default 4)")
    p.add_argument("--max-len", type=int, help="maximum output length")
    p.add_argument("--min-len", type=int, help="minimum output length before the end token")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score aligned hypothesis/reference files")
    p.add_argument("--hyp", required=True, help="hypothesis file, one summary per line")
    p.add_argument("--ref", required=True, help="reference file, one summary per line")
    p.add_argument("--source", help="optional aligned source file (novel n-gram rates)")
    p.add_argument("--keywords", help="optional aligned keywords file (saliency)")
    p.add_argument("--report", help="write a per-example jsonl report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check on a tiny model")
    p.add_argument("--seed", type=int, default=0, help="seed for parameters and data")
    p.add_argument("--step", type=float, default=3e-4, help="finite-difference step")
    p.add_argument(
        "--dtype", choices=("float64", "float32"), default="float64",
        help="precision of the checked loss and gradient; probes run in float64 (float32 relaxes the tolerance)",
    )
    p.add_argument(
        "--tolerance", type=float, default=None,
        help="max relative error to accept (default 1e-4, or 1e-2 for float32)",
    )
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ContractError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
