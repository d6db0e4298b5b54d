"""The benchmark's workloads: inputs made from the seed, one timed call into
seqlab's public entry points, and the checks on what the call produced.

Untraced calls go through `seqlab.training.train` and `seqlab.cli.main`
only.  Set-up uses the data generators, `ParamRegistry`, `SharingPlan` and
`ModelConfig`; the checks use `load_checkpoint` and `score_sequence` (with
`encode_source_only` and `Tensor`, the argument types it takes).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from seqlab import cli
from seqlab.checkpoint import load_checkpoint
from seqlab.data import SynthSpec, encode_source_only, make_task_corpora
from seqlab.decoding import score_sequence
from seqlab.model import ModelConfig
from seqlab.sharing import ParamRegistry, SharingPlan
from seqlab.tensor import Tensor
from seqlab.training import TrainConfig, TrainTask, train

REPLAY_REL = 1e-10
TASKS = ("copy-oov", "keyword-extract", "subset-rewrite")  # the first is primary
RATIOS = (4, 3, 3)
SIZES = (1500, 150, 150)
GAMMA = 1e-6
INIT_RANGE = 0.1
GATE_EMB, GATE_HIDDEN = 16, 32


def _checkpoint_path(run_dir: Path, step: int) -> Path:
    return run_dir / "checkpoints" / f"step-{step:06d}.npz"


def _finite_losses(path: Path) -> tuple[list[dict], list[str]]:
    records = [json.loads(line) for line in path.read_text().splitlines() if line]
    bad = [
        f"step {r.get('step')}: {key}={r[key]!r} is not finite"
        for r in records
        for key in ("nll", "l_cov", "soft_penalty", "total", "grad_norm", "val_nll", "val_loss")
        if key in r and not (isinstance(r[key], (int, float)) and math.isfinite(r[key]))
    ]
    return records, bad


@dataclass(frozen=True)
class TrainPrep:
    cfg: ModelConfig
    tconf: TrainConfig
    registry: ParamRegistry
    tasks: list
    tokens: float


@dataclass(frozen=True)
class TrainWorkload:
    """Gate 9's three-task soft-sharing run without its warm start.

    One call is one `train(...)` of `steps` steps with its validation
    passes and its one checkpoint write.  Every call starts from freshly
    initialised parameters on the same inputs, so every call must write
    the same bytes to metrics.jsonl (gate 9's determinism oracle).
    """

    name: str
    emb_dim: int
    hidden: int
    batch_size: int
    steps: int
    val_every: int

    kind = "train"
    ops_per_call = 1
    fresh_setup_per_call = True
    root_span = "training.train"
    request_span = "data.batch"
    throughput_name, throughput_unit = "train_tok_s", "tokens/s"

    @property
    def units(self) -> int:
        return self.steps

    def prepare(self, seed: int, workdir: Path) -> TrainPrep:
        spec = SynthSpec()
        vocab = spec.vocab()
        corpora = {t: make_task_corpora(t, seed=seed, sizes=SIZES, spec=spec) for t in TASKS}
        cfg = ModelConfig(vocab_size=len(vocab), emb_dim=self.emb_dim, hidden=self.hidden,
                          use_pointer=True, use_coverage=True)
        registry = ParamRegistry(cfg, SharingPlan.preset("final", gamma=GAMMA),
                                 seed=seed, init_range=INIT_RANGE)
        for t in TASKS:
            registry.add_task(t)
        tconf = TrainConfig(
            cov_weight=1.0, ratios=RATIOS, lr=1e-3, batch_size=self.batch_size,
            max_steps=self.steps, val_every=self.val_every, checkpoint_every=self.steps,
            patience=999, coverage_mode="on", seed=seed,
        )
        # Expected non-pad target tokens (each target plus its end token):
        # the scheduled task's mean over its training split, per example.
        mean_tgt = {
            t: sum(len(ex.target) + 1 for ex in corpora[t].train) / len(corpora[t].train)
            for t in TASKS
        }
        cycle = [t for t, r in zip(TASKS, RATIOS) for _ in range(r)]
        tokens = sum(self.batch_size * mean_tgt[cycle[s % len(cycle)]] for s in range(self.steps))
        tasks = [TrainTask(t, corpora[t], vocab) for t in TASKS]
        return TrainPrep(cfg, tconf, registry, tasks, tokens)

    def call(self, prep: TrainPrep, out_dir: Path):
        return train(prep.cfg, prep.tconf, prep.registry, prep.tasks, out_dir)

    def work(self, prep: TrainPrep) -> float:
        return prep.tokens

    def check(self, prep: TrainPrep, result, out_dir: Path, reference):
        """Returns (attempted, failed, log bytes, problems, notes) for one call."""
        problems = []
        log = (out_dir / "metrics.jsonl").read_bytes()
        records, bad = _finite_losses(out_dir / "metrics.jsonl")
        problems += bad
        steps = sum(1 for r in records if r.get("kind") == "train")
        if result.steps != self.steps or steps != self.steps:
            problems.append(f"ran {result.steps} steps ({steps} logged), configured {self.steps}")
        ckpt = load_checkpoint(_checkpoint_path(out_dir, self.steps))
        if ckpt.step != self.steps or set(ckpt.params) != set(TASKS):
            problems.append(f"final checkpoint holds step {ckpt.step}, tasks {sorted(ckpt.params)}")
        if reference is not None and log != reference:
            problems.append("metrics.jsonl differs from the first call on the same inputs")
        return 1, int(bool(problems)), reference or log, problems, []


@dataclass(frozen=True)
class DecodePrep:
    checkpoint: Path
    inputs: Path
    examples: tuple


@dataclass(frozen=True)
class DecodeWorkload:
    """`seqlab decode --beam 4` over held-out copy-oov sources.

    Set-up trains a gate-config single-task checkpoint with the code under
    test, long enough that hypotheses end on the end token, and writes the
    input file.  One call is one `cli.main(["decode", ...])`, including the
    checkpoint load and the output write.
    """

    name: str
    beam: int
    sources: int
    ckpt_steps: int
    ckpt_lr: float
    replay_every: int

    kind = "decode"
    fresh_setup_per_call = False
    root_span = "cli.main"
    request_span = "data.encode"
    emb_dim = GATE_EMB
    throughput_name, throughput_unit = "decode_sent_s", "sources/s"
    task = TASKS[0]

    @property
    def units(self) -> int:
        return self.sources

    @property
    def ops_per_call(self) -> int:
        return self.sources

    def prepare(self, seed: int, workdir: Path) -> DecodePrep:
        spec = SynthSpec()
        vocab = spec.vocab()
        corpora = make_task_corpora(self.task, seed=seed, sizes=SIZES, spec=spec)
        cfg = ModelConfig(vocab_size=len(vocab), emb_dim=GATE_EMB, hidden=GATE_HIDDEN,
                          use_pointer=True, use_coverage=True)
        registry = ParamRegistry(cfg, SharingPlan.solo(), seed=seed, init_range=INIT_RANGE)
        registry.add_task(self.task)
        tconf = TrainConfig(
            cov_weight=1.0, lr=self.ckpt_lr, batch_size=8, max_steps=self.ckpt_steps,
            val_every=self.ckpt_steps, checkpoint_every=self.ckpt_steps, patience=999,
            coverage_mode="on", seed=seed,
        )
        run_dir = workdir / "checkpoint-run"
        train(cfg, tconf, registry, [TrainTask(self.task, corpora, vocab)], run_dir)
        examples = corpora.test[: self.sources]
        if len(examples) != self.sources:
            raise ValueError(f"test split holds {len(corpora.test)} sources, need {self.sources}")
        inputs = workdir / "sources.jsonl"
        inputs.write_text("".join(
            json.dumps({"source": " ".join(ex.source), "target": " ".join(ex.target)}) + "\n"
            for ex in examples
        ))
        return DecodePrep(_checkpoint_path(run_dir, self.ckpt_steps), inputs, examples)

    def call(self, prep: DecodePrep, out_dir: Path) -> int:
        argv = ["decode", "--checkpoint", str(prep.checkpoint), "--input", str(prep.inputs),
                "--output", str(out_dir / "decoded.jsonl"), "--beam", str(self.beam)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def work(self, prep: DecodePrep) -> float:
        return self.sources

    def _replayer(self, prep: DecodePrep):
        """A test of one record: "exact" when score_sequence reproduces its
        length-normalised score bit for bit, "close" when within the
        relative 1e-10 that tests/test_decoding.py pins for the same replay,
        None otherwise; as a finished or as a forced hypothesis."""
        ckpt = load_checkpoint(prep.checkpoint)
        params = {tag: {n: Tensor(a) for n, a in group.items()}
                  for tag, group in ckpt.task_arrays(self.task).items()}
        cfg = ModelConfig(**ckpt.config["model"])
        vocab = SynthSpec().vocab()

        def replays(index: int, record: dict) -> str | None:
            enc = encode_source_only(prep.examples[index], vocab)
            ids = []
            for word in record["hypothesis"].split():
                if word in vocab:
                    ids.append(vocab.id(word))
                elif word in enc.oovs:
                    ids.append(len(vocab) + enc.oovs.index(word))
                else:
                    return None
            scores = [
                score_sequence(params, cfg, enc, ids, include_end=finished)
                / max(1, len(ids) + finished)
                for finished in (True, False)
            ]
            if record["score"] in scores:
                return "exact"
            if any(abs(s - record["score"]) <= REPLAY_REL * max(1.0, abs(s)) for s in scores):
                return "close"
            return None

        return replays

    def check(self, prep: DecodePrep, rc: int, out_dir: Path, reference):
        """Returns (attempted, failed, records, problems, notes) for one call.

        Every record needs a hypothesis and a finite score.  The first call
        replays every `replay_every`-th hypothesis through score_sequence;
        later calls must reproduce the first call's records exactly.
        """
        if rc != 0:
            return self.sources, self.sources, None, [f"decode exited with {rc}"], []
        lines = (out_dir / "decoded.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        problems = []
        if len(records) != self.sources:
            problems.append(f"{len(records)} records for {self.sources} sources")
        failed = max(0, self.sources - len(records))
        replays = self._replayer(prep) if reference is None else None
        replayed = Counter()
        for i, rec in enumerate(records[: self.sources]):
            score = rec.get("score")
            ok = isinstance(rec.get("hypothesis"), str) and isinstance(score, float) \
                and math.isfinite(score)
            if ok and replays is not None and i % self.replay_every == 0:
                outcome = replays(i, rec)
                replayed[outcome] += 1
                ok = outcome is not None
            if ok and reference is not None:
                ok = i < len(reference) and rec == reference[i]
            if not ok:
                failed += 1
                problems.append(f"source {i}: record fails its check: {rec}")
        notes = []
        if replays is not None:
            checked = sum(replayed.values())
            notes.append(
                f"score_sequence replay: {replayed['exact']} of {checked} bit-exact, "
                f"{replayed['close']} within relative {REPLAY_REL:g}, "
                f"{replayed[None]} beyond"
            )
        return self.sources, failed, records if reference is None else reference, problems, notes


WORKLOADS = {
    # Python overhead per op dominates; tape and LSTM-fusion changes show here.
    "train-gate": TrainWorkload("train-gate", emb_dim=GATE_EMB, hidden=GATE_HIDDEN,
                                batch_size=8, steps=50, val_every=25),
    # ModelConfig.full_scale sizes: array work dominates; optimizer, penalty,
    # matmul-shape and memory changes show here.
    "train-wide": TrainWorkload("train-wide", emb_dim=128, hidden=256,
                                batch_size=16, steps=10, val_every=10),
    # No-grad forward plus beam bookkeeping; batched-beam changes show here.
    "decode-beam4": DecodeWorkload("decode-beam4", beam=4, sources=128, ckpt_steps=64,
                                   ckpt_lr=1e-2, replay_every=16),
}
