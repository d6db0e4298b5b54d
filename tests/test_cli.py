"""Command-line driver: subcommands, exit codes, and artifact round-trips."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import seqlab.cli as cli
import seqlab.training as training
from seqlab.checkpoint import load_checkpoint, save_checkpoint
from seqlab.cli import EXIT_CHECKPOINT, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from seqlab.config import parse_run_config
from seqlab.data import (
    SynthSpec,
    Vocab,
    encode_source_only,
    gen_copy,
    ids_to_tokens,
    make_task_corpora,
    save_corpus,
)
from seqlab.decoding import ROW_BUDGET, beam_search, greedy_decode
from seqlab.model import ModelConfig
from seqlab.sharing import ParamRegistry, SharingPlan
from seqlab.tensor import Tensor, multiply, reduce_sum
from seqlab.training import TrainConfig, TrainTask, train

if sys.version_info >= (3, 11):
    import tomllib
else:
    import tomli as tomllib

REPO_ROOT = Path(__file__).resolve().parents[1]
SPEC = SynthSpec(content_words=8, oov_pool=4, min_len=2, max_len=4, keyword_pool=3)
VOCAB_SIZE = 12  # 4 reserved + 8 content words


def write_corpora(root: Path, generator: str = "copy", sizes=(40, 8, 8)):
    corp = make_task_corpora(generator, seed=1, sizes=sizes, spec=SPEC)
    save_corpus(root / "train.jsonl", corp.train)
    save_corpus(root / "val.jsonl", corp.val)
    save_corpus(root / "test.jsonl", corp.test)
    return corp


def base_config(root: Path, **train_overrides) -> dict:
    train = {
        "max_steps": 6,
        "val_every": 3,
        "checkpoint_every": 3,
        "batch_size": 4,
        "patience": 5,
    }
    train.update(train_overrides)
    return {
        "seed": 3,
        "out_dir": str(root / "run"),
        "model": {"vocab_size": VOCAB_SIZE, "emb_dim": 4, "hidden": 4},
        "train": train,
        "decode": {"beam": 3, "max_len": 6, "min_len": 0},
        "tasks": [
            {
                "name": "copy",
                "train_path": str(root / "train.jsonl"),
                "val_path": str(root / "val.jsonl"),
                "test_path": str(root / "test.jsonl"),
                "vocab_size": VOCAB_SIZE,
            }
        ],
    }


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One real `seqlab train` invocation, shared by the decode tests."""
    root = tmp_path_factory.mktemp("cli")
    corp = write_corpora(root)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(base_config(root)))
    rc = main(["train", "--config", str(cfg_path)])
    assert rc == EXIT_OK
    run_dir = root / "run"
    ckpts = sorted((run_dir / "checkpoints").glob("step-*.npz"))
    assert ckpts
    return {
        "root": root,
        "config_path": cfg_path,
        "run_dir": run_dir,
        "checkpoint": ckpts[-1],
        "corpora": corp,
    }


class TestTrainCommand:
    def test_artifacts_and_config_echo(self, trained):
        run_dir = trained["run_dir"]
        assert (run_dir / "metrics.jsonl").exists()
        assert (run_dir / "run_meta.json").exists()
        assert not (run_dir / "LOCK").exists()
        echo = json.loads((run_dir / "config.json").read_text())
        reloaded = parse_run_config(echo["run_config"])
        original = parse_run_config(json.loads(trained["config_path"].read_text()))
        assert reloaded == original

    def test_stdout_reports_run(self, trained, capsys):
        # the fixture already consumed its own output; run a fresh tiny one
        root = trained["root"]
        cfg = base_config(root, max_steps=2, val_every=2, checkpoint_every=2)
        cfg["out_dir"] = str(root / "run_stdout")
        p = root / "config_stdout.json"
        p.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(p)])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "run directory:" in out
        assert "stopped after 2 steps" in out

    def test_flag_overrides(self, trained):
        root = trained["root"]
        out_dir = root / "run_override"
        rc = main(
            [
                "train",
                "--config",
                str(trained["config_path"]),
                "--out",
                str(out_dir),
                "--max-steps",
                "2",
                "--seed",
                "9",
            ]
        )
        assert rc == EXIT_OK
        meta = json.loads((out_dir / "run_meta.json").read_text())
        assert meta["steps"] == 2
        echo = json.loads((out_dir / "config.json").read_text())
        assert echo["run_config"]["seed"] == 9
        assert echo["run_config"]["train"]["seed"] == 9
        assert echo["run_config"]["train"]["max_steps"] == 2
        assert echo["run_config"]["out_dir"] == str(out_dir)

    def test_invalid_config_exits_2_with_field_message(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"model": {"vocab_size": 12}, "tasks": [], "junk": 1}))
        rc = main(["train", "--config", str(p)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "config error" in err
        assert "junk" in err

    def test_missing_corpus_file_exits_2_naming_path(self, tmp_path, capsys):
        cfg = base_config(tmp_path)  # corpora never written
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(p)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert str(tmp_path / "train.jsonl") in err

    def test_corpus_record_without_target_exits_2_naming_its_line(self, tmp_path, capsys):
        corp = write_corpora(tmp_path)
        train_path = tmp_path / "train.jsonl"
        with open(train_path, "a") as fh:
            fh.write('{"source": "a b", "target": "  "}\n')
        p = tmp_path / "config.json"
        p.write_text(json.dumps(base_config(tmp_path)))
        rc = main(["train", "--config", str(p)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        line = len(corp.train) + 1
        assert f"{train_path}:{line}: bad corpus record (target has no tokens)" in err

    def test_warm_start_from_cut_run_meta_exits_2_naming_it(self, trained, tmp_path, capsys):
        base = tmp_path / "base"
        shutil.copytree(trained["run_dir"], base)
        meta = base / "run_meta.json"
        meta.write_text(meta.read_text()[:20])  # cut mid-write
        cfg = base_config(trained["root"])
        cfg["out_dir"] = str(tmp_path / "warm")
        cfg["tasks"][0]["warm_run"] = str(base)
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(p)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert str(meta) in err
        assert "Traceback" not in err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "absent.json")])
        assert rc == EXIT_CONFIG
        assert "cannot read config file" in capsys.readouterr().err

    def test_occupied_run_dir_exits_2(self, trained, capsys):
        rc = main(["train", "--config", str(trained["config_path"])])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "fresh directory" in err

    def test_vocab_size_mismatch_exits_2(self, trained, capsys):
        root = trained["root"]
        cfg = base_config(root)
        cfg["model"]["vocab_size"] = 20  # corpus only yields 12 distinct tokens
        cfg["tasks"][0]["vocab_size"] = 20
        cfg["out_dir"] = str(root / "run_mismatch")
        p = root / "config_mismatch.json"
        p.write_text(json.dumps(cfg))
        rc = main(["train", "--config", str(p)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "vocabulary has" in err and "model.vocab_size is 20" in err

    def test_vocab_path_roundtrip(self, trained):
        root = trained["root"]
        vocab_file = root / "explicit_vocab.txt"
        SPEC.vocab().save(vocab_file)
        cfg = base_config(root, max_steps=1, val_every=1, checkpoint_every=1)
        cfg["tasks"][0].pop("vocab_size")
        cfg["tasks"][0]["vocab_path"] = str(vocab_file)
        cfg["out_dir"] = str(root / "run_vocabfile")
        p = root / "config_vocabfile.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(p)]) == EXIT_OK

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 2


class TestDecodeCommand:
    def load_decoder(self, trained):
        ckpt = load_checkpoint(trained["checkpoint"])
        mcfg = ModelConfig(**ckpt.config["model"])
        vocab = Vocab(list(ckpt.vocabs["copy"]))
        params = {
            tag: {name: Tensor(arr) for name, arr in group.items()}
            for tag, group in ckpt.task_arrays("copy").items()
        }
        return ckpt, mcfg, vocab, params

    def test_decode_writes_aligned_records(self, trained, tmp_path):
        out = tmp_path / "decoded.jsonl"
        rc = main(
            [
                "decode",
                "--checkpoint",
                str(trained["checkpoint"]),
                "--input",
                str(trained["root"] / "test.jsonl"),
                "--output",
                str(out),
            ]
        )
        assert rc == EXIT_OK
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == len(trained["corpora"].test)
        for rec, ex in zip(records, trained["corpora"].test):
            assert rec["source"] == " ".join(ex.source)
            assert rec["reference"] == " ".join(ex.target)
            assert isinstance(rec["hypothesis"], str)
            assert isinstance(rec["score"], float)

    def test_output_replaces_the_file_atomically(self, trained, tmp_path, monkeypatch):
        out = tmp_path / "decoded.jsonl"
        out.write_text("an earlier decode\n")
        written = []
        real = cli.atomic_write

        def spy(path):
            written.append(Path(path))
            return real(path)

        monkeypatch.setattr(cli, "atomic_write", spy)
        rc = main(["decode", "--checkpoint", str(trained["checkpoint"]),
                   "--input", str(trained["root"] / "test.jsonl"), "--output", str(out)])
        assert rc == EXIT_OK
        assert written == [out]
        assert os.listdir(tmp_path) == ["decoded.jsonl"]
        assert len(out.read_text().splitlines()) == len(trained["corpora"].test)

    def test_decode_without_references(self, trained, tmp_path, capsys):
        src = tmp_path / "sources.jsonl"
        src.write_text('{"source": "w00 w01"}\n{"source": "w02 w03 w04"}\n')
        rc = main(
            ["decode", "--checkpoint", str(trained["checkpoint"]), "--input", str(src)]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        records = [json.loads(l) for l in out.splitlines()]
        assert len(records) == 2
        assert all("reference" not in r for r in records)
        assert all("hypothesis" in r and "score" in r for r in records)

    def test_beam_one_matches_greedy(self, trained, tmp_path, capsys):
        _, mcfg, vocab, params = self.load_decoder(trained)
        src = tmp_path / "sources.jsonl"
        examples = trained["corpora"].test[:4]
        save_corpus(src, examples)
        rc = main(
            [
                "decode",
                "--checkpoint",
                str(trained["checkpoint"]),
                "--input",
                str(src),
                "--beam",
                "1",
                "--max-len",
                "6",
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        for line, ex in zip(out.splitlines(), examples):
            enc = encode_source_only(ex, vocab)
            ids = greedy_decode(params, mcfg, enc, max_len=6)
            expected = " ".join(ids_to_tokens(ids, vocab, enc.oovs))
            assert json.loads(line)["hypothesis"] == expected

    def test_records_keep_input_order_across_chunks(self, trained, tmp_path, capsys):
        # more sources than two beam-4 chunks hold, decoded in both orders
        _, mcfg, vocab, params = self.load_decoder(trained)
        examples = gen_copy(np.random.default_rng(9), 2 * (ROW_BUDGET // 4) + 3, SPEC)
        src = tmp_path / "sources.jsonl"
        for order in (examples, examples[::-1]):
            save_corpus(src, order)
            rc = main(
                [
                    "decode",
                    "--checkpoint",
                    str(trained["checkpoint"]),
                    "--input",
                    str(src),
                    "--beam",
                    "4",
                    "--max-len",
                    "6",
                ]
            )
            out = capsys.readouterr().out
            assert rc == EXIT_OK
            records = [json.loads(line) for line in out.splitlines()]
            assert [r["source"] for r in records] == [" ".join(ex.source) for ex in order]
            for rec, ex in zip(records, order):
                enc = encode_source_only(ex, vocab)
                best = beam_search(params, mcfg, [enc], beam=4, max_len=6)[0][0]
                assert rec["hypothesis"] == " ".join(ids_to_tokens(best.tokens, vocab, enc.oovs))
                assert rec["score"] == pytest.approx(best.score, rel=1e-10, abs=1e-10)

    def test_config_decode_defaults_apply(self, trained, tmp_path, capsys):
        # run config pinned max_len 6; hypotheses can never exceed it
        src = tmp_path / "sources.jsonl"
        src.write_text('{"source": "w00 w01 w02 w03"}\n')
        rc = main(
            ["decode", "--checkpoint", str(trained["checkpoint"]), "--input", str(src)]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert len(json.loads(out.splitlines()[0])["hypothesis"].split()) <= 6

    def test_min_len_flag(self, trained, tmp_path, capsys):
        src = tmp_path / "sources.jsonl"
        src.write_text('{"source": "w00 w01"}\n')
        rc = main(
            [
                "decode",
                "--checkpoint",
                str(trained["checkpoint"]),
                "--input",
                str(src),
                "--min-len",
                "3",
                "--max-len",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert len(json.loads(out.splitlines()[0])["hypothesis"].split()) >= 3

    def test_missing_checkpoint_exits_3(self, tmp_path, capsys):
        rc = main(
            [
                "decode",
                "--checkpoint",
                str(tmp_path / "absent.npz"),
                "--input",
                str(tmp_path / "in.jsonl"),
            ]
        )
        assert rc == EXIT_CHECKPOINT
        assert "checkpoint error" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"this is not an archive")
        src = tmp_path / "in.jsonl"
        src.write_text('{"source": "w00"}\n')
        rc = main(["decode", "--checkpoint", str(bad), "--input", str(src)])
        assert rc == EXIT_CHECKPOINT

    def test_truncated_checkpoint_exits_3(self, tmp_path, capsys):
        mcfg = ModelConfig(vocab_size=VOCAB_SIZE, emb_dim=4, hidden=4)
        registry = ParamRegistry(mcfg, SharingPlan.solo(), seed=0)
        ck = tmp_path / "cut.npz"
        save_checkpoint(
            ck, step=0, tasks={"a": registry.add_task("a")}, config={"model": asdict(mcfg)},
            coverage=[], vocabs={"a": SPEC.vocab()},
        )
        data = ck.read_bytes()
        ck.write_bytes(data[: len(data) // 2])
        src = tmp_path / "in.jsonl"
        src.write_text('{"source": "w00"}\n')
        rc = main(["decode", "--checkpoint", str(ck), "--input", str(src)])
        assert rc == EXIT_CHECKPOINT
        assert "checkpoint error" in capsys.readouterr().err

    def test_version_mismatch_exits_3(self, tmp_path, capsys):
        future = tmp_path / "future.npz"
        with open(future, "wb") as fh:
            np.savez(fh, version=np.array(99))
        src = tmp_path / "in.jsonl"
        src.write_text('{"source": "w00"}\n')
        rc = main(["decode", "--checkpoint", str(future), "--input", str(src)])
        err = capsys.readouterr().err
        assert rc == EXIT_CHECKPOINT
        assert "version 99" in err

    def test_multi_task_checkpoint_needs_task_flag(self, tmp_path, capsys):
        mcfg = ModelConfig(vocab_size=VOCAB_SIZE, emb_dim=4, hidden=4)
        registry = ParamRegistry(mcfg, SharingPlan.solo(), seed=0)
        tasks = {"a": registry.add_task("a"), "b": registry.add_task("b")}
        vocab = SPEC.vocab()
        ck = tmp_path / "multi.npz"
        save_checkpoint(
            ck, step=0, tasks=tasks, config={"model": asdict(mcfg)}, coverage=[],
            vocabs={"a": vocab, "b": vocab},
        )
        src = tmp_path / "in.jsonl"
        src.write_text('{"source": "w00 w01"}\n')
        rc = main(["decode", "--checkpoint", str(ck), "--input", str(src)])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "--task" in err

        rc = main(
            ["decode", "--checkpoint", str(ck), "--input", str(src), "--task", "c"]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "'c'" in err

        rc = main(
            ["decode", "--checkpoint", str(ck), "--input", str(src), "--task", "a"]
        )
        assert rc == EXIT_OK

    def test_each_task_decodes_with_its_recorded_coverage(self, tmp_path):
        # The checkpoint's coverage record alone decides: here it names the
        # second task, so the first decodes without coverage.
        mcfg = ModelConfig(vocab_size=VOCAB_SIZE, emb_dim=4, hidden=4, use_coverage=True)
        registry = ParamRegistry(mcfg, SharingPlan.solo(), seed=0, init_range=0.5)
        tasks = {"a": registry.add_task("a"), "b": registry.add_task("b")}
        vocab = SPEC.vocab()
        ck = tmp_path / "multi.npz"
        save_checkpoint(
            ck, step=0, tasks=tasks, config={"model": asdict(mcfg), "tasks": ["a", "b"]},
            coverage=["b"], vocabs={"a": vocab, "b": vocab},
        )
        examples = make_task_corpora("copy", seed=2, sizes=(1, 1, 8), spec=SPEC).test
        src = tmp_path / "in.jsonl"
        save_corpus(src, examples)
        encoded = [encode_source_only(ex, vocab) for ex in examples]
        no_cov = replace(mcfg, use_coverage=False)
        for task, want_cfg, other_cfg in (("a", no_cov, mcfg), ("b", mcfg, no_cov)):
            out = tmp_path / f"{task}.jsonl"
            rc = main(["decode", "--checkpoint", str(ck), "--input", str(src),
                       "--task", task, "--beam", "2", "--max-len", "5", "--output", str(out)])
            assert rc == EXIT_OK
            got = [json.loads(line)["score"] for line in out.read_text().splitlines()]
            params = tasks[task].groups
            want = [p[0].score for p in beam_search(params, want_cfg, encoded, 2, 5)]
            other = [p[0].score for p in beam_search(params, other_cfg, encoded, 2, 5)]
            assert got == want
            assert got != other

    def test_phased_checkpoints_decode_as_they_trained(self, tmp_path, monkeypatch):
        # A flat validation loss makes the phased run switch coverage on at
        # step 3's validation: checkpoints 1-3 trained without coverage and
        # must decode without it, checkpoints 4-6 with it.
        monkeypatch.setattr(training, "validation_loss", lambda *a, **k: (1.0, 1.0))
        mcfg = ModelConfig(vocab_size=VOCAB_SIZE, emb_dim=4, hidden=4, use_coverage=True)
        registry = ParamRegistry(mcfg, SharingPlan.solo(), seed=0, init_range=0.5)
        registry.add_task("copy")
        corp = make_task_corpora("copy", seed=2, sizes=(16, 4, 8), spec=SPEC)
        vocab = SPEC.vocab()
        tconf = TrainConfig(
            batch_size=4, max_steps=20, val_every=1, checkpoint_every=1, patience=2,
            coverage_mode="phased",
        )
        result = train(mcfg, tconf, registry, [TrainTask("copy", corp, vocab)], tmp_path / "run")
        assert result.checkpoint_steps == (1, 2, 3, 4, 5, 6)
        src = tmp_path / "in.jsonl"
        save_corpus(src, corp.test)
        encoded = [encode_source_only(ex, vocab) for ex in corp.test]
        no_cov = replace(mcfg, use_coverage=False)
        for step in result.checkpoint_steps:
            ck = tmp_path / "run" / "checkpoints" / f"step-{step:06d}.npz"
            out = tmp_path / f"step-{step}.jsonl"
            rc = main(["decode", "--checkpoint", str(ck), "--input", str(src),
                       "--beam", "2", "--max-len", "5", "--output", str(out)])
            assert rc == EXIT_OK
            got = [json.loads(line)["score"] for line in out.read_text().splitlines()]
            params = {
                tag: {name: Tensor(arr) for name, arr in group.items()}
                for tag, group in load_checkpoint(ck).task_arrays("copy").items()
            }
            want_cfg, other_cfg = (no_cov, mcfg) if step <= 3 else (mcfg, no_cov)
            assert got == [p[0].score for p in beam_search(params, want_cfg, encoded, 2, 5)]
            assert got != [p[0].score for p in beam_search(params, other_cfg, encoded, 2, 5)]

    def test_empty_input_exits_2(self, trained, tmp_path, capsys):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        rc = main(
            ["decode", "--checkpoint", str(trained["checkpoint"]), "--input", str(src)]
        )
        assert rc == EXIT_CONFIG
        assert "no records" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record,reason", [('{"source": "  "}', "source has no tokens"), ('{"source": 5}', "")]
    )
    def test_bad_source_exits_2_naming_its_line(self, trained, tmp_path, capsys, record, reason):
        src = tmp_path / "in.jsonl"
        src.write_text('{"source": "a b"}\n\n' + record + "\n")
        rc = main(
            ["decode", "--checkpoint", str(trained["checkpoint"]), "--input", str(src)]
        )
        assert rc == EXIT_CONFIG
        assert f"{src}:3: bad input record ({reason}" in capsys.readouterr().err

    def test_missing_input_exits_2(self, trained, tmp_path, capsys):
        rc = main(
            [
                "decode",
                "--checkpoint",
                str(trained["checkpoint"]),
                "--input",
                str(tmp_path / "absent.jsonl"),
            ]
        )
        assert rc == EXIT_CONFIG
        assert "cannot read input file" in capsys.readouterr().err

    def test_bad_flag_combo_exits_2(self, trained, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text('{"source": "w00"}\n')
        rc = main(
            [
                "decode",
                "--checkpoint",
                str(trained["checkpoint"]),
                "--input",
                str(src),
                "--min-len",
                "9",
                "--max-len",
                "2",
            ]
        )
        assert rc == EXIT_CONFIG


class TestEvalCommand:
    def test_identical_files_score_one(self, tmp_path, capsys):
        text = "the cat sat\na quick fox\n"
        (tmp_path / "hyp.txt").write_text(text)
        (tmp_path / "ref.txt").write_text(text)
        report = tmp_path / "report.jsonl"
        rc = main(
            [
                "eval",
                "--hyp",
                str(tmp_path / "hyp.txt"),
                "--ref",
                str(tmp_path / "ref.txt"),
                "--report",
                str(report),
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "rouge-1" in out
        records = [json.loads(l) for l in report.read_text().splitlines()]
        summary = records[-1]
        assert summary["kind"] == "summary"
        assert summary["rouge1"]["f1"] == 1.0
        assert summary["rouge2"]["f1"] == 1.0
        assert summary["rougeL"]["f1"] == 1.0

    def test_line_count_mismatch_exits_2(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a\nb\n")
        (tmp_path / "ref.txt").write_text("a\n")
        rc = main(
            ["eval", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "ref.txt")]
        )
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "2 lines" in err and "1" in err

    def test_empty_hypothesis_line_scores_zero(self, tmp_path):
        (tmp_path / "hyp.txt").write_text("\nthe cat\n")
        (tmp_path / "ref.txt").write_text("the cat\nthe cat\n")
        report = tmp_path / "report.jsonl"
        rc = main(
            [
                "eval",
                "--hyp",
                str(tmp_path / "hyp.txt"),
                "--ref",
                str(tmp_path / "ref.txt"),
                "--report",
                str(report),
            ]
        )
        assert rc == EXIT_OK
        records = [json.loads(l) for l in report.read_text().splitlines()]
        assert records[0]["rouge1"]["f1"] == 0.0
        assert records[1]["rouge1"]["f1"] == 1.0

    def test_keywords_enable_saliency(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("w00 w01\n")
        (tmp_path / "ref.txt").write_text("w00 w01\n")
        (tmp_path / "kw.txt").write_text("w00 w02\n")
        rc = main(
            [
                "eval",
                "--hyp",
                str(tmp_path / "hyp.txt"),
                "--ref",
                str(tmp_path / "ref.txt"),
                "--keywords",
                str(tmp_path / "kw.txt"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "saliency" in out
        assert "50.0" in out

    def test_sources_enable_novelty(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a b c\n")
        (tmp_path / "ref.txt").write_text("a b c\n")
        (tmp_path / "src.txt").write_text("a b c d e\n")
        rc = main(
            [
                "eval",
                "--hyp",
                str(tmp_path / "hyp.txt"),
                "--ref",
                str(tmp_path / "ref.txt"),
                "--source",
                str(tmp_path / "src.txt"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "novel" in out

    def test_misaligned_keywords_exit_2(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a\nb\n")
        (tmp_path / "ref.txt").write_text("a\nb\n")
        (tmp_path / "kw.txt").write_text("a\n")
        rc = main(
            [
                "eval",
                "--hyp",
                str(tmp_path / "hyp.txt"),
                "--ref",
                str(tmp_path / "ref.txt"),
                "--keywords",
                str(tmp_path / "kw.txt"),
            ]
        )
        assert rc == EXIT_CONFIG

    def test_missing_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "hyp.txt").write_text("a\n")
        rc = main(
            ["eval", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "no.txt")]
        )
        assert rc == EXIT_CONFIG
        assert "cannot read reference file" in capsys.readouterr().err


def quadratic_setup(seed: int, dtype: str):
    rng = np.random.default_rng(seed)
    arrays = {"w": rng.normal(size=4)}

    def build_loss(leaves):
        return reduce_sum(multiply(leaves["w"], leaves["w"]))

    return build_loss, arrays


class TestGradcheckCommand:
    def test_default_tiny_config_passes(self, capsys):
        rc = main(["gradcheck"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "PASS" in out
        assert "seed 0" in out

    def test_seed_reproduces_report_exactly(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_gradcheck_setup", quadratic_setup)
        assert main(["gradcheck", "--seed", "5"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["gradcheck", "--seed", "5"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        assert main(["gradcheck", "--seed", "6"]) == EXIT_OK
        other = capsys.readouterr().out
        assert other != first

    def test_float32_warns_and_relaxes_tolerance(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_gradcheck_setup", quadratic_setup)
        rc = main(["gradcheck", "--dtype", "float32"])
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert "tolerance relaxed to 1e-2" in captured.err
        assert "1.0e-02" in captured.out

    def test_explicit_tolerance_suppresses_relaxation(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_gradcheck_setup", quadratic_setup)
        rc = main(["gradcheck", "--dtype", "float32", "--tolerance", "1e-3"])
        captured = capsys.readouterr()
        assert "relaxed" not in captured.err
        assert "1.0e-03" in captured.out

    def test_failed_check_exits_numeric(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_gradcheck_setup", quadratic_setup)
        rc = main(["gradcheck", "--tolerance", "1e-18"])
        out = capsys.readouterr().out
        assert rc == EXIT_NUMERIC
        assert "FAIL" in out

    def test_bad_step_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_gradcheck_setup", quadratic_setup)
        rc = main(["gradcheck", "--step", "0.5"])
        assert rc == EXIT_CONFIG


def assert_help_lists_subcommands(proc):
    assert proc.returncode == 0
    for sub in ("train", "decode", "eval", "gradcheck"):
        assert sub in proc.stdout


class TestProcessLevel:
    def test_console_script_help(self):
        """The `seqlab` script that pyproject.toml declares, run as pip's wrapper runs it.

        The wrapper sets argv[0], imports the declared function and exits
        with its return value; doing the same here checks the declaration
        and this checkout's code without an install.
        """
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["seqlab"]
        module, func = entry.split(":")
        launcher = (
            "import sys\n"
            "sys.argv[0] = 'seqlab'\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c", launcher, "--help"],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert_help_lists_subcommands(proc)

    @pytest.mark.skipif(
        shutil.which("seqlab") is None,
        reason="no `seqlab` console script on PATH; `pip install -e .` writes it",
    )
    def test_installed_console_script_help(self):
        proc = subprocess.run(
            [shutil.which("seqlab"), "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert_help_lists_subcommands(proc)

    def test_log_env_var_controls_verbosity(self, tmp_path):
        (tmp_path / "hyp.txt").write_text("a\n")
        (tmp_path / "ref.txt").write_text("a\n")
        report = tmp_path / "report.jsonl"
        argv = [
            sys.executable,
            "-m",
            "seqlab.cli",
            "eval",
            "--hyp",
            str(tmp_path / "hyp.txt"),
            "--ref",
            str(tmp_path / "ref.txt"),
            "--report",
            str(report),
        ]
        quiet = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        assert quiet.returncode == 0
        assert "INFO" not in quiet.stderr

        env = dict(os.environ, SEQLAB_LOG="info")
        loud = subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)
        assert loud.returncode == 0
        assert "INFO seqlab.cli" in loud.stderr
        assert "wrote per-example report" in loud.stderr

    def test_unknown_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "seqlab.cli", "frobnicate"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
