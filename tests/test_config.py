"""Run-configuration parsing: strictness, defaults, and echo round-trips."""

import dataclasses
import json

import pytest

from seqlab.config import (
    DecodeConfig,
    EvalConfig,
    RunConfig,
    TaskDef,
    load_run_config,
    parse_run_config,
)
from seqlab.errors import ConfigError, ContractError
from seqlab.sharing import TAGS, Mode, SharingPlan


def minimal_dict(**overrides):
    base = {
        "model": {"vocab_size": 12, "emb_dim": 4, "hidden": 4},
        "tasks": [
            {"name": "copy", "train_path": "t.jsonl", "val_path": "v.jsonl", "vocab_size": 12}
        ],
    }
    base.update(overrides)
    return base


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_run_config(minimal_dict())
        assert cfg.seed == 0
        assert cfg.out_dir == "run"
        assert cfg.decode == DecodeConfig(beam=4, max_len=20, min_len=0)
        assert cfg.eval == EvalConfig(per_example=True)
        assert cfg.plan == SharingPlan.solo()
        assert cfg.train.ratios == (1,)
        assert cfg.model.vocab_size == 12

    def test_default_beam_is_four(self):
        assert DecodeConfig().beam == 4

    def test_train_seed_inherits_top_level_seed(self):
        cfg = parse_run_config(minimal_dict(seed=17))
        assert cfg.seed == 17
        assert cfg.train.seed == 17

    def test_explicit_train_seed_wins(self):
        cfg = parse_run_config(minimal_dict(seed=17, train={"seed": 3}))
        assert cfg.seed == 17
        assert cfg.train.seed == 3

    def test_ratios_default_to_uniform(self):
        d = minimal_dict()
        d["tasks"].append(
            {"name": "kw", "train_path": "a", "val_path": "b", "vocab_size": 12}
        )
        cfg = parse_run_config(d)
        assert cfg.train.ratios == (1, 1)

    def test_preset_plan(self):
        cfg = parse_run_config(
            minimal_dict(plan={"preset": "final", "gamma": 1e-5})
        )
        assert cfg.plan.modes["E2"] is Mode.SOFT
        assert cfg.plan.modes["Attn"] is Mode.SOFT
        assert cfg.plan.modes["D1"] is Mode.SOFT
        assert cfg.plan.modes["Emb"] is Mode.PRIVATE
        assert cfg.plan.gamma == 1e-5

    def test_hard_preset_plan(self):
        cfg = parse_run_config(
            minimal_dict(plan={"preset": "final", "gamma": 0.0, "hard": True})
        )
        assert cfg.plan.modes["E2"] is Mode.HARD

    def test_explicit_modes_plan(self):
        cfg = parse_run_config(
            minimal_dict(plan={"modes": {"Emb": "hard", "D2": "soft"}, "gamma": 0.5})
        )
        assert cfg.plan.modes["Emb"] is Mode.HARD
        assert cfg.plan.modes["D2"] is Mode.SOFT
        assert cfg.plan.modes["E1"] is Mode.PRIVATE

    def test_plan_form_l2(self):
        cfg = parse_run_config(
            minimal_dict(plan={"preset": "final", "gamma": 1.0, "form": "l2"})
        )
        assert cfg.plan.form == "l2"


class TestStrictness:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key 'shenanigans' in config"):
            parse_run_config(minimal_dict(shenanigans=1))

    def test_unknown_model_key(self):
        d = minimal_dict()
        d["model"]["layers"] = 3
        with pytest.raises(ConfigError, match="unknown key 'layers' in model"):
            parse_run_config(d)

    def test_unknown_train_key(self):
        with pytest.raises(ConfigError, match="unknown key 'momentum' in train"):
            parse_run_config(minimal_dict(train={"momentum": 0.9}))

    def test_unknown_decode_key(self):
        with pytest.raises(ConfigError, match="unknown key 'temperature' in decode"):
            parse_run_config(minimal_dict(decode={"temperature": 1.0}))

    def test_unknown_eval_key(self):
        with pytest.raises(ConfigError, match="unknown key 'bleu' in eval"):
            parse_run_config(minimal_dict(eval={"bleu": True}))

    def test_unknown_task_key(self):
        d = minimal_dict()
        d["tasks"][0]["priority"] = 2
        with pytest.raises(ConfigError, match=r"unknown key 'priority' in tasks\[0\]"):
            parse_run_config(d)

    def test_unknown_plan_key(self):
        with pytest.raises(ConfigError, match="unknown key 'alpha' in plan"):
            parse_run_config(minimal_dict(plan={"preset": "final", "alpha": 1}))

    def test_unknown_plan_mode_tag(self):
        with pytest.raises(ConfigError, match="unknown key 'Bogus' in plan.modes"):
            parse_run_config(minimal_dict(plan={"modes": {"Bogus": "soft"}}))

    def test_unknown_mode_value(self):
        with pytest.raises(ConfigError, match="plan.modes.E2: unknown mode 'fuzzy'"):
            parse_run_config(minimal_dict(plan={"modes": {"E2": "fuzzy"}}))

    def test_preset_and_modes_both_rejected(self):
        with pytest.raises(ConfigError, match="exactly one of 'preset' or 'modes'"):
            parse_run_config(
                minimal_dict(plan={"preset": "final", "modes": {"E2": "soft"}})
            )

    def test_neither_preset_nor_modes_rejected(self):
        with pytest.raises(ConfigError, match="exactly one of 'preset' or 'modes'"):
            parse_run_config(minimal_dict(plan={"gamma": 1.0}))

    def test_unknown_preset_name(self):
        with pytest.raises(ConfigError, match="plan.preset must be one of"):
            parse_run_config(minimal_dict(plan={"preset": "everything"}))

    def test_hard_flag_requires_preset(self):
        with pytest.raises(ConfigError, match="plan.hard is only valid with plan.preset"):
            parse_run_config(minimal_dict(plan={"modes": {"E2": "soft"}, "hard": True}))


class TestValidation:
    def test_missing_model_section(self):
        d = minimal_dict()
        del d["model"]
        with pytest.raises(ConfigError, match="missing required section 'model'"):
            parse_run_config(d)

    def test_missing_tasks(self):
        d = minimal_dict()
        del d["tasks"]
        with pytest.raises(ConfigError, match="tasks must be a non-empty list"):
            parse_run_config(d)

    def test_empty_tasks(self):
        with pytest.raises(ConfigError, match="tasks must be a non-empty list"):
            parse_run_config(minimal_dict(tasks=[]))

    def test_duplicate_task_names(self):
        d = minimal_dict()
        d["tasks"] = [d["tasks"][0], dict(d["tasks"][0])]
        with pytest.raises(ConfigError, match="duplicate task names"):
            parse_run_config(d)

    def test_task_needs_exactly_one_vocab_source(self):
        d = minimal_dict()
        del d["tasks"][0]["vocab_size"]
        with pytest.raises(ConfigError, match="exactly one of vocab_path or vocab_size"):
            parse_run_config(d)
        d["tasks"][0]["vocab_size"] = 12
        d["tasks"][0]["vocab_path"] = "v.txt"
        with pytest.raises(ConfigError, match="exactly one of vocab_path or vocab_size"):
            parse_run_config(d)

    def test_tiny_vocab_size_rejected(self):
        d = minimal_dict()
        d["tasks"][0]["vocab_size"] = 4
        with pytest.raises(ConfigError, match="vocab_size must be >= 5"):
            parse_run_config(d)

    def test_ratio_count_must_match_tasks(self):
        with pytest.raises(ConfigError, match="train.ratios has 2 entries for 1 tasks"):
            parse_run_config(minimal_dict(train={"ratios": [1, 1]}))

    def test_ratios_must_be_integers(self):
        with pytest.raises(ConfigError, match="train.ratios must be a list of integers"):
            parse_run_config(minimal_dict(train={"ratios": [0.5]}))

    def test_bad_seed_type(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            parse_run_config(minimal_dict(seed="zero"))
        with pytest.raises(ConfigError, match="seed must be an integer"):
            parse_run_config(minimal_dict(seed=True))

    def test_bad_out_dir(self):
        with pytest.raises(ConfigError, match="out_dir must be a non-empty string"):
            parse_run_config(minimal_dict(out_dir=""))

    def test_train_field_validation_is_prefixed(self):
        with pytest.raises(ConfigError, match="train: warm_fraction must be in"):
            parse_run_config(minimal_dict(train={"warm_fraction": 1.5}))

    def test_coverage_mode_off_points_to_model_switch(self):
        with pytest.raises(ConfigError, match="train: coverage_mode .* set model.use_coverage to false"):
            parse_run_config(minimal_dict(train={"coverage_mode": "off"}))

    def test_model_field_validation_is_prefixed(self):
        d = minimal_dict()
        d["model"]["vocab_size"] = 2
        with pytest.raises(ConfigError, match="model: vocab_size"):
            parse_run_config(d)

    def test_decode_validation(self):
        with pytest.raises(ConfigError, match="decode.min_len must be in"):
            parse_run_config(minimal_dict(decode={"max_len": 3, "min_len": 5}))
        with pytest.raises(ConfigError, match="decode.beam must be >= 1"):
            parse_run_config(minimal_dict(decode={"beam": 0}))

    def test_non_mapping_sections_rejected(self):
        with pytest.raises(ConfigError, match="model must be an object"):
            parse_run_config(minimal_dict(model=[1, 2]))
        with pytest.raises(ConfigError, match=r"tasks\[0\] must be an object"):
            parse_run_config(minimal_dict(tasks=["copy"]))

    def test_direct_taskdef_validation(self):
        with pytest.raises(ContractError, match="task name must be non-empty"):
            TaskDef(name="", train_path="a", val_path="b", vocab_size=10)


class TestRoundTrip:
    def full_config(self):
        return parse_run_config(
            {
                "seed": 5,
                "out_dir": "runs/exp",
                "model": {"vocab_size": 12, "emb_dim": 4, "hidden": 4},
                "plan": {"preset": "final", "gamma": 1e-5, "form": "squared"},
                "train": {
                    "ratios": [4, 3],
                    "lr": 5e-4,
                    "max_steps": 100,
                    "coverage_mode": "phased",
                    "warm_fraction": 0.9,
                },
                "decode": {"beam": 6, "max_len": 10, "min_len": 2},
                "eval": {"per_example": False},
                "tasks": [
                    {
                        "name": "copy-oov",
                        "train_path": "a.jsonl",
                        "val_path": "b.jsonl",
                        "test_path": "c.jsonl",
                        "vocab_size": 12,
                        "warm_run": "runs/base",
                    },
                    {
                        "name": "kw",
                        "train_path": "d.jsonl",
                        "val_path": "e.jsonl",
                        "vocab_path": "vocab.txt",
                    },
                ],
            }
        )

    def test_to_dict_reparses_equal(self):
        cfg = self.full_config()
        assert parse_run_config(cfg.to_dict()) == cfg

    def test_plan_echo_is_the_plan_description(self):
        cfg = self.full_config()
        assert cfg.to_dict()["plan"] == cfg.plan.describe()
        assert list(cfg.to_dict()["plan"]["modes"]) == list(TAGS)

    def test_minimal_roundtrip(self):
        cfg = parse_run_config(minimal_dict())
        assert parse_run_config(cfg.to_dict()) == cfg

    def test_to_dict_is_json_serializable(self):
        blob = json.dumps(self.full_config().to_dict())
        assert parse_run_config(json.loads(blob)) == self.full_config()

    def test_save_and_load_file(self, tmp_path):
        cfg = self.full_config()
        path = tmp_path / "config.json"
        cfg.save(path)
        assert load_run_config(path) == cfg

    def test_modes_plan_roundtrip(self):
        cfg = parse_run_config(
            minimal_dict(plan={"modes": {"Emb": "hard", "Out": "soft"}, "gamma": 2.0})
        )
        again = parse_run_config(cfg.to_dict())
        assert again.plan == cfg.plan

    def test_replace_keeps_validity(self):
        cfg = parse_run_config(minimal_dict())
        moved = dataclasses.replace(cfg, out_dir="elsewhere")
        assert moved.out_dir == "elsewhere"
        assert parse_run_config(moved.to_dict()) == moved


class TestFileLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_run_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(path)

    def test_valid_file(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(minimal_dict()))
        cfg = load_run_config(path)
        assert cfg.tasks[0].name == "copy"
