"""Tests of the benchmark itself: python3 -m pytest bench"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def spec():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# Self time


def test_self_time_subtracts_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 6.0, 0, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),     # overlaps a: together they cover 1..6
        Span("c", 9.0, 12.0, 0, 0),    # runs past the root: only 9..10 counts
    ]
    assert tracer.self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 3.0, 3.0, 3.0])


def test_step_accounting_leaves_out_validation_and_checkpoint():
    spans = [
        Span("training.train", 0.0, 100.0, -1, 0),
        Span("data.batch", 0.0, 1.0, 0, 1),
        Span("model.forward_loss", 1.0, 5.0, 0, 1),
        Span("training.val", 5.0, 20.0, 0, 1),
        Span("data.batch", 20.0, 21.0, 0, 2),
        Span("tensor.backward", 21.0, 30.0, 0, 2),
        Span("checkpoint.save", 30.0, 40.0, 0, 2),
    ]
    # step 1: 0..20 less the 15 of validation; step 2: 20..100 less 10 of saving
    assert tracer._step_windows(spans) == pytest.approx([(5.0, 5.0), (70.0, 10.0)])
    metrics, steps_ms, _ = tracer.analyze(
        spans, units=2, installed={"data.batch", "tensor.backward", "training.val"}
    )
    assert steps_ms == pytest.approx([5e3, 70e3])
    assert metrics["training.unattributed_ms"] == pytest.approx(30e3)
    assert metrics["training.val_ms"] == pytest.approx(15e3)
    assert metrics["tensor.backward_ms"] == pytest.approx(4.5e3)
    assert "model.loss_ms" not in metrics  # forward_loss was not wrapped


# ---------------------------------------------------------------------------
# Percentiles


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (19, None), (20, "50"), (99, "50"), (100, "90"), (199, "90"),
     (200, "95"), (999, "95"), (1000, "99"), (10000, "99.9")],
)
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    assert stats.tail_percentile(n) == expected


def test_nearest_rank_percentile_and_summary():
    values = list(range(1, 21))
    assert stats.percentile(values, "50") == 10
    assert stats.percentile(values, "95") == 19
    assert sum(v > stats.percentile(values, "50") for v in values) == 10
    s = stats.summarize(values)
    assert (s["median"], s["n"], s["p50"]) == (10.5, 20, 10)
    assert s["q1"] < s["median"] < s["q3"]
    assert "p50" not in stats.summarize(values[:19])


# ---------------------------------------------------------------------------
# Metric names and the benchmark definition


def test_metric_names_and_counts():
    bench = spec()
    e2e, layer = bench["end_to_end"], bench["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = [m["name"] for m in e2e + layer]
    assert len(names) == len(set(names))
    for m in e2e + layer:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
    assert [(m["name"], m["unit"], m["better"]) for m in e2e] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in layer] == list(tracer.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOAD_NAMES)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in e2e) <= 0.25


def test_every_computed_metric_is_declared():
    declared = {name for name, _, _ in tracer.PER_LAYER}
    assert set(tracer.NEEDS) <= declared
    assert set(tracer.TIME_BUCKETS.values()) <= declared
    assert set(tracer.EXACT) <= declared


# ---------------------------------------------------------------------------
# Wrapping


def test_missing_wrap_point_is_skipped_and_originals_restored(monkeypatch):
    import seqlab.model as model

    original = model.lstm_step
    points = tuple(p for p in tracer.WRAP_POINTS if p[1] != "lstm_step")
    monkeypatch.setattr(tracer, "WRAP_POINTS", points + (("seqlab.model", "gone", "model.lstm"),))
    t = tracer.Tracer("data.batch")
    with tracer.traced(t, emb_dim=8) as installed:
        assert "model.lstm" not in installed
        assert model.lstm_step is original
        assert model.decode_step is not original and hasattr(model.decode_step, "__wrapped__")
    assert not hasattr(model.decode_step, "__wrapped__")
    spans = [Span("cli.main", 0.0, 1.0, -1, 0)]
    metrics, _, _ = tracer.analyze(spans, 1, installed)
    assert "model.fwd.E1_ms" not in metrics and "model.lstm_step_calls" not in metrics
    assert metrics["model.fwd.Attn_ms"] == 0.0


def test_tape_counts_walks_each_node_once():
    from seqlab.tensor import add, matmul, tensor

    import numpy as np

    a = tensor(np.ones((2, 2)))
    b = matmul(a, a)
    root = add(b, b)
    assert tracer.tape_counts(root) == {"nodes": 2, "matmul": 1, "add": 1}


def test_paused_time_is_left_out_of_spans():
    t = tracer.Tracer("x")
    outer = t.open("outer")
    with t.paused():
        time.sleep(0.05)
    t.close(outer)
    span = t.take()[0]
    assert span.end - span.start < 0.01
