"""The benchmark tracer finds a wrap point for every per-layer metric.

`bench/tracer.py` wraps seqlab functions by module attribute name.  When a
name it wraps is gone, the tracer leaves out the metrics that depend on it
and the traced run still exits 0, so a rename in seqlab would silently drop
benchmark metrics.  This test turns such a rename into a failure that names
the metrics.
"""

from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_per_layer_metric_has_a_wrap_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    with tracer.traced(tracer.Tracer("x"), 16) as installed:
        missing = sorted(
            metric for metric, spans in tracer.NEEDS.items() if not installed.intersection(spans)
        )
    assert not missing, f"no wrap point installed for: {missing}"


def test_traced_forward_loss_opens_a_span_for_every_lstm_layer(monkeypatch):
    """The tracer names each `lstm_step` span by layer from its caller, so a
    teacher-forced loss must reach every encoder and decoder layer through
    `lstm_step`, inside `encode` and `decode_step`: one call per layer, both
    directions of an encoder layer included.  Attention is one
    `attention_step` call per `decode_step`."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    from conftest import tiny_batch, tiny_config
    from seqlab import model
    from seqlab.sharing import single_task_params

    cfg = tiny_config(emb_dim=4)  # unlike the hidden width, so D1 and D2 differ
    params = single_task_params(cfg, seed=1)
    batch, _ = tiny_batch()
    recorder = tracer.Tracer("x")
    with tracer.traced(recorder, cfg.emb_dim):
        model.forward_loss(params.groups, cfg, batch)
    spans = Counter(s.name for s in recorder.spans)
    layers = {k: n for k, n in spans.items() if k[-2:] in ("E1", "E2", "D1", "D2")}
    assert layers == {"model.fwd.E1": 1, "model.fwd.E2": 1, "model.fwd.D1": 1, "model.fwd.D2": 1}
    assert spans["model.fwd.Attn"] == spans["model.decode_step"] == 1


def test_traced_beam_search_counts_encodes_and_live_rows(monkeypatch):
    """The tracer reads `decoding.rows_per_step` from each `decode_step`'s
    positional arguments.  A traced beam search over two chunks must open one
    `model.encode` span per chunk, and give each `decoding.decode_step` span
    the rows that step ran: on a chunk's first step, one per source."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer
    from conftest import tiny_config, tiny_examples
    from seqlab import decoding
    from seqlab.sharing import single_task_params

    cfg = tiny_config()
    params = single_task_params(cfg, seed=1).groups
    beam = 4
    per_chunk = decoding.ROW_BUDGET // beam
    examples = tiny_examples(per_chunk + 1, seed=3)
    rows = []
    real_step = decoding.decode_step

    def counting_step(ctx, state, ids):
        rows.append(len(ids))
        return real_step(ctx, state, ids)

    monkeypatch.setattr(decoding, "decode_step", counting_step)
    recorder = tracer.Tracer("x")
    with tracer.traced(recorder, cfg.emb_dim) as installed:
        decoding.beam_search(params, cfg, examples, beam=beam, max_len=6)
    chunks = []
    for span in recorder.spans:
        if span.name == "model.encode":
            chunks.append([])
        elif span.name == "decoding.decode_step":
            chunks[-1].append(span.attrs["rows"])
    assert [c[0] for c in chunks] == [per_chunk, 1]
    assert [r for c in chunks for r in c] == rows
    metrics, _, _ = tracer.analyze(recorder.spans, len(examples), installed)
    assert metrics["decoding.decode_steps"] == len(rows) / len(examples)
    assert metrics["decoding.rows_per_step"] == sum(rows) / len(rows)
