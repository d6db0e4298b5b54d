"""The benchmark tracer finds a wrap point for every per-layer metric.

`bench/tracer.py` wraps seqlab functions by module attribute name.  When a
name it wraps is gone, the tracer leaves out the metrics that depend on it
and the traced run still exits 0, so a rename in seqlab would silently drop
benchmark metrics.  This test turns such a rename into a failure that names
the metrics.
"""

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
