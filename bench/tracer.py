"""Span tracing of seqlab's module boundaries, installed from outside.

`traced()` replaces module attributes at their call sites (for example
``seqlab.training.forward_loss``, which ``train`` looks up at call time)
with wrappers that record one span per call: name, start, end, parent span
and request id (the training step or the decoded source).  Spans stay in
memory; `analyze` turns one call's spans into per-layer metrics.  A wrap
point that a later version of seqlab no longer has is skipped, and the
metrics that depend on it are left out rather than failing the run.

Work the tracer does for itself (walking the tape, reading a file size)
runs on a paused clock, so it lands in no span's duration.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from stats import percentile

# Per-layer metrics: (name, unit, better).  Times are per training step on
# the train workloads and per decoded source on decode-beam4, except
# training.val_ms (per validation pass), the two percentile families, and
# checkpoint.save_mb (per write).
PER_LAYER = (
    ("tensor.backward_ms", "ms", "lower"),
    ("tensor.tape_nodes", "count", "lower"),
    ("tensor.tape_nodes.matmul", "count", "lower"),
    ("tensor.tape_nodes.add", "count", "lower"),
    ("tensor.tape_nodes.multiply", "count", "lower"),
    ("model.fwd.Emb_ms", "ms", "lower"),
    ("model.fwd.E1_ms", "ms", "lower"),
    ("model.fwd.E2_ms", "ms", "lower"),
    ("model.fwd.D1_ms", "ms", "lower"),
    ("model.fwd.D2_ms", "ms", "lower"),
    ("model.fwd.Attn_ms", "ms", "lower"),
    ("model.fwd.Out_ms", "ms", "lower"),
    ("model.fwd.Ptr_ms", "ms", "lower"),
    ("model.loss_ms", "ms", "lower"),
    ("model.glue_ms", "ms", "lower"),
    ("model.lstm_step_calls", "count", "lower"),
    ("sharing.penalty_ms", "ms", "lower"),
    ("training.step_ms.p50", "ms", "lower"),
    ("training.step_ms.p95", "ms", "lower"),
    ("training.step_ms.mean", "ms", "lower"),
    ("training.unattributed_ms", "ms", "lower"),
    ("training.clip_ms", "ms", "lower"),
    ("training.adam_ms", "ms", "lower"),
    ("training.val_ms", "ms", "lower"),
    ("data.batch_wait_ms", "ms", "lower"),
    ("data.src_fill", "ratio", "higher"),
    ("data.tgt_fill", "ratio", "higher"),
    ("data.encode_ms", "ms", "lower"),
    ("checkpoint.save_ms", "ms", "lower"),
    ("checkpoint.save_mb", "MB", "lower"),
    ("checkpoint.load_ms", "ms", "lower"),
    ("decoding.beam_ms.p50", "ms", "lower"),
    ("decoding.beam_ms.p95", "ms", "lower"),
    ("decoding.beam_self_ms", "ms", "lower"),
    ("decoding.decode_steps", "count", "lower"),
    ("decoding.rows_per_step", "count", "higher"),
    ("decoding.finished_frac", "ratio", "higher"),
    ("cli.decode_other_ms", "ms", "lower"),
    ("trace_overhead_pct", "%", "lower"),
)

# Counts that must repeat exactly between calls on the same inputs.
EXACT = (
    "tensor.tape_nodes",
    "tensor.tape_nodes.matmul",
    "tensor.tape_nodes.add",
    "tensor.tape_nodes.multiply",
    "model.lstm_step_calls",
    "decoding.decode_steps",
    "data.src_fill",
    "data.tgt_fill",
)

# tape_counts key -> metric
TAPE_KEYS = dict(zip(("nodes", "matmul", "add", "multiply"), EXACT[:4]))
LSTM_SPANS = ("model.fwd.E1", "model.fwd.E2", "model.fwd.D1", "model.fwd.D2", "model.lstm")

# (module, attribute at the call site, span name)
WRAP_POINTS = (
    ("seqlab.training", "encode_example", "data.encode"),
    ("seqlab.training", "batch_iterator", "data.batch"),
    ("seqlab.training", "forward_loss", "model.forward_loss"),
    ("seqlab.training", "backward", "tensor.backward"),
    ("seqlab.training", "clip_gradients", "training.clip"),
    ("seqlab.training", "adam_step", "training.adam"),
    ("seqlab.training", "validation_loss", "training.val"),
    ("seqlab.training", "save_checkpoint", "checkpoint.save"),
    ("seqlab.sharing", "ParamRegistry.penalty_graph", "sharing.penalty"),
    ("seqlab.sharing", "ParamRegistry.soft_penalty", "sharing.penalty"),
    ("seqlab.data", "make_batch", "data.make_batch"),
    ("seqlab.model", "encode", "model.encode"),
    ("seqlab.model", "gather", "model.fwd.Emb"),
    ("seqlab.model", "lstm_step", "model.lstm"),
    ("seqlab.model", "prepare_decoder", "model.fwd.Attn"),
    ("seqlab.model", "decode_step", "model.decode_step"),
    ("seqlab.model", "attention_step", "model.fwd.Attn"),
    ("seqlab.model", "vocab_distribution", "model.fwd.Out"),
    ("seqlab.model", "generation_prob", "model.fwd.Ptr"),
    ("seqlab.model", "copy_distribution", "model.fwd.Ptr"),
    ("seqlab.model", "final_distribution", "model.fwd.Ptr"),
    ("seqlab.decoding", "make_batch", "data.make_batch"),
    ("seqlab.decoding", "encode", "model.encode"),
    ("seqlab.decoding", "prepare_decoder", "model.fwd.Attn"),
    ("seqlab.decoding", "decode_step", "decoding.decode_step"),
    ("seqlab.cli", "cmd_decode", "cli.decode"),
    ("seqlab.cli", "load_checkpoint", "checkpoint.load"),
    ("seqlab.cli", "encode_source_only", "data.encode"),
    ("seqlab.cli", "beam_search", "decoding.beam"),
)

# Span name -> the per-unit time metric its self time adds to.
TIME_BUCKETS = {
    "tensor.backward": "tensor.backward_ms",
    "model.fwd.Emb": "model.fwd.Emb_ms",
    "model.fwd.E1": "model.fwd.E1_ms",
    "model.fwd.E2": "model.fwd.E2_ms",
    "model.fwd.D1": "model.fwd.D1_ms",
    "model.fwd.D2": "model.fwd.D2_ms",
    "model.fwd.Attn": "model.fwd.Attn_ms",
    "model.fwd.Out": "model.fwd.Out_ms",
    "model.fwd.Ptr": "model.fwd.Ptr_ms",
    "model.forward_loss": "model.loss_ms",
    "model.encode": "model.glue_ms",
    "model.decode_step": "model.glue_ms",
    "decoding.decode_step": "model.glue_ms",
    "model.lstm": "model.glue_ms",
    "sharing.penalty": "sharing.penalty_ms",
    "training.clip": "training.clip_ms",
    "training.adam": "training.adam_ms",
    "data.batch": "data.batch_wait_ms",
    "data.encode": "data.encode_ms",
    "checkpoint.save": "checkpoint.save_ms",
    "checkpoint.load": "checkpoint.load_ms",
    "cli.decode": "cli.decode_other_ms",
    "cli.main": "cli.decode_other_ms",
    "decoding.beam": "decoding.beam_self_ms",
}

# Metric -> span names of which at least one must be wrapped for it to exist.
NEEDS = {
    "tensor.backward_ms": ("tensor.backward",),
    **{k: ("tensor.backward",) for k in TAPE_KEYS.values()},
    "model.fwd.Emb_ms": ("model.fwd.Emb",),
    **{f"{s}_ms": ("model.lstm",) for s in LSTM_SPANS[:4]},
    "model.fwd.Attn_ms": ("model.fwd.Attn",),
    "model.fwd.Out_ms": ("model.fwd.Out",),
    "model.fwd.Ptr_ms": ("model.fwd.Ptr",),
    "model.loss_ms": ("model.forward_loss",),
    "model.glue_ms": ("model.encode", "model.decode_step", "decoding.decode_step"),
    "model.lstm_step_calls": ("model.lstm",),
    "sharing.penalty_ms": ("sharing.penalty",),
    "training.step_ms.p50": ("data.batch",),
    "training.step_ms.p95": ("data.batch",),
    "training.step_ms.mean": ("data.batch",),
    "training.unattributed_ms": ("data.batch",),
    "training.clip_ms": ("training.clip",),
    "training.adam_ms": ("training.adam",),
    "training.val_ms": ("training.val",),
    "data.batch_wait_ms": ("data.batch",),
    "data.src_fill": ("data.make_batch",),
    "data.tgt_fill": ("data.make_batch",),
    "data.encode_ms": ("data.encode",),
    "checkpoint.save_ms": ("checkpoint.save",),
    "checkpoint.save_mb": ("checkpoint.save",),
    "checkpoint.load_ms": ("checkpoint.load",),
    "decoding.beam_ms.p50": ("decoding.beam",),
    "decoding.beam_ms.p95": ("decoding.beam",),
    "decoding.beam_self_ms": ("decoding.beam",),
    "decoding.decode_steps": ("decoding.decode_step",),
    "decoding.rows_per_step": ("decoding.decode_step",),
    "decoding.finished_frac": ("decoding.beam",),
    "cli.decode_other_ms": ("cli.decode",),
}

# Step-scoped training spans that a step's wall time leaves out.
OUTSIDE_STEP = ("training.val", "checkpoint.save")
_HOOK_ERRORS = (AttributeError, TypeError, ValueError, IndexError, KeyError, OSError)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into the span list, -1 for a root
    request: int
    attrs: dict | None = None


class Tracer:
    """An in-memory span recorder with a clock that can be paused.

    Opening a span named `request_span` starts the next request id.
    """

    def __init__(self, request_span: str):
        self.request_span = request_span
        self.spans: list[Span] = []
        self.request = 0
        self._stack: list[int] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def open(self, name: str, attrs: dict | None = None) -> int:
        if name == self.request_span:
            self.request += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.now(), 0.0, parent, self.request, attrs))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.now()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextlib.contextmanager
    def paused(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._paused += time.perf_counter() - t0

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def take(self) -> list[Span]:
        """Hand over the recorded spans and start a fresh request count."""
        spans, self.spans, self.request = self.spans, [], 0
        return spans


# ---------------------------------------------------------------------------
# Wrappers


def _safe(hook, *args):
    try:
        return hook(*args)
    except _HOOK_ERRORS:
        return None


def tape_counts(root) -> dict:
    """Nodes with an op record reachable from `root`, in total and by op."""
    counts: Counter = Counter()
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        if node.op is not None:
            counts[node.op] += 1
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return {"nodes": sum(counts.values()), **counts}


def _fills(batch) -> dict:
    return {
        "src_real": float(batch.src_mask.sum()),
        "src_slots": batch.src_mask.size,
        "tgt_real": float(batch.dec_mask.sum()),
        "tgt_slots": batch.dec_mask.size,
    }


def _file_mb(path) -> dict:
    return {"mb": os.path.getsize(path) / 1e6}


def _lstm_namer(emb_dim: int):
    """Name an lstm_step span by layer: the caller tells encoder from
    decoder, and the input width tells the first layer (embeddings) from
    the second."""

    def name(tracer: Tracer, args) -> str:
        first = args[1].shape[-1] == emb_dim
        parent = tracer.parent_name()
        if parent == "model.encode":
            return "model.fwd.E1" if first else "model.fwd.E2"
        if parent in ("model.decode_step", "decoding.decode_step"):
            return "model.fwd.D1" if first else "model.fwd.D2"
        return "model.lstm"

    return name


def _wrap(tracer: Tracer, fn, name, before=None, after=None):
    def traced(*args, **kwargs):
        attrs = None
        if before is not None:
            with tracer.paused():
                attrs = _safe(before, *args)
        span_name = name if isinstance(name, str) else (_safe(name, tracer, args) or "model.lstm")
        idx = tracer.open(span_name, attrs)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            with tracer.paused():
                extra = _safe(after, out, *args)
                if extra:
                    span = tracer.spans[idx]
                    span.attrs = {**(span.attrs or {}), **extra}
        return out

    traced.__wrapped__ = fn
    return traced


_END = object()


def _wrap_batches(tracer: Tracer, fn):
    """Time each `next` on the batch iterator as one data.batch span."""

    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)

        def batches():
            while True:
                idx = tracer.open("data.batch")
                try:
                    batch = next(it, _END)
                finally:
                    tracer.close(idx)
                if batch is _END:
                    return
                yield batch

        return batches()

    traced.__wrapped__ = fn
    return traced


def _make_wrapper(tracer: Tracer, fn, name: str, emb_dim: int):
    if name == "data.batch":
        return _wrap_batches(tracer, fn)
    if name == "tensor.backward":
        return _wrap(tracer, fn, name, before=lambda root, *_: tape_counts(root))
    if name == "model.lstm":
        return _wrap(tracer, fn, _lstm_namer(emb_dim))
    if name in ("model.decode_step", "decoding.decode_step"):
        return _wrap(tracer, fn, name, before=lambda ctx, state, ids, *_: {"rows": len(ids)})
    if name == "data.make_batch":
        return _wrap(tracer, fn, name, after=lambda batch, *_: _fills(batch))
    if name == "checkpoint.save":
        return _wrap(tracer, fn, name, after=lambda out, path, *_: _file_mb(path))
    if name == "decoding.beam":
        return _wrap(tracer, fn, name, after=lambda hyps, *_: {"finished": bool(hyps[0].finished)})
    return _wrap(tracer, fn, name)


@contextlib.contextmanager
def traced(tracer: Tracer, emb_dim: int):
    """Install every wrap point that exists; yield the set of span names
    installed; restore the original attributes on exit."""
    restore = []
    installed: set[str] = set()
    try:
        for module_name, attr, name in WRAP_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                print(f"trace: {module_name}.{attr} not found; its metrics are omitted",
                      file=sys.stderr)
                continue
            setattr(owner, leaf, _make_wrapper(tracer, fn, name, emb_dim))
            restore.append((owner, leaf, fn))
            installed.add(name)
        yield installed
    finally:
        for owner, leaf, fn in reversed(restore):
            setattr(owner, leaf, fn)


# ---------------------------------------------------------------------------
# Analysis


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    count once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = [s.end - s.start for s in spans]
    for p, intervals in children.items():
        lo, hi = spans[p].start, spans[p].end
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(intervals):
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[p] -= covered
    return out


def _step_windows(spans: list[Span]) -> list[tuple[float, float]]:
    """Per training step: (wall time, time attributed to traced spans), in
    seconds.  A step runs from its batch fetch to the next one (or the end
    of the call), less its validation pass and checkpoint write."""
    root = next(i for i, s in enumerate(spans) if s.parent < 0)
    top = [s for s in spans if s.parent == root]
    batches = [s for s in top if s.name == "data.batch"]
    by_step = defaultdict(list)
    for s in top:
        by_step[s.request].append(s)
    out = []
    for k, b in enumerate(batches):
        end = batches[k + 1].start if k + 1 < len(batches) else spans[root].end
        outside = sum(s.end - s.start for s in by_step[b.request] if s.name in OUTSIDE_STEP)
        inside = sum(s.end - s.start for s in by_step[b.request] if s.name not in OUTSIDE_STEP)
        out.append((end - b.start - outside, inside))
    return out


def analyze(spans: list[Span], units: int, installed: set[str]) -> tuple[dict, list, list]:
    """Per-layer metrics of one traced call over `units` steps or sources.

    Spans inside a validation pass count only towards training.val_ms.
    Returns (metrics, step wall times in ms, beam times in ms).
    """
    selfs = self_times(spans)
    in_val = [False] * len(spans)
    for i, s in enumerate(spans):
        in_val[i] = s.name == "training.val" or (s.parent >= 0 and in_val[s.parent])

    ms = defaultdict(float)
    counts = Counter()
    fills = Counter()
    val_ms, beam_ms, save_mb, rows, finished = [], [], [], [], []
    for i, s in enumerate(spans):
        if s.name == "training.val":
            val_ms.append((s.end - s.start) * 1e3)
        if in_val[i]:
            continue
        parent = spans[s.parent].name if s.parent >= 0 else None
        bucket = TIME_BUCKETS.get(s.name)
        if s.name == "data.make_batch":
            bucket = "data.batch_wait_ms" if parent == "data.batch" else "data.encode_ms"
        if bucket is not None:
            ms[bucket] += selfs[i] * 1e3
        attrs = s.attrs or {}
        if s.name in LSTM_SPANS:
            counts["model.lstm_step_calls"] += 1
        elif s.name == "tensor.backward" and "nodes" in attrs:
            for op, key in TAPE_KEYS.items():
                counts[key] += attrs.get(op, 0)
        elif s.name == "decoding.decode_step":
            counts["decoding.decode_steps"] += 1
            if "rows" in attrs:
                rows.append(attrs["rows"])
        elif s.name == "data.make_batch" and "src_slots" in attrs:
            fills.update(attrs)
        elif s.name == "checkpoint.save" and "mb" in attrs:
            save_mb.append(attrs["mb"])
        elif s.name == "decoding.beam":
            beam_ms.append((s.end - s.start) * 1e3)
            if "finished" in attrs:
                finished.append(attrs["finished"])

    metrics = {name: ms[name] / units for name in set(TIME_BUCKETS.values())}
    metrics.update({name: counts[name] / units for name in (
        "model.lstm_step_calls", "decoding.decode_steps")})
    backward = [s for s in spans if s.name == "tensor.backward"]
    if all(s.attrs and "nodes" in s.attrs for s in backward):
        metrics.update({key: counts[key] / units for key in TAPE_KEYS.values()})
    metrics["data.src_fill"] = fills["src_real"] / fills["src_slots"] if fills["src_slots"] else 0.0
    metrics["data.tgt_fill"] = fills["tgt_real"] / fills["tgt_slots"] if fills["tgt_slots"] else 0.0
    metrics["checkpoint.save_mb"] = sum(save_mb) / len(save_mb) if save_mb else 0.0
    metrics["training.val_ms"] = sum(val_ms) / len(val_ms) if val_ms else 0.0
    metrics["decoding.rows_per_step"] = sum(rows) / len(rows) if rows else 0.0
    metrics["decoding.finished_frac"] = sum(finished) / len(finished) if finished else 0.0

    steps_ms = []
    unattributed = 0.0
    if any(s.name == "data.batch" for s in spans):
        for wall, inside in _step_windows(spans):
            steps_ms.append(wall * 1e3)
            unattributed += (wall - inside) * 1e3
        metrics["training.step_ms.mean"] = sum(steps_ms) / len(steps_ms)
        metrics["training.unattributed_ms"] = unattributed / len(steps_ms)
    else:
        metrics["training.step_ms.mean"] = metrics["training.unattributed_ms"] = 0.0

    metrics = {
        k: v for k, v in metrics.items() if any(n in installed for n in NEEDS[k])
    }
    return metrics, steps_ms, beam_ms


def combine(
    per_call: list[dict], steps_ms: list, beam_ms: list, installed: set[str]
) -> tuple[dict, list[str]]:
    """Average per-call metrics over calls, add the percentile families, and
    list the exact counts that did not repeat between calls."""
    names = set.intersection(*(set(m) for m in per_call))
    out = {k: sum(m[k] for m in per_call) / len(per_call) for k in names}
    unstable = sorted(k for k in EXACT if k in names and len({m[k] for m in per_call}) > 1)
    for prefix, samples, needs in (
        ("training.step_ms", steps_ms, "data.batch"),
        ("decoding.beam_ms", beam_ms, "decoding.beam"),
    ):
        if needs in installed:
            out[f"{prefix}.p50"] = percentile(samples, "50") if samples else 0.0
            out[f"{prefix}.p95"] = percentile(samples, "95") if samples else 0.0
    return out, unstable
