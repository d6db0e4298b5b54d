"""Pointer-generator sequence-to-sequence model with coverage attention.

Architecture, end to end:

* embeddings shared between encoder and decoder within a task (tag ``Emb``);
* a two-layer bidirectional LSTM encoder (tags ``E1``, ``E2``), where the
  second layer consumes the concatenated forward/backward outputs of the
  first and its own concatenated outputs form the attention memory;
* a two-layer unidirectional LSTM decoder (tags ``D1``, ``D2``) whose
  layers start from linear projections of the matching encoder layer's
  final forward+backward states;
* additive attention over encoder states with an optional coverage term
  (tag ``Attn``), where coverage is the running sum of past attention;
* a two-layer output projection from [decoder state; context] to the
  vocabulary softmax (tag ``Out``);
* a scalar generate-vs-copy gate from context, decoder state, and the
  current input embedding (tag ``Ptr``), mixing the vocabulary softmax
  with attention mass scattered onto extended (source OOV) ids.

Every function takes parameters as a mapping ``tag -> name -> Tensor`` so a
sharing registry can alias or duplicate groups without the model noticing.
Padded source positions receive an additive -1e9 score penalty, which the
max-shifted softmax turns into exactly zero attention.

The per-step coverage penalty is sum_i min(attention_i, coverage_i); both
it and the token negative log-likelihood are averaged over real decoder
steps per example, then over the batch.  Whether coverage (feature, loss
term and decoding state) is on is ``ModelConfig.use_coverage`` of the
config a call receives, and nothing else.

There is one decoder.  `encode` runs the encoder and returns the
`DecodeContext` that the decoder reads, with its start state; every LSTM
layer, encoder or decoder, is one `lstm_step` call, and an encoder layer
runs both its directions in that one call.  `decode_step` runs any number
of steps from a state.  The decoder LSTMs read only the previous token and
the layer below, never the attention context, so ``D1``, ``D2``, the
attention query, attention itself, the output layers and the copy gate
each run once over [B, T, ...].  Attention is one `attention` op for all T
steps, called from `attention_step`: with coverage on, the op adds each
step's attention to the coverage the next step reads, and `attention_step`
returns the coverage after the last step, which travels on in the decoder
state.  Teacher forcing (`forward_loss`) is one `decode_step` over the
whole target, with the target mask so its LSTMs skip padded steps; beam
search and `score_sequence` call it one step at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import Batch, UNK_ID
from .errors import ContractError
from .tensor import (
    Tensor,
    add,
    attention,
    concat,
    gather,
    getitem,
    log,
    lstm,
    matmul,
    minimum,
    multiply,
    reduce_sum,
    scale,
    scatter_add,
    sigmoid,
    softmax,
    subtract,
    tensor,
)

TAGS = ("Emb", "E1", "E2", "Attn", "D1", "D2", "Out", "Ptr")
GATES = ("i", "f", "g", "o")  # order of the gate blocks in a fused LSTM array
# The LSTM cells of each tag, by array-name prefix.
CELLS = {"E1": ("fwd", "bwd"), "E2": ("fwd", "bwd"), "D1": ("cell",), "D2": ("cell",)}
MASK_PENALTY = -1e9

ParamGroup = Mapping[str, Tensor]
Params = Mapping[str, ParamGroup]


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    emb_dim: int = 32
    hidden: int = 64
    attn_dim: int | None = None
    use_pointer: bool = True
    use_coverage: bool = True
    dtype: str = "float64"

    def __post_init__(self):
        if self.vocab_size < 5:
            raise ContractError(f"vocab_size {self.vocab_size} below reserved ids + 1")
        if min(self.emb_dim, self.hidden) < 1:
            raise ContractError("emb_dim and hidden must be positive")
        if self.dtype not in ("float64", "float32"):
            raise ContractError(f"dtype must be float64 or float32, got {self.dtype!r}")

    @property
    def attention_dim(self) -> int:
        return self.attn_dim if self.attn_dim is not None else 2 * self.hidden

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32

    @classmethod
    def full_scale(cls, vocab_size: int = 50000, **overrides) -> "ModelConfig":
        """The large-corpus preset: 256 hidden units, 128-dim embeddings."""
        merged = dict(vocab_size=vocab_size, emb_dim=128, hidden=256)
        merged.update(overrides)
        return cls(**merged)


def _cell_shapes(tag: str, in_dim: int, hid: int) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for prefix in CELLS[tag]:
        shapes[f"{prefix}_w"] = (in_dim, 4 * hid)
        shapes[f"{prefix}_u"] = (hid, 4 * hid)
        shapes[f"{prefix}_b"] = (4 * hid,)
    return shapes


def param_shapes(cfg: ModelConfig) -> dict[str, dict[str, tuple[int, ...]]]:
    """Every parameter array, grouped by sharing tag."""
    d, h, a, v = cfg.emb_dim, cfg.hidden, cfg.attention_dim, cfg.vocab_size
    init = {
        "init_h_w": (2 * h, h),
        "init_h_b": (h,),
        "init_c_w": (2 * h, h),
        "init_c_b": (h,),
    }
    return {
        "Emb": {"table": (v, d)},
        "E1": _cell_shapes("E1", d, h),
        "E2": _cell_shapes("E2", 2 * h, h),
        "D1": _cell_shapes("D1", d, h) | init,
        "D2": _cell_shapes("D2", h, h) | dict(init),
        "Attn": {
            "enc_w": (2 * h, a),
            "dec_w": (h, a),
            "cov_w": (a,),
            "score_v": (a,),
            "bias": (a,),
        },
        "Out": {
            "mix_w": (3 * h, h),
            "mix_b": (h,),
            "vocab_w": (h, v),
            "vocab_b": (v,),
        },
        "Ptr": {
            "ctx_w": (2 * h, 1),
            "state_w": (h, 1),
            "emb_w": (d, 1),
            "bias": (1,),
        },
    }


def init_blocks(tag: str, shapes: Mapping[str, tuple[int, ...]]) -> list[tuple[str, tuple]]:
    """The blocks that initialisation fills, in the order it draws them.

    Each entry is (array name, index of the block).  An LSTM array is
    filled one gate block at a time, in the sorted order of the per-gate
    names of checkpoint version 1 (``fwd_bf``, ``fwd_bg``, ``fwd_bi``, ...),
    so a seed draws the same starting values as it did for that layout.
    Every other array is one block.
    """
    blocks: dict[str, tuple[str, tuple]] = {name: (name, (...,)) for name in shapes}
    for prefix in CELLS.get(tag, ()):
        for kind in "wub":
            name = f"{prefix}_{kind}"
            hid = shapes[name][-1] // 4
            del blocks[name]
            for k, gate in enumerate(GATES):
                blocks[name + gate] = (name, (..., slice(k * hid, (k + 1) * hid)))
    return [blocks[key] for key in sorted(blocks)]


def cell_weights(cell: ParamGroup, prefix: str) -> tuple[Tensor, Tensor, Tensor]:
    """One LSTM cell's fused (w, u, b) arrays."""
    return cell[f"{prefix}_w"], cell[f"{prefix}_u"], cell[f"{prefix}_b"]


def lstm_step(
    weights: tuple[Tensor, Tensor, Tensor],
    x: Tensor,
    h: Tensor,
    c: Tensor,
    keep: np.ndarray | None = None,
    back: tuple[Tensor, Tensor, Tensor] | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """One LSTM layer over every step of `x` [B, T, in] from (h, c).

    Returns (h after each step [B, T, h], final h, final c), where the final
    state is the one after the last step run.  `keep` [B, T] marks each
    row's real steps, which come first; only those run, and the state holds
    over the padded steps (see `lstm`).  With `back`, the weights of a
    second cell that runs each row's steps from its last down to step 0,
    the layer is bidirectional: (h, c) and every returned state are
    [..., 2h], the forward direction's half first, and the backward
    direction's final state is the one after step 0.
    """
    width = h.shape[-1]
    out = lstm(x, *weights, h, c, keep, back=back)
    ends = (x.shape[1] - 1,) if back is None else (x.shape[1] - 1, 0)
    hid = width // len(ends)

    def final(first: int) -> Tensor:
        """The state each direction ends in, from the column `first` of `out`."""
        parts = [
            getitem(out, (slice(None), end, slice(first + k * hid, first + (k + 1) * hid)))
            for k, end in enumerate(ends)
        ]
        return parts[0] if back is None else concat(parts)

    return getitem(out, (..., slice(None, width))), final(0), final(width)


def _init_state(group: ParamGroup, enc_h: Tensor, enc_c: Tensor) -> tuple[Tensor, Tensor]:
    h0 = add(matmul(enc_h, group["init_h_w"]), group["init_h_b"])
    c0 = add(matmul(enc_c, group["init_c_w"]), group["init_c_b"])
    return h0, c0


def mask_penalty(src_mask: np.ndarray, dt=np.float64) -> Tensor:
    """Additive score penalty: 0 on real tokens, -1e9 on padding."""
    return tensor(((1.0 - src_mask) * MASK_PENALTY).astype(dt))


def attention_query(attn: ParamGroup, dec_state: Tensor) -> Tensor:
    """The decoder-state feature of additive attention, for any leading shape."""
    return add(matmul(dec_state, attn["dec_w"]), attn["bias"])


def vocab_distribution(out: ParamGroup, dec_state: Tensor, context: Tensor) -> Tensor:
    """Vocabulary softmax from [decoder state; context], two affine layers."""
    mix = add(matmul(concat([dec_state, context]), out["mix_w"]), out["mix_b"])
    logits = add(matmul(mix, out["vocab_w"]), out["vocab_b"])
    return softmax(logits)


def generation_prob(ptr: ParamGroup, context: Tensor, dec_state: Tensor, prev_emb: Tensor) -> Tensor:
    """Probability of generating from the vocabulary rather than copying; [B, 1]."""
    z = add(
        add(matmul(context, ptr["ctx_w"]), matmul(dec_state, ptr["state_w"])),
        add(matmul(prev_emb, ptr["emb_w"]), ptr["bias"]),
    )
    return sigmoid(z)


def copy_distribution(alpha: Tensor, src_ext: np.ndarray, ext_size: int) -> Tensor:
    """Scatter attention mass onto extended token ids (duplicates add up).

    ``alpha`` is [B, ..., S] and ``src_ext`` [B, S]: every step of a row
    copies from that row's source.
    """
    lead = (src_ext.shape[0],) + (1,) * (len(alpha.shape) - 2)
    ids = np.broadcast_to(src_ext.reshape(lead + src_ext.shape[1:]), alpha.shape)
    return scatter_add(alpha, ids, ext_size)


def final_distribution(p_gen: Tensor, vocab_dist: Tensor, copy_dist: Tensor) -> Tensor:
    """Mix generation and copy distributions: p*P_vocab + (1-p)*P_copy.

    The vocabulary distribution is zero-padded up to the copy
    distribution's width, since extended ids can never be generated.
    """
    v = vocab_dist.shape[-1]
    e = copy_dist.shape[-1]
    if e < v:
        raise ContractError(f"final_distribution: extended size {e} below vocab {v}")
    if e > v:
        pad = tensor(np.zeros(vocab_dist.shape[:-1] + (e - v,), dtype=vocab_dist.dtype))
        vocab_dist = concat([vocab_dist, pad])
    stay = subtract(tensor(np.ones((1, 1), dtype=copy_dist.dtype)), p_gen)
    return add(multiply(vocab_dist, p_gen), multiply(copy_dist, stay))


DecoderState = tuple[Tensor, Tensor, Tensor, Tensor, Tensor | None]  # (h1, c1, h2, c2, coverage)


@dataclass
class DecodeContext:
    """What `encode` gives the decoder: everything fixed across its steps
    for one batch, and the state it starts from."""

    params: Params
    cfg: ModelConfig
    states: Tensor       # [B, S, 2h] second-layer encoder outputs
    enc_feat: Tensor     # [B, S, a] their attention projection
    penalty: Tensor      # [B, S] additive score mask
    src_ext: np.ndarray  # [B, S] source ids in the extended vocabulary
    ext_size: int
    init_state: DecoderState


def encode(params: Params, cfg: ModelConfig, batch: Batch) -> DecodeContext:
    """Run both encoder layers over the batch's sources; derive the decoder's
    start state, with zero coverage when coverage is on."""
    src_ids, src_mask = batch.src_ids, batch.src_mask
    if src_ids.ndim != 2:
        raise ContractError(f"encode: src_ids must be [batch, time], got {src_ids.shape}")
    bsz, steps = src_ids.shape
    if steps < 1 or not (src_mask.sum(axis=1) >= 1).all():
        raise ContractError("encode: every row needs at least one real token")
    zeros = tensor(np.zeros((bsz, 2 * cfg.hidden), dtype=cfg.np_dtype))

    def layer(cell: ParamGroup, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Both directions: outputs [B, S, 2h], final h and final c [B, 2h].
        Padded steps freeze the state, so each direction's final state
        belongs to its last (first, when reversed) real token."""
        fwd, bwd = cell_weights(cell, "fwd"), cell_weights(cell, "bwd")
        return lstm_step(fwd, x, zeros, zeros, src_mask, back=bwd)

    layer1, h1, c1 = layer(params["E1"], gather(params["Emb"]["table"], src_ids))
    states, h2, c2 = layer(params["E2"], layer1)
    init1 = _init_state(params["D1"], h1, c1)
    init2 = _init_state(params["D2"], h2, c2)
    coverage = tensor(np.zeros((bsz, steps), dtype=cfg.np_dtype)) if cfg.use_coverage else None
    return DecodeContext(
        params=params,
        cfg=cfg,
        states=states,
        enc_feat=matmul(states, params["Attn"]["enc_w"]),
        penalty=mask_penalty(src_mask, cfg.np_dtype),
        src_ext=batch.src_ext,
        ext_size=batch.ext_size(cfg.vocab_size) if cfg.use_pointer else cfg.vocab_size,
        init_state=(*init1, *init2, coverage),
    )


@dataclass
class StepOutput:
    """The decoder's outputs for every step it ran, [B, T, ...]."""

    alpha: Tensor
    context: Tensor
    vocab_dist: Tensor
    final_dist: Tensor
    p_gen: Tensor | None
    coverage: Tensor | None  # the coverage each step started from


def attention_step(
    ctx: DecodeContext, query: Tensor, coverage: Tensor | None
) -> tuple[Tensor, Tensor, Tensor | None, Tensor | None]:
    """Additive attention over the encoder states for every step of `query`.

    ``query`` [B, T, a] is `attention_query` of the decoder states, and the
    coverage starts from ``coverage`` [B, S], or is off when it is None.
    Returns (attention weights [B, T, S], context vectors [B, T, 2h], the
    coverage each step started from [B, T, S], the coverage after the last
    step [B, S]); the last two are None when coverage is off.  All T steps
    are one `attention` op.
    """
    attn = ctx.params["Attn"]
    src, width = ctx.states.shape[1:]
    out = attention(
        ctx.enc_feat, query, ctx.states, attn["cov_w"], attn["score_v"], ctx.penalty, coverage
    )
    alpha = getitem(out, (..., slice(None, src)))
    context = getitem(out, (..., slice(src, src + width)))
    if coverage is None:
        return alpha, context, None, None
    started = getitem(out, (..., slice(src + width, None)))
    last = (slice(None), -1)
    return alpha, context, started, add(getitem(started, last), getitem(alpha, last))


def decode_step(
    ctx: DecodeContext,
    state: DecoderState,
    input_ids: np.ndarray,
    keep: np.ndarray | None = None,
) -> tuple[StepOutput, DecoderState]:
    """Run the decoder over `input_ids` [B, T] from `state`.

    Returns the outputs of all T steps and the state after the last one,
    whose coverage (None when coverage is off) has each step's attention
    added.  ``input_ids`` must be in-vocabulary: callers map copied OOVs to
    the unknown id.  With ``keep`` [B, T], a 0/1 mask whose real steps come
    first in each row, ``D1`` and ``D2`` run only the real steps and hold
    their state over the padded ones (see `lstm`); attention, the output
    layers and the copy gate still run at every step.
    """
    params, cfg = ctx.params, ctx.cfg
    if input_ids.max(initial=0) >= cfg.vocab_size:
        raise ContractError("decode_step: input ids must be in-vocabulary")
    h1, c1, h2, c2, coverage = state
    emb = gather(params["Emb"]["table"], input_ids)                            # [B, T, d]
    out1, h1, c1 = lstm_step(cell_weights(params["D1"], "cell"), emb, h1, c1, keep)
    out2, h2, c2 = lstm_step(cell_weights(params["D2"], "cell"), out1, h2, c2, keep)  # [B, T, h]
    query = attention_query(params["Attn"], out2)
    alpha, context, started, coverage = attention_step(ctx, query, coverage)

    vocab_dist = vocab_distribution(params["Out"], out2, context)
    if cfg.use_pointer:
        p_gen = generation_prob(params["Ptr"], context, out2, emb)
        copy_dist = copy_distribution(alpha, ctx.src_ext, ctx.ext_size)
        final = final_distribution(p_gen, vocab_dist, copy_dist)
    else:
        if ctx.ext_size != cfg.vocab_size:
            raise ContractError("decode_step: extended ids need the pointer enabled")
        p_gen = None
        final = vocab_dist
    out = StepOutput(alpha, context, vocab_dist, final, p_gen, started)
    return out, (h1, c1, h2, c2, coverage)


@dataclass
class LossParts:
    nll: Tensor
    coverage: Tensor | None
    total: Tensor
    outputs: StepOutput  # every step at once, [B, T, ...]


def step_nll(final_dist: Tensor, gold_ids: np.ndarray) -> Tensor:
    """Log-likelihood of each gold token under the mixed distribution.

    ``final_dist`` is [..., W] and ``gold_ids`` holds one id for each of its
    rows, shaped like ``final_dist`` without the last axis.
    """
    width = final_dist.shape[-1]
    if gold_ids.shape != final_dist.shape[:-1]:
        raise ContractError(
            f"step_nll: gold ids {gold_ids.shape} do not match distribution {final_dist.shape}"
        )
    if gold_ids.min(initial=0) < 0 or gold_ids.max(initial=0) >= width:
        raise ContractError(
            f"step_nll: gold id outside distribution of width {width}"
        )
    onehot = (gold_ids[..., None] == np.arange(width)).astype(final_dist.dtype)
    return log(reduce_sum(multiply(final_dist, tensor(onehot)), axis=-1))


def forward_loss(
    params: Params,
    cfg: ModelConfig,
    batch: Batch,
    cov_weight: float = 1.0,
) -> LossParts:
    """Teacher-forced loss over a batch.

    One `decode_step` over the whole target, whose decoder LSTMs skip the
    padded steps: those weigh 0 in the loss and come after every real step,
    so nothing a real step computes reads them.  Coverage follows
    ``cfg.use_coverage`` alone; a caller that trains one task with coverage
    and another without passes each its own config.

    Token negative log-likelihood and the coverage penalty are both averaged
    over each example's real decoder steps, then over the batch; the total
    is ``nll + cov_weight * coverage``.
    """
    bsz = batch.size
    gold = batch.dec_out
    if not cfg.use_pointer:
        # Without a pointer the model can never emit extended ids: collapse
        # copied-OOV references back to the unknown token.
        gold = np.where(gold >= cfg.vocab_size, UNK_ID, gold)
    ctx = encode(params, cfg, batch)
    out, _ = decode_step(ctx, ctx.init_state, batch.dec_in, batch.dec_mask)

    # Each real step weighs 1 / (its example's real steps).
    weights = batch.dec_mask / batch.dec_mask.sum(axis=1, keepdims=True)
    weights = tensor(weights.astype(cfg.np_dtype))
    nll = scale(reduce_sum(multiply(step_nll(out.final_dist, gold), weights)), -1.0 / bsz)
    if cfg.use_coverage:
        overlap = reduce_sum(minimum(out.alpha, out.coverage), axis=-1)  # [B, T]
        cov = scale(reduce_sum(multiply(overlap, weights)), 1.0 / bsz)
        total = add(nll, scale(cov, cov_weight))
    else:
        cov = None
        total = nll
    return LossParts(nll, cov, total, out)
