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
steps per example, then over the batch.

Under teacher forcing (`forward_loss`) the decoder LSTMs read only the gold
previous token and the layer below, never the attention context, so ``D1``
and ``D2`` each run once over the whole target, as the encoder layers do,
and the attention query, output layers, copy gate and loss each run once
over [B, T, ...].  Only attention steps one position at a time, because
coverage feeds each step's attention into the next.  Decoding
(`decode_step`) calls the same functions on one step at a time.
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
    concat,
    gather,
    getitem,
    log,
    lstm,
    matmul,
    minimum,
    multiply,
    reduce_sum,
    reshape,
    scale,
    scatter_add,
    sigmoid,
    softmax,
    subtract,
    tanh,
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


def _split_state(out: Tensor, t: int, hid: int) -> tuple[Tensor, Tensor]:
    """The (h, c) that an `lstm` output holds for step `t`."""
    h = getitem(out, (slice(None), t, slice(None, hid)))
    c = getitem(out, (slice(None), t, slice(hid, None)))
    return h, c


def lstm_step(
    weights: tuple[Tensor, Tensor, Tensor], x: Tensor, h: Tensor, c: Tensor
) -> tuple[Tensor, Tensor]:
    """One LSTM cell update of `x` [B, in] from (h, c): `lstm` over one step."""
    out = lstm(reshape(x, (x.shape[0], 1, -1)), *weights, h, c)
    return _split_state(out, 0, h.shape[-1])


@dataclass
class EncoderOutput:
    states: Tensor                      # [B, T, 2h] second-layer outputs
    init1: tuple[Tensor, Tensor]        # decoder layer-1 start state
    init2: tuple[Tensor, Tensor]
    src_len: int


def _init_state(group: ParamGroup, enc_h: Tensor, enc_c: Tensor) -> tuple[Tensor, Tensor]:
    h0 = add(matmul(enc_h, group["init_h_w"]), group["init_h_b"])
    c0 = add(matmul(enc_c, group["init_c_w"]), group["init_c_b"])
    return h0, c0


def encode(params: Params, cfg: ModelConfig, src_ids: np.ndarray, src_mask: np.ndarray) -> EncoderOutput:
    """Run both encoder layers; also derive the decoder's start states."""
    if src_ids.ndim != 2:
        raise ContractError(f"encode: src_ids must be [batch, time], got {src_ids.shape}")
    bsz, steps = src_ids.shape
    if steps < 1 or not (src_mask.sum(axis=1) >= 1).all():
        raise ContractError("encode: every row needs at least one real token")
    h = cfg.hidden
    zeros = tensor(np.zeros((bsz, h), dtype=cfg.np_dtype))

    def direction(cell: ParamGroup, prefix: str, x: Tensor, reverse: bool):
        # Padded steps freeze the state, so the final state always belongs
        # to the last (first, when reversed) real token.
        out = lstm(x, *cell_weights(cell, prefix), zeros, zeros, src_mask, reverse)
        last = 0 if reverse else steps - 1
        return (getitem(out, (..., slice(None, h))), *_split_state(out, last, h))

    embs = gather(params["Emb"]["table"], src_ids)
    f1, f1_h, f1_c = direction(params["E1"], "fwd", embs, False)
    b1, b1_h, b1_c = direction(params["E1"], "bwd", embs, True)
    layer1 = concat([f1, b1])

    f2, f2_h, f2_c = direction(params["E2"], "fwd", layer1, False)
    b2, b2_h, b2_c = direction(params["E2"], "bwd", layer1, True)
    states = concat([f2, b2])
    init1 = _init_state(params["D1"], concat([f1_h, b1_h]), concat([f1_c, b1_c]))
    init2 = _init_state(params["D2"], concat([f2_h, b2_h]), concat([f2_c, b2_c]))
    return EncoderOutput(states, init1, init2, steps)


def mask_penalty(src_mask: np.ndarray, dt=np.float64) -> Tensor:
    """Additive score penalty: 0 on real tokens, -1e9 on padding."""
    return tensor(((1.0 - src_mask) * MASK_PENALTY).astype(dt))


def attention_query(attn: ParamGroup, dec_state: Tensor) -> Tensor:
    """The decoder-state feature of additive attention, for any leading shape."""
    return add(matmul(dec_state, attn["dec_w"]), attn["bias"])


def attention_step(
    attn: ParamGroup,
    query: Tensor,
    enc_states: Tensor,
    coverage: Tensor | None,
    penalty: Tensor,
    enc_feat: Tensor | None = None,
) -> tuple[Tensor, Tensor]:
    """Additive attention with an optional coverage feature.

    ``query`` [B, a] is `attention_query` of the decoder state.  Returns
    (attention weights [B, T], context vector [B, 2h]).  Pass ``enc_feat``
    (the projected encoder states) to amortize that product across decode
    steps; ``coverage=None`` drops the coverage feature.
    """
    bsz, steps, _ = enc_states.shape
    if enc_feat is None:
        enc_feat = matmul(enc_states, attn["enc_w"])
    feats = add(enc_feat, reshape(query, (bsz, 1, -1)))
    if coverage is not None:
        cov_feat = multiply(reshape(coverage, (bsz, steps, 1)), attn["cov_w"])
        feats = add(feats, cov_feat)
    scores = matmul(tanh(feats), attn["score_v"])      # [B, T]
    alpha = softmax(add(scores, penalty))
    context = reshape(matmul(reshape(alpha, (bsz, 1, steps)), enc_states), (bsz, -1))
    return alpha, context


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


DecoderState = tuple[Tensor, Tensor, Tensor, Tensor]  # (h1, c1, h2, c2)


@dataclass
class DecodeContext:
    """Everything that stays fixed across decode steps for one batch."""

    params: Params
    cfg: ModelConfig
    enc: EncoderOutput
    enc_feat: Tensor
    penalty: Tensor
    src_ext: np.ndarray
    ext_size: int
    d1: tuple[Tensor, ...]
    d2: tuple[Tensor, ...]

    @property
    def init_state(self) -> DecoderState:
        return (*self.enc.init1, *self.enc.init2)

    def fresh_coverage(self) -> Tensor:
        bsz = self.src_ext.shape[0]
        return tensor(np.zeros((bsz, self.enc.src_len), dtype=self.cfg.np_dtype))


def prepare_decoder(
    params: Params,
    cfg: ModelConfig,
    enc: EncoderOutput,
    src_mask: np.ndarray,
    src_ext: np.ndarray,
    max_oov: int,
) -> DecodeContext:
    ext_size = cfg.vocab_size + max_oov if cfg.use_pointer else cfg.vocab_size
    return DecodeContext(
        params=params,
        cfg=cfg,
        enc=enc,
        enc_feat=matmul(enc.states, params["Attn"]["enc_w"]),
        penalty=mask_penalty(src_mask, cfg.np_dtype),
        src_ext=src_ext,
        ext_size=ext_size,
        d1=cell_weights(params["D1"], "cell"),
        d2=cell_weights(params["D2"], "cell"),
    )


@dataclass
class StepOutput:
    """The decoder's outputs for one step ([B, ...]) or for all steps ([B, T, ...])."""

    alpha: Tensor
    context: Tensor
    vocab_dist: Tensor
    final_dist: Tensor
    p_gen: Tensor | None


def output_distributions(
    ctx: DecodeContext, dec_state: Tensor, context: Tensor, alpha: Tensor, prev_emb: Tensor
) -> StepOutput:
    """The vocabulary, copy and mixed distributions, for any leading shape."""
    params, cfg = ctx.params, ctx.cfg
    vocab_dist = vocab_distribution(params["Out"], dec_state, context)
    if cfg.use_pointer:
        p_gen = generation_prob(params["Ptr"], context, dec_state, prev_emb)
        copy_dist = copy_distribution(alpha, ctx.src_ext, ctx.ext_size)
        final = final_distribution(p_gen, vocab_dist, copy_dist)
    else:
        if ctx.ext_size != cfg.vocab_size:
            raise ContractError("output_distributions: extended ids need the pointer enabled")
        p_gen = None
        final = vocab_dist
    return StepOutput(alpha, context, vocab_dist, final, p_gen)


def decode_step(
    ctx: DecodeContext,
    state: DecoderState,
    input_ids: np.ndarray,
    coverage: Tensor | None,
) -> tuple[StepOutput, DecoderState]:
    """Advance the decoder one step.

    ``input_ids`` must be in-vocabulary (callers map copied OOVs to the
    unknown id before feeding them back).  ``coverage`` is the attention sum
    over all earlier steps, or None when the coverage feature is off.
    """
    params, cfg = ctx.params, ctx.cfg
    if input_ids.max(initial=0) >= cfg.vocab_size:
        raise ContractError("decode_step: input ids must be in-vocabulary")
    h1, c1, h2, c2 = state
    emb = gather(params["Emb"]["table"], input_ids)
    h1, c1 = lstm_step(ctx.d1, emb, h1, c1)
    h2, c2 = lstm_step(ctx.d2, h1, h2, c2)
    query = attention_query(params["Attn"], h2)
    alpha, context = attention_step(
        params["Attn"], query, ctx.enc.states, coverage, ctx.penalty, ctx.enc_feat
    )
    return output_distributions(ctx, h2, context, alpha, emb), (h1, c1, h2, c2)


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


def _stack_steps(parts: list[Tensor]) -> Tensor:
    """Per-step tensors [B, X] as one [B, T, X]."""
    return reshape(concat(parts), (parts[0].shape[0], len(parts), -1))


def forward_loss(
    params: Params,
    cfg: ModelConfig,
    batch: Batch,
    cov_weight: float = 1.0,
    use_coverage: bool | None = None,
) -> LossParts:
    """Teacher-forced loss over a batch.

    Everything but attention runs once over the whole target (see the
    module docstring).  Coverage follows ``cfg.use_coverage``;
    ``use_coverage=False`` turns it off for this call only, and asking for
    coverage that ``cfg`` turns off is a ContractError.

    Token negative log-likelihood and the coverage penalty are both averaged
    over each example's real decoder steps, then over the batch; the total
    is ``nll + cov_weight * coverage``.
    """
    if use_coverage and not cfg.use_coverage:
        raise ContractError("forward_loss: coverage requested but cfg.use_coverage is false")
    if use_coverage is None:
        use_coverage = cfg.use_coverage
    bsz, dec_len = batch.dec_in.shape
    gold = batch.dec_out
    if not cfg.use_pointer:
        # Without a pointer the model can never emit extended ids: collapse
        # copied-OOV references back to the unknown token.
        gold = np.where(gold >= cfg.vocab_size, UNK_ID, gold)

    enc = encode(params, cfg, batch.src_ids, batch.src_mask)
    ctx = prepare_decoder(params, cfg, enc, batch.src_mask, batch.src_ext, batch.max_oov)
    h1_0, c1_0, h2_0, c2_0 = ctx.init_state
    hid = cfg.hidden
    emb = gather(params["Emb"]["table"], batch.dec_in)                      # [B, T, d]
    h1 = getitem(lstm(emb, *ctx.d1, h1_0, c1_0), (..., slice(None, hid)))
    h2 = getitem(lstm(h1, *ctx.d2, h2_0, c2_0), (..., slice(None, hid)))  # [B, T, h]
    query = attention_query(params["Attn"], h2)

    coverage = ctx.fresh_coverage() if use_coverage else None
    alphas: list[Tensor] = []
    contexts: list[Tensor] = []
    coverages: list[Tensor] = []  # the coverage each step starts from
    for t in range(dec_len):
        alpha, context = attention_step(
            params["Attn"], getitem(query, (slice(None), t)), enc.states, coverage,
            ctx.penalty, ctx.enc_feat,
        )
        alphas.append(alpha)
        contexts.append(context)
        if use_coverage:
            coverages.append(coverage)
            coverage = add(coverage, alpha)
    alpha = _stack_steps(alphas)                                            # [B, T, S]
    out = output_distributions(ctx, h2, _stack_steps(contexts), alpha, emb)

    # Each real step weighs 1 / (its example's real steps).
    weights = batch.dec_mask / batch.dec_mask.sum(axis=1, keepdims=True)
    weights = tensor(weights.astype(cfg.np_dtype))
    nll = scale(reduce_sum(multiply(step_nll(out.final_dist, gold), weights)), -1.0 / bsz)
    if use_coverage:
        overlap = reduce_sum(minimum(alpha, _stack_steps(coverages)), axis=-1)  # [B, T]
        cov = scale(reduce_sum(multiply(overlap, weights)), 1.0 / bsz)
        total = add(nll, scale(cov, cov_weight))
    else:
        cov = None
        total = nll
    return LossParts(nll, cov, total, out)
