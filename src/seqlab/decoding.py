"""Batched beam search over the extended vocabulary; greedy is beam width 1.

Decoding runs grad-free on a parameter snapshot.  Structural symbols
(padding, the start marker) and the unknown token are never emitted; the
end token is admissible only once a hypothesis has at least `min_len`
content tokens.  Copied out-of-vocabulary ids are fed back into the
decoder as the unknown embedding (they have no embedding rows of their
own), and are mapped back to their source surface forms at text time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import END_ID, PAD_ID, START_ID, UNK_ID, EncodedExample, make_batch
from .errors import ContractError
from .model import ModelConfig, Params, decode_step, encode
from .tensor import Tensor, no_grad, tensor

__all__ = [
    "BANNED_IDS",
    "ROW_BUDGET",
    "Hypothesis",
    "greedy_decode",
    "beam_search",
    "score_sequence",
]

BANNED_IDS = (PAD_ID, UNK_ID, START_ID)

# Live decoder rows per batched beam step: sources go through beam search
# in chunks of max(1, ROW_BUDGET // beam), so 32 sources at beam 4.  A step
# holds about rows x S x (2h + a) floats of context and attention working
# memory (S the chunk's longest source, a the attention width).
ROW_BUDGET = 128


@dataclass(frozen=True)
class Hypothesis:
    """One decoded candidate.

    `tokens` are the emitted content ids in the extended vocabulary (no
    start/end markers); `logp` is the exact sum of per-step log P_f over
    every chosen token, including the end token when `finished`; `coverage`
    is the sum of this hypothesis's own attention vectors.
    """

    tokens: tuple[int, ...]
    logp: float
    coverage: np.ndarray | None
    finished: bool = False

    @property
    def steps(self) -> int:
        return len(self.tokens) + (1 if self.finished else 0)

    @property
    def score(self) -> float:
        """Length-normalized log-probability (sum over steps / steps)."""
        return self.logp / max(1, self.steps)


def greedy_decode(
    params: Params, cfg: ModelConfig, example: EncodedExample, max_len: int, min_len: int = 0
) -> list[int]:
    """Argmax token ids for one source (beam width 1)."""
    pools = beam_search(params, cfg, [example], beam=1, max_len=max_len, min_len=min_len)
    return list(pools[0][0].tokens)


def beam_search(
    params: Params,
    cfg: ModelConfig,
    examples: Sequence[EncodedExample],
    beam: int,
    max_len: int,
    min_len: int = 0,
) -> list[list[Hypothesis]]:
    """Beam expansion over P_f for every source, best-first, deterministic.

    Returns one list per source, in input order.  Sources are decoded
    together in chunks of `ROW_BUDGET // beam` (at least one): the encoder
    runs once per source, and each step runs the decoder on the chunk's live
    hypotheses alone, at most `ROW_BUDGET` rows (`beam` when that is more).
    Hypotheses that choose the end token move to their source's finished
    pool with that step's log-probability included; the rest are pruned to
    the top `beam` by cumulative log-probability, ties going to the earlier
    parent, then the lower id.  A source stops at the first step whose best
    candidate is the end token, since no continuation can reach a higher
    summed log-probability; at beam 1 this is greedy decoding.  Anything
    still alive at `max_len`, or at a step where none of its source's live
    hypotheses has an admissible continuation, is kept as a forced
    (unfinished) candidate.  Each list is sorted by length-normalized score
    and holds between one and `beam` entries.
    """
    if beam < 1:
        raise ContractError(f"beam must be >= 1, got {beam}")
    if min_len > max_len:
        raise ContractError(f"min_len {min_len} exceeds max_len {max_len}")
    per_chunk = max(1, ROW_BUDGET // beam)
    pools: list[list[Hypothesis]] = []
    with no_grad():
        for lo in range(0, len(examples), per_chunk):
            chunk = examples[lo : lo + per_chunk]
            pools.extend(_beam_chunk(params, cfg, chunk, beam, max_len, min_len))
    return pools


def _beam_chunk(
    params: Params,
    cfg: ModelConfig,
    examples: Sequence[EncodedExample],
    k: int,
    max_len: int,
    min_len: int,
) -> list[list[Hypothesis]]:
    """One beam over the chunk's sources; source s owns beam slots s*k ... s*k+k-1.

    The encoder runs once, one row per source.  Each step runs the decoder
    on the live slots alone, one row each in slot order (`live`), with their
    sources' context rows.
    """
    n = len(examples)
    src_lens = [len(ex.src_ids) for ex in examples]
    sources = encode(params, cfg, make_batch(examples, dtype=cfg.np_dtype))
    ctx, state = sources, sources.init_state
    live = np.arange(n) * k  # the slot of each decoder row, ascending
    logp = np.zeros(n)  # cumulative log-probability per row
    seqs = np.zeros((n, 0), dtype=np.int64)  # every row has t tokens at step t
    inputs = np.full((n, 1), START_ID)
    pools: list[list[Hypothesis]] = [[] for _ in range(n)]

    def hyp(row: int, score: float, coverage: Tensor | None, finished: bool) -> Hypothesis:
        own = None if coverage is None else coverage.values[row, : src_lens[live[row] // k]].copy()
        return Hypothesis(tuple(seqs[row].tolist()), float(score), own, finished)

    def keep_forced(stopped: np.ndarray) -> None:
        for row in np.flatnonzero(stopped[live // k]):
            pools[live[row] // k].append(hyp(row, logp[row], state[-1], False))

    for t in range(max_len):
        out, new_state = decode_step(ctx, state, inputs)
        with np.errstate(divide="ignore"):
            step = np.log(out.final_dist.values[:, 0])
        step[:, list(BANNED_IDS)] = -np.inf
        if t < min_len:
            step[:, END_ID] = -np.inf
        width = step.shape[1]
        totals = np.full((n * k, width), -np.inf)  # an empty slot is -inf
        totals[live] = step + logp[:, None]
        totals = totals.reshape(n, k * width)
        # Stable sort: ties resolve to the earlier parent, then lower id.  A
        # source's top 2k candidates suffice: each parent has one end
        # candidate, so at most k of them precede its k-th live one.
        order = np.argsort(-totals, axis=1, kind="stable")[:, : 2 * k]
        scores = np.take_along_axis(totals, order, axis=1)
        slot, tok = np.divmod(order, width)
        parent = np.searchsorted(live, slot + k * np.arange(n)[:, None])  # the parent's row
        admissible = scores > -np.inf
        keep_forced(~admissible[:, 0])
        grows = admissible & (tok != END_ID)
        ahead = np.cumsum(grows, axis=1) - grows  # live candidates ranked above
        for s, j in zip(*np.nonzero(admissible & ~grows & (ahead < k))):
            pools[s].append(hyp(parent[s, j], scores[s, j], new_state[-1], True))
        # a source whose best candidate is an end stops (each later step
        # adds log P_f <= 0, so no continuation reaches a higher total)
        src, col = np.nonzero(grows & (ahead < k) & (tok[:, :1] != END_ID))
        rows = parent[src, col]
        live, logp = src * k + ahead[src, col], scores[src, col]
        if not live.size:
            break
        last = tok[src, col]
        seqs = np.concatenate([seqs[rows], last[:, None]], axis=1)
        state = tuple(None if x is None else tensor(x.values[rows]) for x in new_state)
        inputs = np.where(last >= cfg.vocab_size, UNK_ID, last)[:, None]
        ctx = replace(  # each row reads its source's context row
            sources,
            states=tensor(sources.states.values[src]),
            enc_feat=tensor(sources.enc_feat.values[src]),
            penalty=tensor(sources.penalty.values[src]),
            src_ext=sources.src_ext[src],
        )
    keep_forced(np.ones(n, dtype=bool))
    for pool in pools:
        pool.sort(key=lambda h: (-h.score, h.tokens))
    return [pool[:k] for pool in pools]


def score_sequence(
    params: Params,
    cfg: ModelConfig,
    example: EncodedExample,
    token_ids,
    include_end: bool = False,
) -> float:
    """Teacher-forced sum of log P_f over `token_ids` (extended vocabulary).

    The exact quantity beam search accumulates for a hypothesis with these
    tokens; with `include_end` the end token's final step is added, matching
    a finished hypothesis.
    """
    token_ids = list(token_ids)
    targets = token_ids + ([END_ID] if include_end else [])
    with no_grad():
        ctx = encode(params, cfg, make_batch([example], dtype=cfg.np_dtype))
        state = ctx.init_state
        prev = START_ID
        total = 0.0
        for tok in targets:
            if not 0 <= tok < ctx.ext_size:
                raise ContractError(
                    f"score_sequence: id {tok} outside extended vocabulary "
                    f"of size {ctx.ext_size}"
                )
            out, state = decode_step(ctx, state, np.array([[prev]]))
            with np.errstate(divide="ignore"):
                total += float(np.log(out.final_dist.values[0, 0, tok]))
            prev = tok if tok < cfg.vocab_size else UNK_ID
    return total
