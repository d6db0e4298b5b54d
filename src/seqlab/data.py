"""Corpora, vocabularies, extended-vocabulary encoding, and batching.

Token ids 0..3 are reserved: padding, unknown, sequence start, sequence end.
Source-side out-of-vocabulary words get temporary ids past the vocabulary
size, in first-occurrence order, so a pointer can copy them; target words
that match a source OOV reuse that id, all other unknown targets fall back
to the unknown id.

A family of synthetic generators produces desk-scale tasks with known
structure: verbatim copying (optionally with OOV injection), keyword
extraction, and a positional rewrite through a fixed word permutation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence
from zlib import crc32

import numpy as np

from .errors import ContractError

PAD, UNK, START, END = "<pad>", "<unk>", "<s>", "</s>"
RESERVED = (PAD, UNK, START, END)
PAD_ID, UNK_ID, START_ID, END_ID = 0, 1, 2, 3


class Vocab:
    """Fixed token inventory with the four reserved symbols up front."""

    def __init__(self, tokens: Sequence[str]):
        tokens = list(tokens)
        if tuple(tokens[:4]) != RESERVED:
            tokens = list(RESERVED) + [t for t in tokens if t not in RESERVED]
        if len(set(tokens)) != len(tokens):
            raise ContractError("Vocab: duplicate tokens")
        self._tokens = tokens
        self._index = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def id(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def token(self, idx: int) -> str:
        if not 0 <= idx < len(self._tokens):
            raise ContractError(f"Vocab: id {idx} out of range (size {len(self)})")
        return self._tokens[idx]

    @property
    def tokens(self) -> tuple[str, ...]:
        return tuple(self._tokens)

    @classmethod
    def build(cls, texts: Iterable[Sequence[str]], max_size: int) -> "Vocab":
        """Keep the `max_size` most frequent tokens (reserved ones included)."""
        if max_size < len(RESERVED) + 1:
            raise ContractError(f"Vocab.build: max_size {max_size} leaves no room for tokens")
        counts: dict[str, int] = {}
        for text in texts:
            for tok in text:
                if tok not in RESERVED:
                    counts[tok] = counts.get(tok, 0) + 1
        ranked = sorted(counts, key=lambda t: (-counts[t], t))
        return cls(list(RESERVED) + ranked[: max_size - len(RESERVED)])

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self._tokens) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocab":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls([ln for ln in lines if ln])


@dataclass(frozen=True)
class Example:
    source: tuple[str, ...]
    target: tuple[str, ...]
    keywords: tuple[str, ...] = ()

    @classmethod
    def from_text(cls, source: str, target: str, keywords: Sequence[str] = ()) -> "Example":
        return cls(tuple(source.split()), tuple(target.split()), tuple(keywords))


def load_corpus(path) -> list[Example]:
    """Read a jsonl corpus: one {source, target[, keywords]} object per line.

    A record whose source or target has no tokens is rejected, naming its
    line.
    """
    examples = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            ex = Example.from_text(obj["source"], obj["target"], obj.get("keywords", ()))
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise ContractError(f"{path}:{lineno}: bad corpus record ({exc})") from None
        for side in ("source", "target"):
            if not getattr(ex, side):
                raise ContractError(f"{path}:{lineno}: bad corpus record ({side} has no tokens)")
        examples.append(ex)
    return examples


def load_sources(path) -> list[Example]:
    """Read a jsonl decoding input: `source` required and non-empty, `target` optional."""
    examples = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            ex = Example.from_text(obj["source"], obj.get("target", ""), obj.get("keywords", ()))
        except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise ContractError(f"{path}:{lineno}: bad input record ({exc})") from None
        if not ex.source:
            raise ContractError(f"{path}:{lineno}: bad input record (source has no tokens)")
        examples.append(ex)
    return examples


def save_corpus(path, examples: Iterable[Example]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            obj = {"source": " ".join(ex.source), "target": " ".join(ex.target)}
            if ex.keywords:
                obj["keywords"] = list(ex.keywords)
            fh.write(json.dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# Extended-vocabulary encoding


@dataclass(frozen=True, eq=False)
class EncodedExample:
    src_ids: np.ndarray      # in-vocab ids, OOVs as UNK_ID
    src_ext: np.ndarray      # extended ids, OOV k as vocab_size + k
    tgt_ids: np.ndarray
    tgt_ext: np.ndarray
    oovs: tuple[str, ...]    # source OOV words in first-occurrence order
    example: Example


def encode_source(tokens: Sequence[str], vocab: Vocab) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    if not tokens:
        raise ContractError("encode_source: empty source")
    ids, ext, oovs = [], [], []
    seen: dict[str, int] = {}
    for tok in tokens:
        i = vocab.id(tok)
        ids.append(i)
        if i != UNK_ID:
            ext.append(i)
        else:
            if tok not in seen:
                seen[tok] = len(oovs)
                oovs.append(tok)
            ext.append(len(vocab) + seen[tok])
    return np.array(ids, dtype=np.int64), np.array(ext, dtype=np.int64), tuple(oovs)


def encode_target(tokens: Sequence[str], vocab: Vocab, src_oovs: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    if not tokens:
        raise ContractError("encode_target: empty target")
    lookup = {tok: len(vocab) + k for k, tok in enumerate(src_oovs)}
    ids, ext = [], []
    for tok in tokens:
        i = vocab.id(tok)
        ids.append(i)
        ext.append(lookup.get(tok, UNK_ID) if i == UNK_ID else i)
    return np.array(ids, dtype=np.int64), np.array(ext, dtype=np.int64)


def encode_example(
    ex: Example, vocab: Vocab, max_src_len: int = 400, max_tgt_len: int = 100
) -> EncodedExample:
    src = ex.source[:max_src_len]
    tgt = ex.target[:max_tgt_len]
    src_ids, src_ext, oovs = encode_source(src, vocab)
    tgt_ids, tgt_ext = encode_target(tgt, vocab, oovs)
    return EncodedExample(src_ids, src_ext, tgt_ids, tgt_ext, oovs, ex)


def encode_source_only(ex: Example, vocab: Vocab, max_src_len: int = 400) -> EncodedExample:
    """Encode for decoding: the target side may be absent (left empty)."""
    src = ex.source[:max_src_len]
    src_ids, src_ext, oovs = encode_source(src, vocab)
    empty = np.array([], dtype=np.int64)
    return EncodedExample(src_ids, src_ext, empty, empty, oovs, ex)


def ids_to_tokens(ids: Sequence[int], vocab: Vocab, oovs: Sequence[str] = ()) -> list[str]:
    """Map extended ids back to words; copied OOVs resolve through `oovs`."""
    out = []
    for i in ids:
        i = int(i)
        if i < len(vocab):
            out.append(vocab.token(i))
        elif i - len(vocab) < len(oovs):
            out.append(oovs[i - len(vocab)])
        else:
            raise ContractError(f"ids_to_tokens: extended id {i} beyond oov list")
    return out


# ---------------------------------------------------------------------------
# Batching


@dataclass(eq=False)
class Batch:
    src_ids: np.ndarray    # [B, T] int64, PAD_ID padded
    src_ext: np.ndarray    # [B, T]
    src_mask: np.ndarray   # [B, T] float, 1.0 on real tokens
    dec_in: np.ndarray     # [B, S] int64, starts with START_ID
    dec_out: np.ndarray    # [B, S] int64 extended ids, ends with END_ID
    dec_mask: np.ndarray   # [B, S] float
    max_oov: int

    @property
    def size(self) -> int:
        return self.src_ids.shape[0]

    def ext_size(self, vocab_size: int) -> int:
        return vocab_size + self.max_oov


def make_batch(examples: Sequence[EncodedExample], dtype=np.float64) -> Batch:
    if not examples:
        raise ContractError("make_batch: empty batch")
    bsz = len(examples)
    src_len = max(len(e.src_ids) for e in examples)
    tgt_len = max(len(e.tgt_ids) for e in examples) + 1  # room for the end marker
    src_ids = np.full((bsz, src_len), PAD_ID, dtype=np.int64)
    src_ext = np.full((bsz, src_len), PAD_ID, dtype=np.int64)
    src_mask = np.zeros((bsz, src_len), dtype=dtype)
    dec_in = np.full((bsz, tgt_len), PAD_ID, dtype=np.int64)
    dec_out = np.full((bsz, tgt_len), PAD_ID, dtype=np.int64)
    dec_mask = np.zeros((bsz, tgt_len), dtype=dtype)
    for r, e in enumerate(examples):
        t, s = len(e.src_ids), len(e.tgt_ids)
        src_ids[r, :t] = e.src_ids
        src_ext[r, :t] = e.src_ext
        src_mask[r, :t] = 1.0
        dec_in[r, 0] = START_ID
        dec_in[r, 1 : s + 1] = e.tgt_ids
        dec_out[r, :s] = e.tgt_ext
        dec_out[r, s] = END_ID
        dec_mask[r, : s + 1] = 1.0
    return Batch(
        src_ids=src_ids,
        src_ext=src_ext,
        src_mask=src_mask,
        dec_in=dec_in,
        dec_out=dec_out,
        dec_mask=dec_mask,
        max_oov=max(len(e.oovs) for e in examples),
    )


def batches_once(
    examples: Sequence[EncodedExample], batch_size: int, dtype=np.float64
) -> list[Batch]:
    """Every example once, in batches of examples of similar length.

    The examples are ordered by source length, then target length, longest
    first (ties keep their given order), and split in that order; the last
    batch may be short.  Rows of like length pad little, so a held-out pass
    does little padded work.  Callers sum over the batches, so the order
    does not matter to them.
    """
    if batch_size < 1:
        raise ContractError(f"batches_once: batch_size must be >= 1, got {batch_size}")
    ranked = sorted(examples, key=lambda e: (-len(e.src_ids), -len(e.tgt_ids)))
    return [
        make_batch(ranked[i : i + batch_size], dtype=dtype)
        for i in range(0, len(ranked), batch_size)
    ]


def batch_iterator(
    examples: Sequence[EncodedExample],
    batch_size: int,
    rng: np.random.Generator,
    dtype=np.float64,
) -> Iterator[Batch]:
    """Endless shuffled batches; reshuffles at every epoch boundary."""
    if not examples:
        raise ContractError("batch_iterator: no examples")
    if batch_size < 1:
        raise ContractError(f"batch_iterator: batch_size must be >= 1, got {batch_size}")
    n = len(examples)
    while True:
        order = rng.permutation(n)
        for i in range(0, n - batch_size + 1, batch_size):
            yield make_batch([examples[j] for j in order[i : i + batch_size]], dtype=dtype)


def task_seed(global_seed: int, task: str, stream: int = 0) -> np.random.SeedSequence:
    """Seed material that depends only on the task name, not on co-tasks."""
    return np.random.SeedSequence([int(global_seed), crc32(task.encode()), stream])


# ---------------------------------------------------------------------------
# Synthetic task family


@dataclass(frozen=True)
class SynthSpec:
    """Knobs for the synthetic generators.

    Defaults give a 50-token vocabulary (46 content words plus the four
    reserved ids), a 20-word OOV pool disjoint from the vocabulary, and
    source lengths of 5..15.
    """

    content_words: int = 46
    oov_pool: int = 20
    min_len: int = 5
    max_len: int = 15
    oov_rate: float = 0.2
    keyword_pool: int = 10
    distinct_words: int | None = None

    def __post_init__(self):
        if self.content_words < 2 or self.min_len < 1 or self.max_len < self.min_len:
            raise ContractError(f"SynthSpec: bad sizes {self}")
        if not 0.0 <= self.oov_rate <= 1.0:
            raise ContractError(f"SynthSpec: oov_rate {self.oov_rate} outside [0, 1]")
        if self.keyword_pool >= self.content_words:
            raise ContractError("SynthSpec: keyword pool swallows the whole vocabulary")

    def content(self) -> list[str]:
        return [f"w{i:02d}" for i in range(self.content_words)]

    def oov_words(self) -> list[str]:
        # A distinct prefix keeps the pool disjoint from the vocabulary.
        return [f"x{i:02d}" for i in range(self.oov_pool)]

    def keywords(self) -> list[str]:
        return self.content()[: self.keyword_pool]

    def vocab(self) -> Vocab:
        return Vocab(list(RESERVED) + self.content())


def _sample_source(rng: np.random.Generator, spec: SynthSpec, pool: Sequence[str]) -> list[str]:
    n = int(rng.integers(spec.min_len, spec.max_len + 1))
    if spec.distinct_words is not None:
        k = min(spec.distinct_words, len(pool))
        pool = list(rng.choice(pool, size=k, replace=False))
    return [pool[i] for i in rng.integers(0, len(pool), size=n)]


def gen_copy(rng: np.random.Generator, n: int, spec: SynthSpec, with_oov: bool = True) -> list[Example]:
    """Target repeats the source verbatim; OOV injection exercises copying."""
    content, oov = spec.content(), spec.oov_words()
    out = []
    for _ in range(n):
        toks = _sample_source(rng, spec, content)
        if with_oov and spec.oov_rate > 0:
            hits = rng.random(len(toks)) < spec.oov_rate
            for i in np.flatnonzero(hits):
                toks[i] = oov[int(rng.integers(0, len(oov)))]
        toks = tuple(toks)
        out.append(Example(toks, toks))
    return out


def gen_keyword_extract(rng: np.random.Generator, n: int, spec: SynthSpec) -> list[Example]:
    """Target lists the keyword tokens of the source, in source order."""
    keys = spec.keywords()
    fillers = spec.content()[spec.keyword_pool :]
    out = []
    for _ in range(n):
        toks = _sample_source(rng, spec, fillers)
        k = int(rng.integers(1, min(3, len(toks)) + 1))
        positions = rng.choice(len(toks), size=k, replace=False)
        for p in positions:
            toks[p] = keys[int(rng.integers(0, len(keys)))]
        target = tuple(t for t in toks if t in keys)
        out.append(Example(tuple(toks), target, keywords=tuple(sorted(set(target)))))
    return out


_REWRITE_RNG_SEED = 99  # the permutation is a fixed property of the task family


def rewrite_map(spec: SynthSpec) -> dict[str, str]:
    content = spec.content()
    perm = np.random.default_rng(_REWRITE_RNG_SEED).permutation(len(content))
    return {content[i]: content[int(perm[i])] for i in range(len(content))}


def gen_subset_rewrite(rng: np.random.Generator, n: int, spec: SynthSpec) -> list[Example]:
    """Target maps every even-position source token through a fixed permutation."""
    mapping = rewrite_map(spec)
    content = spec.content()
    out = []
    for _ in range(n):
        toks = _sample_source(rng, spec, content)
        target = tuple(mapping[t] for t in toks[::2])
        out.append(Example(tuple(toks), target))
    return out


GENERATORS = {
    "copy": lambda rng, n, spec: gen_copy(rng, n, spec, with_oov=False),
    "copy-oov": lambda rng, n, spec: gen_copy(rng, n, spec, with_oov=True),
    "keyword-extract": gen_keyword_extract,
    "subset-rewrite": gen_subset_rewrite,
}


@dataclass(frozen=True)
class TaskCorpora:
    train: tuple[Example, ...]
    val: tuple[Example, ...]
    test: tuple[Example, ...]


def make_task_corpora(
    generator: str,
    seed: int,
    sizes: tuple[int, int, int] = (5000, 500, 500),
    spec: SynthSpec = SynthSpec(),
) -> TaskCorpora:
    if generator not in GENERATORS:
        raise ContractError(
            f"make_task_corpora: unknown generator {generator!r}; "
            f"choose from {sorted(GENERATORS)}"
        )
    gen = GENERATORS[generator]
    rng = np.random.default_rng(task_seed(seed, generator, stream=7))
    train, val, test = (tuple(gen(rng, n, spec)) for n in sizes)
    return TaskCorpora(train, val, test)
