"""Vocabulary, extended-vocabulary encoding, batching, synthetic tasks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab.data import (
    END_ID,
    PAD_ID,
    RESERVED,
    START_ID,
    UNK_ID,
    Batch,
    Example,
    SynthSpec,
    Vocab,
    batch_iterator,
    batches_once,
    encode_example,
    encode_source,
    encode_source_only,
    encode_target,
    gen_copy,
    gen_keyword_extract,
    gen_subset_rewrite,
    ids_to_tokens,
    load_corpus,
    load_sources,
    make_batch,
    make_task_corpora,
    rewrite_map,
    save_corpus,
    task_seed,
)
from seqlab.errors import ContractError


@pytest.fixture
def vocab():
    return Vocab(list(RESERVED) + ["a", "b", "c"])


class TestVocab:
    def test_reserved_ids(self, vocab):
        assert vocab.id("<pad>") == PAD_ID == 0
        assert vocab.id("<unk>") == UNK_ID == 1
        assert vocab.id("<s>") == START_ID == 2
        assert vocab.id("</s>") == END_ID == 3

    def test_unknown_maps_to_unk(self, vocab):
        assert vocab.id("zzz") == UNK_ID

    def test_roundtrip_file(self, vocab, tmp_path):
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        again = Vocab.load(path)
        assert again.tokens == vocab.tokens

    def test_build_caps_size_and_ranks_by_count(self):
        texts = [["b", "b", "a", "c"], ["b", "a"]]
        v = Vocab.build(texts, max_size=6)
        assert len(v) == 6
        assert v.tokens[4:] == ("b", "a")  # count desc, ties alphabetical

    def test_build_too_small(self):
        with pytest.raises(ContractError):
            Vocab.build([["a"]], max_size=4)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ContractError):
            Vocab(list(RESERVED) + ["a", "a"])


class TestExtendedEncoding:
    def test_source_oov_first_occurrence_order(self, vocab):
        ids, ext, oovs = encode_source(["a", "qux", "b", "zap", "qux"], vocab)
        V = len(vocab)
        np.testing.assert_array_equal(ids, [4, UNK_ID, 5, UNK_ID, UNK_ID])
        np.testing.assert_array_equal(ext, [4, V, 5, V + 1, V])
        assert oovs == ("qux", "zap")

    def test_target_reuses_source_oov_ids(self, vocab):
        _, _, oovs = encode_source(["a", "qux"], vocab)
        ids, ext = encode_target(["qux", "zap", "b"], vocab, oovs)
        V = len(vocab)
        np.testing.assert_array_equal(ids, [UNK_ID, UNK_ID, 5])
        np.testing.assert_array_equal(ext, [V, UNK_ID, 5])

    def test_ids_to_tokens_roundtrip(self, vocab):
        src = ["a", "qux", "b", "zap"]
        _, ext, oovs = encode_source(src, vocab)
        assert ids_to_tokens(ext, vocab, oovs) == src

    def test_ids_to_tokens_rejects_unlisted_extension(self, vocab):
        with pytest.raises(ContractError):
            ids_to_tokens([len(vocab) + 5], vocab, ("one",))

    def test_empty_source_rejected(self, vocab):
        with pytest.raises(ContractError):
            encode_source([], vocab)

    def test_empty_target_rejected(self, vocab):
        with pytest.raises(ContractError):
            encode_target([], vocab, ())

    def test_truncation(self, vocab):
        ex = Example(("a",) * 10, ("b",) * 10)
        enc = encode_example(ex, vocab, max_src_len=4, max_tgt_len=3)
        assert len(enc.src_ids) == 4 and len(enc.tgt_ids) == 3

    @given(st.lists(st.sampled_from(["a", "b", "c", "qux", "zap", "yip"]), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_extended_roundtrip_property(self, tokens):
        v = Vocab(list(RESERVED) + ["a", "b", "c"])
        _, ext, oovs = encode_source(tokens, v)
        assert ids_to_tokens(ext, v, oovs) == tokens
        # extended ids never collide with reserved or in-vocab ids wrongly
        for tok, e in zip(tokens, ext):
            if tok in v.tokens:
                assert e == v.id(tok)
            else:
                assert e >= len(v)


class TestBatching:
    def make(self, vocab, pairs):
        return [encode_example(Example(tuple(s), tuple(t)), vocab) for s, t in pairs]

    def test_padding_and_masks(self, vocab):
        enc = self.make(vocab, [(["a", "b", "c"], ["a"]), (["b"], ["a", "c"])])
        batch = make_batch(enc)
        assert batch.src_ids.shape == (2, 3)
        np.testing.assert_array_equal(batch.src_mask, [[1, 1, 1], [1, 0, 0]])
        assert batch.src_ids[1, 1] == PAD_ID
        # decoder input begins with the start id, output ends in end id
        assert batch.dec_in[0, 0] == START_ID and batch.dec_in[1, 0] == START_ID
        assert batch.dec_out[0, 1] == END_ID
        assert batch.dec_out[1, 2] == END_ID
        np.testing.assert_array_equal(batch.dec_mask, [[1, 1, 0], [1, 1, 1]])

    def test_max_oov_tracks_batch(self, vocab):
        enc = self.make(vocab, [(["qux", "zap"], ["a"]), (["a"], ["a"])])
        batch = make_batch(enc)
        assert batch.max_oov == 2
        assert batch.ext_size(len(vocab)) == len(vocab) + 2

    def test_batches_once_keeps_order_and_tail(self, vocab):
        enc = self.make(vocab, [(["a"], ["a"])] * 5)
        parts = batches_once(enc, 2)
        assert [b.size for b in parts] == [2, 2, 1]

    def test_batches_once_in_length_order(self, vocab):
        rng = np.random.default_rng(4)
        pairs = [
            (["a"] * int(rng.integers(1, 8)), ["b"] * int(rng.integers(1, 8))) for _ in range(11)
        ]
        parts = batches_once(self.make(vocab, pairs), 3)
        lengths = [
            (int(s), int(t) - 1)  # the decoder mask counts the end token
            for b in parts
            for s, t in zip(b.src_mask.sum(axis=1), b.dec_mask.sum(axis=1))
        ]
        assert sorted(lengths) == sorted((len(s), len(t)) for s, t in pairs)
        assert lengths == sorted(lengths, reverse=True)

    def test_iterator_deterministic_under_seed(self, vocab):
        enc = self.make(vocab, [([t], [t]) for t in ["a", "b", "c", "a", "b", "c"]])
        a = batch_iterator(enc, 2, np.random.default_rng(5))
        b = batch_iterator(enc, 2, np.random.default_rng(5))
        for _ in range(7):
            np.testing.assert_array_equal(next(a).src_ids, next(b).src_ids)

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError):
            make_batch([])


class TestCorpusIO:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        examples = [
            Example(("a", "b"), ("b",)),
            Example(("qux",), ("qux",), keywords=("qux",)),
        ]
        save_corpus(path, examples)
        again = load_corpus(path)
        assert again == examples

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"source": "a b", "target": "a"}\n{"nope": 1}\n')
        with pytest.raises(ContractError, match=":2"):
            load_corpus(path)

    @pytest.mark.parametrize(
        "record",
        [
            '{"source": 5, "target": "a"}',
            '{"source": "a", "target": ["a"]}',
            '{"source": "", "target": "a"}',
            '{"source": "a b", "target": "  "}',
        ],
        ids=["int-source", "list-target", "empty-source", "empty-target"],
    )
    def test_bad_field_reports_line(self, tmp_path, record):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"source": "a b", "target": "a"}\n' + record + "\n")
        with pytest.raises(ContractError, match=f"{path.name}:2: bad corpus record"):
            load_corpus(path)

    def test_load_sources_accepts_targetless_records(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text(
            '{"source": "a b c"}\n'
            '{"source": "b a", "target": "a"}\n'
            '{"source": "c", "keywords": ["c"]}\n'
        )
        loaded = load_sources(path)
        assert [ex.source for ex in loaded] == [("a", "b", "c"), ("b", "a"), ("c",)]
        assert loaded[0].target == ()
        assert loaded[1].target == ("a",)
        assert loaded[2].keywords == ("c",)

    def test_load_sources_rejects_sourceless_record(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"source": "a"}\n{"target": "a"}\n')
        with pytest.raises(ContractError, match=":2"):
            load_sources(path)

    def test_encode_source_only_leaves_target_empty(self, vocab):
        ex = Example(("a", "zzz", "b"), ())
        enc = encode_source_only(ex, vocab)
        assert enc.tgt_ids.shape == (0,)
        assert enc.tgt_ext.shape == (0,)
        assert enc.oovs == ("zzz",)
        np.testing.assert_array_equal(
            enc.src_ext, [vocab.id("a"), len(vocab), vocab.id("b")]
        )
        # identical source treatment as the full encoder
        full = encode_example(Example(("a", "zzz", "b"), ("b",)), vocab)
        np.testing.assert_array_equal(enc.src_ids, full.src_ids)
        np.testing.assert_array_equal(enc.src_ext, full.src_ext)


class TestSynthTasks:
    spec = SynthSpec()

    def test_oov_pool_disjoint_from_vocab(self):
        v = self.spec.vocab()
        assert len(v) == 50
        assert not set(self.spec.oov_words()) & set(v.tokens)

    def test_copy_targets_match_sources(self):
        rng = np.random.default_rng(0)
        for ex in gen_copy(rng, 50, self.spec):
            assert ex.target == ex.source
            assert self.spec.min_len <= len(ex.source) <= self.spec.max_len

    def test_copy_oov_rate_nonzero(self):
        rng = np.random.default_rng(0)
        oov = set(self.spec.oov_words())
        examples = gen_copy(rng, 200, self.spec, with_oov=True)
        frac = np.mean([any(t in oov for t in ex.source) for ex in examples])
        assert frac > 0.8  # most examples carry at least one OOV

    def test_copy_without_oov_stays_in_vocab(self):
        rng = np.random.default_rng(0)
        v = self.spec.vocab()
        for ex in gen_copy(rng, 50, self.spec, with_oov=False):
            assert all(t in v for t in ex.source)

    def test_keyword_extract_structure(self):
        rng = np.random.default_rng(1)
        keys = set(self.spec.keywords())
        for ex in gen_keyword_extract(rng, 100, self.spec):
            assert ex.target, "target never empty"
            assert set(ex.target) <= keys
            # target preserves source order of keyword occurrences
            assert list(ex.target) == [t for t in ex.source if t in keys]
            assert ex.keywords == tuple(sorted(set(ex.target)))

    def test_subset_rewrite_structure(self):
        rng = np.random.default_rng(2)
        mapping = rewrite_map(self.spec)
        for ex in gen_subset_rewrite(rng, 100, self.spec):
            assert list(ex.target) == [mapping[t] for t in ex.source[::2]]

    def test_rewrite_map_is_stable(self):
        assert rewrite_map(self.spec) == rewrite_map(self.spec)

    def test_distinct_words_cap(self):
        spec = SynthSpec(distinct_words=3)
        rng = np.random.default_rng(3)
        for ex in gen_copy(rng, 30, spec, with_oov=False):
            assert len(set(ex.source)) <= 3

    def test_make_task_corpora_sizes_and_determinism(self):
        a = make_task_corpora("copy-oov", seed=11, sizes=(20, 5, 5))
        b = make_task_corpora("copy-oov", seed=11, sizes=(20, 5, 5))
        assert a == b
        assert (len(a.train), len(a.val), len(a.test)) == (20, 5, 5)

    def test_unknown_generator(self):
        with pytest.raises(ContractError, match="unknown generator"):
            make_task_corpora("nope", seed=0)

    def test_task_seed_ignores_cotasks(self):
        s1 = task_seed(7, "copy-oov").generate_state(4)
        s2 = task_seed(7, "copy-oov").generate_state(4)
        s3 = task_seed(7, "keyword-extract").generate_state(4)
        np.testing.assert_array_equal(s1, s2)
        assert not np.array_equal(s1, s3)
