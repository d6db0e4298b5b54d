"""Batched beam search, and greedy decoding as beam width 1."""

import dataclasses
import itertools

import numpy as np
import pytest

from conftest import TINY_SPEC, tiny_config, tiny_examples
from seqlab import decoding
from seqlab.data import (
    END_ID,
    PAD_ID,
    START_ID,
    UNK_ID,
    Example,
    SynthSpec,
    encode_example,
    gen_copy,
    make_batch,
)
from seqlab.decoding import (
    BANNED_IDS,
    ROW_BUDGET,
    Hypothesis,
    beam_search,
    greedy_decode,
    score_sequence,
)
from seqlab.errors import ContractError
from seqlab.model import decode_step, encode
from seqlab.sharing import single_task_params
from seqlab.tensor import no_grad, tensor


def fresh(seed=0, **overrides):
    cfg = tiny_config(**overrides)
    params = single_task_params(cfg, seed=seed, init_range=0.5)
    return cfg, params


def one_example(seed=1, with_oov=True):
    spec = TINY_SPEC if with_oov else SynthSpec(
        content_words=16, oov_pool=5, min_len=4, max_len=6, oov_rate=0.0
    )
    rng = np.random.default_rng(seed)
    ex = gen_copy(rng, 1, spec)[0]
    return encode_example(ex, spec.vocab())


def mixed_corpus(n, seed=5):
    """Sources of 2 to 12 words, about a third of them out of vocabulary."""
    spec = SynthSpec(content_words=16, oov_pool=5, min_len=2, max_len=12, oov_rate=0.3)
    rng = np.random.default_rng(seed)
    return [encode_example(ex, spec.vocab()) for ex in gen_copy(rng, n, spec)]


def argmax_decode(params, cfg, example, max_len, min_len=0):
    """Reference greedy decoding: the most probable admissible token at each
    step (lowest id on ties) until the end token or a step with no mass."""
    with no_grad():
        ctx = encode(params, cfg, make_batch([example], dtype=cfg.np_dtype))
        state = ctx.init_state
        prev, ids = START_ID, []
        for t in range(max_len):
            out, state = decode_step(ctx, state, np.array([[prev]]))
            probs = out.final_dist.values[0, 0].copy()
            probs[list(BANNED_IDS)] = 0.0
            if t < min_len:
                probs[END_ID] = 0.0
            tok = int(probs.argmax())
            if tok == END_ID or probs[tok] == 0.0:
                break
            ids.append(tok)
            prev = tok if tok < cfg.vocab_size else UNK_ID
    return ids


class TestGreedy:
    def test_deterministic(self):
        cfg, params = fresh()
        ex = one_example()
        a = greedy_decode(params, cfg, ex, max_len=8)
        b = greedy_decode(params, cfg, ex, max_len=8)
        assert a == b

    def test_max_len_zero_is_empty(self):
        cfg, params = fresh()
        assert greedy_decode(params, cfg, one_example(), max_len=0) == []

    def test_emits_only_admissible_ids(self):
        cfg, params = fresh()
        for seed in range(5):
            ex = one_example(seed)
            ids = greedy_decode(params, cfg, ex, max_len=10)
            assert len(ids) <= 10
            for tok in ids:
                assert tok not in (PAD_ID, UNK_ID, START_ID, END_ID)
                assert 0 <= tok < cfg.vocab_size + len(ex.oovs)

    def test_min_len_defers_end(self):
        cfg, params = fresh()
        ex = one_example()
        ids = greedy_decode(params, cfg, ex, max_len=10, min_len=4)
        assert len(ids) >= 4

    def test_batch_matches_single(self):
        cfg, params = fresh()
        examples = tiny_examples(n=4, seed=2)
        batched = beam_search(params, cfg, examples, beam=1, max_len=8)
        for pool, enc_ex in zip(batched, examples, strict=True):
            solo = greedy_decode(params, cfg, enc_ex, max_len=8)
            assert list(pool[0].tokens) == solo

    def test_padding_rows_do_not_change_output(self):
        # decoding one source alone and alongside a longer padded row agree
        cfg, params = fresh()
        spec = TINY_SPEC
        rng = np.random.default_rng(3)
        short = encode_example(gen_copy(rng, 1, spec)[0], spec.vocab())
        longer_spec = SynthSpec(
            content_words=16, oov_pool=5, min_len=10, max_len=12
        )
        longer = encode_example(gen_copy(rng, 1, longer_spec)[0], spec.vocab())
        alone = beam_search(params, cfg, [short], beam=1, max_len=8)[0]
        padded = beam_search(params, cfg, [short, longer], beam=1, max_len=8)[0]
        assert alone[0].tokens == padded[0].tokens

    def test_min_len_validation(self):
        cfg, params = fresh()
        with pytest.raises(ContractError, match="min_len"):
            greedy_decode(params, cfg, one_example(), max_len=2, min_len=3)

    def test_no_pointer_model_decodes(self):
        cfg, params = fresh(use_pointer=False)
        ids = greedy_decode(params, cfg, one_example(with_oov=False), max_len=6)
        assert all(0 <= t < cfg.vocab_size for t in ids)


class TestBeam:
    def test_beam_one_equals_greedy(self):
        cfg, params = fresh()
        for seed in range(4):
            ex = one_example(seed)
            hyp = beam_search(params, cfg, [ex], beam=1, max_len=8)[0][0]
            assert list(hyp.tokens) == greedy_decode(params, cfg, ex, max_len=8)

    def test_beam_one_is_argmax_decoding(self):
        # A bias towards the end token makes it win early; a beam that kept
        # decoding past it could return a longer hypothesis instead.
        for bias in (0.0, 1.0, 2.0, 3.0):
            for seed in range(6):
                cfg, params = fresh(seed)
                params["Out"]["vocab_b"].values[END_ID] += bias
                rng = np.random.default_rng(seed)
                examples = [
                    encode_example(ex, TINY_SPEC.vocab()) for ex in gen_copy(rng, 8, TINY_SPEC)
                ]
                for min_len in (0, 2):
                    pools = beam_search(params, cfg, examples, beam=1, max_len=8, min_len=min_len)
                    for ex, pool in zip(examples, pools):
                        expected = argmax_decode(params, cfg, ex, 8, min_len)
                        assert list(pool[0].tokens) == expected

    @pytest.mark.parametrize("beam", [1, 3])
    def test_dead_end_keeps_live_tokens(self, beam, monkeypatch):
        # From the second step on every token has zero mass: the hypotheses
        # alive at that step are kept as forced candidates, tokens and all.
        cfg, params = fresh()
        ex = one_example()
        expected = beam_search(params, cfg, [ex], beam=beam, max_len=1, min_len=1)[0]
        real = decoding.decode_step
        calls = []

        def starved(ctx, state, ids):
            out, new_state = real(ctx, state, ids)
            calls.append(len(ids))
            if len(calls) >= 2:
                zeros = tensor(np.zeros_like(out.final_dist.values))
                out = dataclasses.replace(out, final_dist=zeros)
            return out, new_state

        monkeypatch.setattr(decoding, "decode_step", starved)
        hyps = beam_search(params, cfg, [ex], beam=beam, max_len=8, min_len=1)[0]
        assert len(calls) == 2
        assert len(hyps) == beam
        assert [(h.tokens, h.logp, h.finished) for h in hyps] == [
            (h.tokens, h.logp, h.finished) for h in expected
        ]
        assert all(len(h.tokens) == 1 and not h.finished for h in hyps)
        calls.clear()
        greedy = greedy_decode(params, cfg, ex, max_len=8, min_len=1)
        assert greedy == list(hyps[0].tokens)

    def test_returns_sorted_capped_list(self):
        cfg, params = fresh()
        hyps = beam_search(params, cfg, [one_example()], beam=3, max_len=6)[0]
        assert 1 <= len(hyps) <= 3
        scores = [h.score for h in hyps]
        assert scores == sorted(scores, reverse=True)

    def test_always_at_least_one_hypothesis(self):
        cfg, params = fresh()
        hyps = beam_search(params, cfg, [one_example()], beam=2, max_len=0)[0]
        assert len(hyps) == 1
        assert hyps[0].tokens == () and hyps[0].logp == 0.0

    def test_min_len_blocks_early_end(self):
        cfg, params = fresh()
        hyps = beam_search(params, cfg, [one_example()], beam=4, max_len=8, min_len=2)[0]
        for h in hyps:
            assert len(h.tokens) >= 2

    def test_logp_is_sum_of_step_logps(self):
        cfg, params = fresh()
        ex = one_example()
        for h in beam_search(params, cfg, [ex], beam=3, max_len=5)[0]:
            replay = score_sequence(params, cfg, ex, h.tokens, include_end=h.finished)
            assert h.logp == pytest.approx(replay, rel=1e-10, abs=1e-10)

    def test_coverage_is_own_attention_sum(self):
        # more than two chunks, so every entry's coverage went through the
        # row gathers; an end-token bias so that pools mix finished and
        # forced entries
        cfg, params = fresh()
        params["Out"]["vocab_b"].values[END_ID] += 2.0
        examples = mixed_corpus(2 * (ROW_BUDGET // 3) + 3)
        pools = beam_search(params, cfg, examples, beam=3, max_len=5)
        finished = total = 0
        for ex, pool in zip(examples, pools):
            for hyp in pool:
                # replay the hypothesis and accumulate attention by hand
                with no_grad():
                    ctx = encode(params, cfg, make_batch([ex], dtype=cfg.np_dtype))
                    state = ctx.init_state
                    own = np.zeros(len(ex.src_ids))
                    prev = START_ID
                    for tok in list(hyp.tokens) + ([END_ID] if hyp.finished else []):
                        out, state = decode_step(ctx, state, np.array([[prev]]))
                        own += out.alpha.values[0, 0]
                        prev = tok if tok < cfg.vocab_size else UNK_ID
                np.testing.assert_allclose(hyp.coverage, own, atol=1e-12)
                finished += hyp.finished
                total += 1
        assert 0 < finished < total

    def test_exhaustive_beam_matches_enumeration(self):
        # content alphabet of 3 tokens, length 2: beam 9 must recover the
        # argmax over all 9 sequences under summed log P_f
        spec = SynthSpec(
            content_words=3, oov_pool=2, min_len=3, max_len=4, oov_rate=0.0, keyword_pool=2
        )
        cfg = tiny_config(vocab_size=7)
        params = single_task_params(cfg, seed=3, init_range=0.5)
        content = [4, 5, 6]
        rng = np.random.default_rng(11)
        for _ in range(6):
            ex = encode_example(gen_copy(rng, 1, spec)[0], spec.vocab())
            best_ids, best_lp = None, -np.inf
            for seq in itertools.product(content, repeat=2):
                lp = score_sequence(params, cfg, ex, seq)
                if lp > best_lp:
                    best_ids, best_lp = seq, lp
            hyp = beam_search(params, cfg, [ex], beam=9, max_len=2, min_len=2)[0][0]
            assert hyp.tokens == best_ids
            assert hyp.logp == pytest.approx(best_lp, rel=1e-12)

    def test_no_coverage_model(self):
        cfg, params = fresh(use_coverage=False)
        hyps = beam_search(params, cfg, [one_example()], beam=2, max_len=4)[0]
        assert hyps[0].coverage is None

    def test_validation(self):
        cfg, params = fresh()
        with pytest.raises(ContractError, match="beam"):
            beam_search(params, cfg, [one_example()], beam=0, max_len=3)
        with pytest.raises(ContractError, match="min_len"):
            beam_search(params, cfg, [one_example()], beam=2, max_len=3, min_len=4)

    def test_score_normalizes_by_steps(self):
        h = Hypothesis(tokens=(5, 6), logp=-3.0, coverage=None, finished=True)
        assert h.steps == 3
        assert h.score == pytest.approx(-1.0)
        forced = Hypothesis(tokens=(5, 6), logp=-3.0, coverage=None)
        assert forced.steps == 2
        assert forced.score == pytest.approx(-1.5)


class TestBatchedBeam:
    @pytest.mark.parametrize("beam", [1, 4])
    @pytest.mark.parametrize(
        "pointer,coverage", [(True, True), (True, False), (False, True), (False, False)]
    )
    def test_batch_matches_solo(self, beam, pointer, coverage):
        # more than two chunks of sources, of mixed lengths and OOV counts
        cfg, params = fresh(use_pointer=pointer, use_coverage=coverage)
        # an end-token bias so that pools mix finished and forced hypotheses
        params["Out"]["vocab_b"].values[END_ID] += 2.0 if pointer else 1.0
        n = 2 * (ROW_BUDGET // beam) + 3
        examples = mixed_corpus(n)
        assert len({len(ex.src_ids) for ex in examples}) > 5
        assert len({len(ex.oovs) for ex in examples}) > 2
        pools = beam_search(params, cfg, examples, beam=beam, max_len=8)
        assert len(pools) == n
        finished = total = 0
        for ex, pool in zip(examples, pools):
            solo = beam_search(params, cfg, [ex], beam=beam, max_len=8)[0]
            assert [(h.tokens, h.finished) for h in pool] == [(h.tokens, h.finished) for h in solo]
            for h, s in zip(pool, solo):
                assert h.score == pytest.approx(s.score, rel=1e-10, abs=1e-10)
            finished += sum(h.finished for h in pool)
            total += len(pool)
        assert 0 < finished < total

    @pytest.mark.parametrize("beam", [1, 4])
    def test_steps_only_live_rows(self, beam, monkeypatch):
        # The encoder sees each source once.  Each decoder step sees only the
        # live hypotheses: as many as the chunk's sources still running hold
        # at that step when each is decoded alone.
        cfg, params = fresh()
        params["Out"]["vocab_b"].values[END_ID] += 2.0  # sources stop at different steps
        per_chunk = ROW_BUDGET // beam
        examples = mixed_corpus(2 * per_chunk + 3)
        encoded, stepped = [], []
        real_encode, real_step = decoding.encode, decoding.decode_step

        def counting_encode(params, cfg, batch):
            encoded.append(len(batch.src_ids))
            stepped.append([])
            return real_encode(params, cfg, batch)

        def counting_step(ctx, state, ids):
            stepped[-1].append(len(ids))
            return real_step(ctx, state, ids)

        monkeypatch.setattr(decoding, "encode", counting_encode)
        monkeypatch.setattr(decoding, "decode_step", counting_step)
        solo = []
        for ex in examples:
            beam_search(params, cfg, [ex], beam=beam, max_len=8)
            solo.append(stepped.pop())
        assert all(rows[0] == 1 and max(rows) <= beam for rows in solo)
        encoded.clear()
        beam_search(params, cfg, examples, beam=beam, max_len=8)
        assert encoded == [per_chunk, per_chunk, 3]
        assert len(stepped) == 3
        for c, rows in enumerate(stepped):
            chunk = solo[c * per_chunk : (c + 1) * per_chunk]
            assert rows[0] == len(chunk)
            assert rows == [
                sum(own[t] for own in chunk if t < len(own)) for t in range(max(map(len, chunk)))
            ]
            assert max(rows) <= ROW_BUDGET
        assert any(len(own) < len(stepped[0]) for own in solo[:per_chunk])

    def test_empty_input(self):
        cfg, params = fresh()
        assert beam_search(params, cfg, [], beam=4, max_len=5) == []


class TestScoreSequence:
    def test_rejects_out_of_range_ids(self):
        cfg, params = fresh()
        ex = one_example()
        too_big = cfg.vocab_size + len(ex.oovs)
        with pytest.raises(ContractError, match="outside extended"):
            score_sequence(params, cfg, ex, [too_big])

    def test_end_extends_sum(self):
        cfg, params = fresh()
        ex = one_example()
        base = score_sequence(params, cfg, ex, [4, 5])
        with_end = score_sequence(params, cfg, ex, [4, 5], include_end=True)
        assert with_end < base  # adds one more negative log term
