"""Model forward pass: shapes, distribution invariants, coverage, gradients."""

import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest

from conftest import TINY_SPEC, tiny_batch, tiny_config, tiny_examples
from seqlab import model as model_module
from seqlab import tensor as tensor_module
from seqlab.data import UNK_ID, encode_example, make_batch, Example
from seqlab.errors import ContractError
from seqlab.model import (
    MASK_PENALTY,
    ModelConfig,
    attention_query,
    attention_step,
    decode_step,
    encode,
    final_distribution,
    forward_loss,
    param_shapes,
    step_nll,
    vocab_distribution,
)
from seqlab.sharing import single_task_params
from seqlab.tensor import (
    Tensor,
    add,
    attention,
    backward,
    concat,
    getitem,
    gradient_check,
    lstm,
    matmul,
    minimum,
    multiply,
    no_grad,
    reduce_sum,
    reshape,
    scale,
    sigmoid,
    softmax,
    tanh,
    tensor,
)


class TestConfigAndShapes:
    def test_full_scale_preset(self):
        cfg = ModelConfig.full_scale()
        assert (cfg.vocab_size, cfg.emb_dim, cfg.hidden) == (50000, 128, 256)

    def test_bad_vocab_size(self):
        with pytest.raises(ContractError):
            ModelConfig(vocab_size=4)

    def test_bad_dtype(self):
        with pytest.raises(ContractError):
            ModelConfig(vocab_size=20, dtype="float16")

    def test_all_tags_covered(self):
        shapes = param_shapes(tiny_config())
        assert set(shapes) == {"Emb", "E1", "E2", "Attn", "D1", "D2", "Out", "Ptr"}

    def test_key_shapes(self):
        cfg = tiny_config()
        shapes = param_shapes(cfg)
        h, d, v, a = cfg.hidden, cfg.emb_dim, cfg.vocab_size, cfg.attention_dim
        assert shapes["Emb"]["table"] == (v, d)
        assert shapes["E2"]["fwd_w"] == (2 * h, 4 * h)   # layer 2 consumes both directions
        assert shapes["E2"]["fwd_u"] == (h, 4 * h)
        assert shapes["E2"]["fwd_b"] == (4 * h,)
        assert shapes["Attn"]["enc_w"] == (2 * h, a)
        assert shapes["Out"]["mix_w"] == (3 * h, h)
        assert shapes["Ptr"]["ctx_w"] == (2 * h, 1)
        assert shapes["D1"]["init_h_w"] == (2 * h, h)


def run_steps(cfg, params, batch, n_steps=None):
    """Drive decode_step by hand, one step per call; returns each step's
    outputs, [B, 1, ...]."""
    ctx = encode(params.groups, cfg, batch)
    state = ctx.init_state
    outs = []
    for t in range(n_steps or batch.dec_in.shape[1]):
        out, state = decode_step(ctx, state, batch.dec_in[:, t : t + 1])
        outs.append(out)
    return outs


class TestDistributionInvariants:
    def test_all_sum_to_one_and_nonnegative(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        for out in run_steps(cfg, params, batch):
            for dist in (out.alpha, out.vocab_dist, out.final_dist):
                v = dist.values
                assert (v >= 0).all()
                np.testing.assert_allclose(v.sum(axis=-1), 1.0, atol=1e-9)

    def test_masked_positions_exactly_zero(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        pad = batch.src_mask == 0
        assert pad.any(), "fixture should include padding"
        for out in run_steps(cfg, params, batch):
            assert (out.alpha.values[:, 0][pad] == 0.0).all()

    def test_p_gen_strictly_inside_unit_interval(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        for out in run_steps(cfg, params, batch):
            assert (out.p_gen.values > 0).all() and (out.p_gen.values < 1).all()

    def test_final_distribution_mixes_by_gate(self):
        p = tensor(np.array([[0.6]]))
        pv = tensor(np.array([[0.5, 0.5, 0.0]]))
        pc = tensor(np.array([[0.0, 0.5, 0.5]]))
        mixed = final_distribution(p, pv, pc)
        np.testing.assert_allclose(mixed.values, [[0.3, 0.5, 0.2]], atol=1e-15)

    def test_final_distribution_zero_extends_vocab(self):
        p = tensor(np.array([[0.5]]))
        pv = tensor(np.array([[1.0, 0.0]]))
        pc = tensor(np.array([[0.0, 0.0, 0.5, 0.5]]))
        mixed = final_distribution(p, pv, pc)
        np.testing.assert_allclose(mixed.values, [[0.5, 0.0, 0.25, 0.25]])

    def test_final_distribution_width_check(self):
        p = tensor(np.ones((1, 1)))
        with pytest.raises(ContractError):
            final_distribution(p, tensor(np.ones((1, 4))), tensor(np.ones((1, 2))))


class TestCoverage:
    def test_coverage_is_running_attention_sum(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        # coverage before step t equals the exact sum of earlier attentions
        acc = np.zeros_like(batch.src_mask)
        for out in run_steps(cfg, params, batch):
            np.testing.assert_array_equal(out.coverage.values[:, 0], acc)
            acc = acc + out.alpha.values[:, 0]

    def test_step_zero_coverage_term_is_exactly_zero(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        (out,) = run_steps(cfg, params, batch, n_steps=1)
        overlap = minimum(out.alpha, out.coverage)
        assert reduce_sum(overlap).item() == 0.0

    def test_overlap_term_value(self):
        alpha = tensor(np.array([0.6, 0.4]))
        cov = tensor(np.array([0.5, 1.0]))
        assert reduce_sum(minimum(alpha, cov)).item() == pytest.approx(0.9, abs=1e-15)

    def test_coverage_changes_loss(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        with_cov = forward_loss(params.groups, cfg, batch)
        without = forward_loss(params.groups, dataclasses.replace(cfg, use_coverage=False), batch)
        assert with_cov.coverage is not None and without.coverage is None
        assert with_cov.total.item() == pytest.approx(
            with_cov.nll.item() + with_cov.coverage.item()
        )
        assert without.total.item() == pytest.approx(without.nll.item())

    def test_cov_weight_scales_total(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        half = forward_loss(params.groups, cfg, batch, cov_weight=0.5)
        assert half.total.item() == pytest.approx(
            half.nll.item() + 0.5 * half.coverage.item()
        )


class TestPaddingInvariance:
    def test_extra_padding_changes_nothing(self):
        cfg = tiny_config()
        params = single_task_params(cfg, seed=3)
        vocab = TINY_SPEC.vocab()
        ex = encode_example(Example(("w01", "w02", "w03"), ("w01", "w02")), vocab)
        short = make_batch([ex])
        padded = make_batch([ex])
        extra = 3
        for name in ("src_ids", "src_ext"):
            arr = getattr(padded, name)
            setattr(padded, name, np.pad(arr, ((0, 0), (0, extra))))
        padded.src_mask = np.pad(padded.src_mask, ((0, 0), (0, extra)))

        loss_a = forward_loss(params.groups, cfg, short)
        loss_b = forward_loss(params.groups, cfg, padded)
        assert abs(loss_a.total.item() - loss_b.total.item()) < 1e-9
        alpha_a, alpha_b = loss_a.outputs.alpha.values, loss_b.outputs.alpha.values
        src_len = alpha_a.shape[-1]
        np.testing.assert_allclose(alpha_a, alpha_b[..., :src_len], atol=1e-9)
        assert (alpha_b[..., src_len:] == 0).all()


    @pytest.mark.parametrize("use_coverage", [True, False], ids=["coverage", "nocoverage"])
    def test_batch_equals_mean_of_single_examples(self, use_coverage):
        """Padding is inert: the loss of a ragged batch, and every parameter
        gradient, equal the mean over its examples run one per batch."""
        cfg = tiny_config(use_coverage=use_coverage)
        params = single_task_params(cfg, seed=6, init_range=0.5)
        spec = dataclasses.replace(TINY_SPEC, min_len=2, max_len=9)
        examples = tiny_examples(n=6, seed=3, spec=spec)
        assert len({len(e.src_ids) for e in examples}) >= 4, "sources must be ragged"
        assert len({len(e.tgt_ids) for e in examples}) >= 4, "targets must be ragged"
        flat = params.flat()

        def loss_and_gradients(batch):
            total = forward_loss(params.groups, cfg, batch).total
            grads = backward(total, wrt=flat.values())
            return total.item(), {k: grads[t] for k, t in flat.items()}

        got, got_g = loss_and_gradients(make_batch(examples))
        singles = [loss_and_gradients(make_batch([e])) for e in examples]
        want = np.mean([loss for loss, _ in singles])
        want_g = {k: np.mean([g[k] for _, g in singles], axis=0) for k in flat}
        assert abs(got - want) <= 1e-12 * abs(want)
        # As in TestWholeTargetLoss: each array is held to the largest entry
        # of the whole gradient.
        scale_ = max(np.abs(g).max() for g in want_g.values())
        for name in flat:
            assert np.abs(got_g[name] - want_g[name]).max() <= 1e-12 * scale_, name


class TestLossValues:
    def test_certain_prediction_gives_zero_nll(self):
        dist = tensor(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))
        logp = step_nll(dist, np.array([1, 0]))
        np.testing.assert_array_equal(logp.values, [0.0, 0.0])

    def test_gold_id_out_of_range(self):
        with pytest.raises(ContractError):
            step_nll(tensor(np.ones((1, 3)) / 3), np.array([3]))

    def test_gold_ids_must_match_rows(self):
        with pytest.raises(ContractError, match="do not match"):
            step_nll(tensor(np.ones((2, 4, 3)) / 3), np.zeros((2,), dtype=np.int64))

    def test_loss_finite_and_positive(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        loss = forward_loss(params.groups, cfg, batch)
        assert np.isfinite(loss.total.item())
        assert loss.nll.item() > 0
        assert loss.coverage.item() >= 0

    def test_no_pointer_collapses_oov_targets(self):
        cfg = tiny_config(use_pointer=False)
        params = single_task_params(cfg, seed=2)
        batch, _ = tiny_batch(with_oov=True)
        assert (batch.dec_out >= cfg.vocab_size).any(), "need OOV targets"
        out = forward_loss(params.groups, cfg, batch).outputs
        assert out.final_dist.shape == (*batch.dec_out.shape, cfg.vocab_size)
        assert out.p_gen is None

    def test_float32_mode_runs(self):
        cfg = tiny_config(dtype="float32")
        params = single_task_params(cfg, seed=2)
        batch, _ = tiny_batch()
        loss = forward_loss(params.groups, cfg, batch)
        assert loss.total.values.dtype == np.float32


class TestEncoderContracts:
    def test_empty_row_rejected(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        mask = batch.src_mask.copy()
        mask[0] = 0.0
        with pytest.raises(ContractError, match="real token"):
            encode(params.groups, cfg, dataclasses.replace(batch, src_mask=mask))

    def test_decode_step_rejects_extended_input_ids(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        ctx = encode(params.groups, cfg, batch)
        bad = np.full((batch.size, 1), cfg.vocab_size, dtype=np.int64)
        with pytest.raises(ContractError, match="in-vocabulary"):
            decode_step(ctx, ctx.init_state, bad)

    def test_final_encoder_state_ignores_padding(self):
        # A row padded by 3 ends in the same decoder start state as the
        # unpadded version of the same tokens.
        cfg = tiny_config()
        params = single_task_params(cfg, seed=5)
        vocab = TINY_SPEC.vocab()
        ex = encode_example(Example(("w04", "w05"), ("w04",)), vocab)
        a = make_batch([ex])
        pad = {k: np.pad(getattr(a, k), ((0, 0), (0, 3))) for k in ("src_ids", "src_ext", "src_mask")}
        start_a = encode(params.groups, cfg, a).init_state
        start_b = encode(params.groups, cfg, dataclasses.replace(a, **pad)).init_state
        for x, y in zip(start_a[:4], start_b[:4]):  # h1, c1, h2, c2
            np.testing.assert_allclose(x.values, y.values, atol=1e-12)


class TestAttention:
    def test_attention_without_coverage_feature(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        ctx = encode(params.groups, cfg, batch)
        dec_state = reshape(ctx.init_state[2], (batch.size, 1, -1))
        query = attention_query(params.groups["Attn"], dec_state)
        alpha, context, started, after = attention_step(ctx, query, None)
        assert alpha.shape == (batch.size, 1, batch.src_ids.shape[1])
        assert context.shape == (batch.size, 1, 2 * cfg.hidden)
        assert started is None and after is None
        np.testing.assert_allclose(alpha.values.sum(axis=-1), 1.0, atol=1e-12)

    def test_coverage_feature_shifts_attention(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        ctx = encode(params.groups, cfg, batch)
        dec_state = reshape(ctx.init_state[2], (batch.size, 1, -1))
        query = attention_query(params.groups["Attn"], dec_state)
        base, *_ = attention_step(ctx, query, None)
        # uneven coverage: softmax cancels a uniform feature, so load one side
        lopsided = np.zeros_like(batch.src_mask)
        lopsided[:, 0] = 5.0
        loaded, _, started, after = attention_step(ctx, query, tensor(lopsided))
        assert not np.allclose(base.values, loaded.values)
        np.testing.assert_array_equal(started.values[:, 0], lopsided)
        np.testing.assert_array_equal(after.values, lopsided + loaded.values[:, 0])


def composite_attention(enc_feat, query, states, cov_w, score_v, penalty, coverage=None):
    """The oracle for `attention`: additive attention built from primitive
    ops one target step at a time, as the model computed it before the fused
    op, with each step's outputs laid out like the op's.

    Step t adds the coverage feature, takes tanh and the score, the masked
    softmax and the context, then adds its attention to the coverage.
    """
    bsz, src, _ = enc_feat.shape
    steps = []
    for t in range(query.shape[1]):
        feats = add(enc_feat, reshape(getitem(query, (slice(None), t)), (bsz, 1, -1)))
        if coverage is not None:
            feats = add(feats, multiply(reshape(coverage, (bsz, src, 1)), cov_w))
        scores = matmul(tanh(feats), score_v)      # [B, S]
        alpha = softmax(add(scores, penalty))
        context = reshape(matmul(reshape(alpha, (bsz, 1, src)), states), (bsz, -1))
        if coverage is None:
            steps.append(concat([alpha, context]))
        else:
            steps.append(concat([alpha, context, coverage]))
            coverage = add(coverage, alpha)
    return reshape(concat(steps), (bsz, len(steps), -1))


# (name, target steps, real source tokens per row or None, start coverage)
ATTENTION_CASES = [
    ("one-step", 1, None, None),
    ("one-step-coverage", 1, None, "zero"),
    ("one-step-loaded", 1, (5, 3, 1), "loaded"),
    ("steps", 4, None, None),
    ("steps-coverage", 4, None, "zero"),
    ("padded", 4, (5, 3, 1), None),
    ("padded-coverage", 4, (5, 3, 1), "zero"),
    ("padded-loaded", 4, (5, 3, 1), "loaded"),
]


def attention_inputs(steps, lengths, start, bsz=3, src=5, dim=4, width=6, seed=0):
    """Random inputs of `attention`, keyed like its parameters; the penalty
    masks the positions past each row's length, and a loaded coverage is
    uneven over the real positions."""
    rng = np.random.default_rng(seed)
    mask = np.ones((bsz, src))
    if lengths is not None:
        mask = (np.arange(src)[None, :] < np.array(lengths)[:, None]).astype(np.float64)
    arrays = {
        "enc_feat": rng.normal(size=(bsz, src, dim)),
        "query": rng.normal(size=(bsz, steps, dim)),
        "states": rng.normal(size=(bsz, src, width)),
        "cov_w": rng.normal(size=dim),
        "score_v": rng.normal(size=dim),
        "penalty": (1.0 - mask) * MASK_PENALTY,
    }
    if start == "zero":
        arrays["coverage"] = np.zeros((bsz, src))
    elif start == "loaded":
        arrays["coverage"] = rng.uniform(0.0, 1.5, size=(bsz, src)) * mask
    return arrays


@pytest.mark.parametrize(
    "steps,lengths,start", [c[1:] for c in ATTENTION_CASES], ids=[c[0] for c in ATTENTION_CASES]
)
class TestAttentionOp:
    """The fused `attention` op against the per-step attention it replaced."""

    def weighted_loss(self, op):
        def build(leaves):
            out = op(**leaves)
            weights = np.random.default_rng(11).normal(size=out.shape)
            return reduce_sum(multiply(out, tensor(weights.astype(out.dtype))))

        return build

    def test_values_match_composite(self, steps, lengths, start):
        leaves = {k: tensor(v) for k, v in attention_inputs(steps, lengths, start).items()}
        fused = attention(**leaves).values
        oracle = composite_attention(**leaves).values
        assert fused.shape == oracle.shape
        assert rel_diff(fused, oracle) <= 1e-12

    def test_gradients_match_composite(self, steps, lengths, start):
        arrays = attention_inputs(steps, lengths, start)
        grads = []
        for op in (attention, composite_attention):
            leaves = {k: tensor(v) for k, v in arrays.items()}
            got = backward(self.weighted_loss(op)(leaves), wrt=leaves.values())
            grads.append({k: got[t] for k, t in leaves.items()})
        for k in arrays:
            got, want = grads[0][k], grads[1][k]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), k

    @pytest.mark.parametrize("run", [1, 3])
    def test_runs_of_steps_match_one_run(self, steps, lengths, start, run, monkeypatch):
        # A budget of `run` steps' features splits the VJP, and the no_grad
        # forward, into runs of target steps: the values do not move, and
        # the gradients only by rounding.
        arrays = attention_inputs(steps, lengths, start)
        results = []
        for budget in (tensor_module.ATTENTION_BLOCK, run * 3 * 5 * 4):
            monkeypatch.setattr(tensor_module, "ATTENTION_BLOCK", budget)
            leaves = {k: tensor(v) for k, v in arrays.items()}
            with no_grad():
                silent = attention(**leaves).values
            root = self.weighted_loss(attention)(leaves)
            out = root.parents[0].parents[0].values
            got = backward(root, wrt=leaves.values())
            results.append((out, silent, {k: got[t] for k, t in leaves.items()}))
        (whole, whole_silent, want), (split, split_silent, grads) = results
        assert whole.tobytes() == split.tobytes() == whole_silent.tobytes() == split_silent.tobytes()
        for k in arrays:
            assert np.abs(grads[k] - want[k]).max() <= 1e-14 * np.abs(want[k]).max(), k

    def test_gradient_check(self, steps, lengths, start):
        # The smallest entries (about 1e-5 of enc_feat) carry central
        # difference noise of about 1e-11, so 1e-6 would fail on noise.
        arrays = attention_inputs(steps, lengths, start)
        report = gradient_check(self.weighted_loss(attention), arrays, tolerance=1e-5)
        assert report.passed, report.summary()

    def test_float32(self, steps, lengths, start):
        arrays = attention_inputs(steps, lengths, start)
        oracle = composite_attention(**{k: tensor(v) for k, v in arrays.items()}).values
        out = attention(**{k: tensor(v, dtype=np.float32) for k, v in arrays.items()})
        assert out.dtype == np.float32
        assert rel_diff(out.values.astype(np.float64), oracle) <= 1e-5


def stepwise_loss(params, cfg, batch, cov_weight=1.0):
    """The oracle for `forward_loss`: the teacher-forced loss built from one
    `decode_step` call per target step (given that step's column of the
    target mask), with attention built by
    `composite_attention` in place of the fused op, and each step's terms
    masked and summed in order.  The coverage term reads a running sum of
    the steps' attention kept here, not the decoder's own coverage.

    Returns (nll, coverage, total, the StepOutput of every step, [B, 1, ...]).
    """
    dt = cfg.np_dtype
    bsz, dec_len = batch.dec_in.shape
    gold = batch.dec_out
    if not cfg.use_pointer:
        gold = np.where(gold >= cfg.vocab_size, UNK_ID, gold)
    ctx = encode(params, cfg, batch)
    state = ctx.init_state
    coverage = tensor(np.zeros((bsz, 1, batch.src_ids.shape[1]), dtype=dt))
    nll_acc = cov_acc = None
    outs = []
    # Each step's input and mask, as `forward_loss` passes them: a row's
    # decoder state holds over its padded steps.
    steps = (batch.dec_in, batch.dec_mask)
    for t in range(dec_len):
        with mock.patch.object(model_module, "attention", composite_attention):
            out, state = decode_step(ctx, state, *(a[:, t : t + 1] for a in steps))
        mask = tensor(batch.dec_mask[:, t : t + 1].astype(dt))
        logp = multiply(step_nll(out.final_dist, gold[:, t : t + 1]), mask)
        nll_acc = logp if nll_acc is None else add(nll_acc, logp)
        if cfg.use_coverage:
            overlap = multiply(reduce_sum(minimum(out.alpha, coverage), axis=-1), mask)
            cov_acc = overlap if cov_acc is None else add(cov_acc, overlap)
            coverage = add(coverage, out.alpha)
        outs.append(out)
    inv_steps = tensor((1.0 / batch.dec_mask.sum(axis=1, keepdims=True)).astype(dt))
    nll = scale(reduce_sum(multiply(nll_acc, inv_steps)), -1.0 / bsz)
    if cov_acc is None:
        return nll, None, nll, outs
    cov = scale(reduce_sum(multiply(cov_acc, inv_steps)), 1.0 / bsz)
    return nll, cov, add(nll, scale(cov, cov_weight)), outs


def tape_size(root):
    """Number of op nodes reachable from `root`."""
    seen, stack, n = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        n += node.op is not None
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return n


def close(got, want, tol):
    """Largest difference within `tol` of the largest entry of `want`."""
    return np.abs(got - want).max() <= tol * np.abs(want).max()


STEP_FIELDS = ("alpha", "context", "vocab_dist", "final_dist", "p_gen", "coverage")
SWITCHES = [(True, True), (True, False), (False, True), (False, False)]
SWITCH_IDS = ["pointer-coverage", "pointer-nocoverage", "nopointer-coverage", "nopointer-nocoverage"]


@pytest.mark.parametrize("use_pointer,use_coverage", SWITCHES, ids=SWITCH_IDS)
class TestWholeTargetLoss:
    """`forward_loss` runs the decoder over the whole target at once; it must
    equal the step-by-step loss through `decode_step`."""

    # float64 matches to rounding; float32 carries about 7 digits, and the
    # sums over steps and rows round differently in the two forms.
    TOL = {"float64": 1e-12, "float32": 1e-5}

    def inputs(self, use_pointer, use_coverage, dtype):
        cfg = tiny_config(use_pointer=use_pointer, use_coverage=use_coverage, dtype=dtype)
        params = single_task_params(cfg, seed=4)
        batch, _ = tiny_batch(n=5, seed=2)
        lengths = batch.dec_mask.sum(axis=1)
        assert len(set(lengths.tolist())) > 1, "targets must have uneven lengths"
        assert (batch.dec_out >= cfg.vocab_size).any(), "targets must copy OOVs"
        for name in ("src_mask", "dec_mask"):
            setattr(batch, name, getattr(batch, name).astype(cfg.np_dtype))
        return cfg, params, batch

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_loss_and_gradients_match_stepwise(self, use_pointer, use_coverage, dtype):
        cfg, params, batch = self.inputs(use_pointer, use_coverage, dtype)
        tol = self.TOL[dtype]
        flat = params.flat()

        def gradients(total):
            grads = backward(total, wrt=flat.values())
            return {k: grads[t] for k, t in flat.items()}

        want_nll, want_cov, want_total, _ = stepwise_loss(params.groups, cfg, batch, 0.7)
        want_g = gradients(want_total)
        parts = forward_loss(params.groups, cfg, batch, cov_weight=0.7)
        got_g = gradients(parts.total)
        assert parts.total.dtype == np.dtype(dtype)
        assert close(parts.total.values, want_total.values, tol)
        assert close(parts.nll.values, want_nll.values, tol)
        if use_coverage:
            assert want_cov.item() > 0
            assert close(parts.coverage.values, want_cov.values, tol)
        else:
            assert parts.coverage is None and want_cov is None
        # A gradient entry's rounding error scales with the terms summed into
        # it, not with the entry: Attn/bias sums terms the size of the other
        # entries to about 1e-9.  So every array is held to the largest entry
        # of the whole gradient.
        scale_ = max(np.abs(g).max() for g in want_g.values())
        for name in flat:
            assert np.abs(got_g[name] - want_g[name]).max() <= tol * scale_, name

    def test_collected_steps_are_decode_step_outputs(self, use_pointer, use_coverage):
        cfg, params, batch = self.inputs(use_pointer, use_coverage, "float64")
        *_, want = stepwise_loss(params.groups, cfg, batch)
        got = forward_loss(params.groups, cfg, batch).outputs
        assert (got.p_gen is None) == (not use_pointer)
        assert len(want) == batch.dec_in.shape[1]
        assert (got.coverage is None) == (not use_coverage)
        for t, w in enumerate(want):
            for name in STEP_FIELDS:
                gv, wv = getattr(got, name), getattr(w, name)
                assert (gv is None) == (wv is None), name
                if wv is not None:
                    step = gv.values[:, t : t + 1]
                    assert step.shape == wv.shape, name
                    assert close(step, wv.values, 1e-12), name

    def test_one_call_matches_one_step_calls(self, use_pointer, use_coverage):
        """`decode_step` over T steps equals T calls of one step each: every
        output and the final state, coverage included."""
        cfg, params, batch = self.inputs(use_pointer, use_coverage, "float64")
        ctx = encode(params.groups, cfg, batch)
        got, got_state = decode_step(ctx, ctx.init_state, batch.dec_in)
        state, steps = ctx.init_state, []
        for t in range(batch.dec_in.shape[1]):
            out, state = decode_step(ctx, state, batch.dec_in[:, t : t + 1])
            steps.append(out)
        for name in STEP_FIELDS:
            gv = getattr(got, name)
            if name == "p_gen" and not use_pointer or name == "coverage" and not use_coverage:
                assert gv is None and all(getattr(w, name) is None for w in steps), name
                continue
            want = np.concatenate([getattr(w, name).values for w in steps], axis=1)
            assert gv.shape == want.shape, name
            assert close(gv.values, want, 1e-12), name
        assert (got_state[4] is None) == (not use_coverage)
        for g, w in zip(got_state, state):
            if w is not None:
                assert close(g.values, w.values, 1e-12)

    def test_tape_size_does_not_grow_with_the_target(self, use_pointer, use_coverage):
        """Every op of the loss, attention included, covers all target steps
        at once: the tape is the same size for every target length."""
        cfg, params, batch = self.inputs(use_pointer, use_coverage, "float64")

        def nodes(steps):
            cut = copy.copy(batch)
            for name in ("dec_in", "dec_out", "dec_mask"):
                setattr(cut, name, getattr(batch, name)[:, :steps])
            return tape_size(forward_loss(params.groups, cfg, cut).total)

        assert batch.dec_in.shape[1] >= 4
        assert nodes(2) == nodes(3) == nodes(4)


class TestModelGradients:
    # Step 1e-4 balances truncation against float64 cancellation noise on
    # the smallest-magnitude coordinates of the full model.  With a switch
    # off, some coordinates fall to ~3e-9 (Attn/dec_w, D1/init_h_w without
    # the pointer), where that noise (~1e-11 on a loss near 3) alone
    # exceeds 5e-5 relative under the checker's 1e-8 floor, or sits at
    # 4.96e-5 (E1/bwd_u without coverage); those cases probe with 1e-3.
    @pytest.mark.parametrize(
        "use_pointer,use_coverage,step",
        [(True, True, 1e-4), (True, False, 1e-3), (False, True, 1e-3), (False, False, 1e-3)],
        ids=[
            "pointer-coverage", "pointer-nocoverage", "nopointer-coverage", "nopointer-nocoverage"
        ],
    )
    def test_full_loss_gradient_check_small(self, use_pointer, use_coverage, step):
        """Every parameter of a small model against central differences."""
        spec = TINY_SPEC
        vocab = spec.vocab()
        cfg = ModelConfig(
            vocab_size=len(vocab), emb_dim=3, hidden=3, attn_dim=4,
            use_pointer=use_pointer, use_coverage=use_coverage,
        )
        params = single_task_params(cfg, seed=7, init_range=0.5)
        rng = np.random.default_rng(3)
        from seqlab.data import gen_copy
        enc = [encode_example(e, vocab) for e in gen_copy(rng, 2, spec)]
        batch = make_batch(enc)
        arrays = {k: t.values for k, t in params.flat().items()}

        def build(leaves):
            groups = {tag: {} for tag in params.groups}
            for key, leaf in leaves.items():
                tag, name = key.split("/")
                groups[tag][name] = leaf
            return forward_loss(groups, cfg, batch).total

        report = gradient_check(build, arrays, step=step, tolerance=5e-5)
        assert report.passed, report.summary()

    def test_backward_into_matches_the_adjoint_map(self):
        """`backward(..., into=...)` writes into the training arena, bit for
        bit, the adjoints it returns in fresh arrays without `into`, on a
        gate-size copy-oov batch with coverage."""
        from seqlab.data import SynthSpec, make_task_corpora
        from seqlab.sharing import ParamRegistry, SharingPlan

        spec = SynthSpec()
        vocab = spec.vocab()
        cfg = ModelConfig(vocab_size=len(vocab), emb_dim=16, hidden=32)
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=1e-6), seed=1, init_range=0.1)
        params = reg.add_task("copy-oov")
        corp = make_task_corpora("copy-oov", seed=1, sizes=(8, 2, 2), spec=spec)
        batch = make_batch([encode_example(ex, vocab) for ex in corp.train])
        wrt = params.flat()

        want = backward(forward_loss(params, cfg, batch).total, wrt=wrt.values())

        arena = np.full(reg.layout.size, np.nan)
        views = reg.layout.views(arena)
        got = backward(forward_loss(params, cfg, batch).total, wrt=wrt.values(), into=views.values())
        assert list(got) == list(wrt.values())
        for key, t in wrt.items():
            assert got[t] is views[key]
            np.testing.assert_array_equal(views[key], want[t], err_msg=key)


def per_gate_lstm(x, w, u, b, h0, c0, keep=None, reverse=False):
    """The oracle for `lstm`: an LSTM built one tape op at a time.

    The fused arrays are split into their (i, f, g, o) blocks, and every
    step runs 8 matmuls, 8 adds and the four gate nonlinearities, then
    blends the new state with the old one through the keep mask.  Returns
    [B, T, 2h] laid out like `lstm`'s output.
    """
    bsz, steps, _ = x.shape
    hid = u.shape[0]

    def blocks(t):
        return [getitem(t, (..., slice(k * hid, (k + 1) * hid))) for k in range(4)]

    cells = list(zip(blocks(w), blocks(u), blocks(b)))
    h, c = h0, c0
    outs = [None] * steps
    for t in range(steps - 1, -1, -1) if reverse else range(steps):
        xt = getitem(x, (slice(None), t))
        i, f, g, o = (add(add(matmul(xt, wk), matmul(h, uk)), bk) for wk, uk, bk in cells)
        i, f, g, o = sigmoid(i), sigmoid(f), tanh(g), sigmoid(o)
        c_new = add(multiply(f, c), multiply(i, g))
        h_new = multiply(o, tanh(c_new))
        if keep is None:
            h, c = h_new, c_new
        else:
            col = keep[:, t : t + 1].astype(x.dtype)
            k, drop = tensor(col), tensor(1.0 - col)
            h = add(multiply(h_new, k), multiply(h, drop))
            c = add(multiply(c_new, k), multiply(c, drop))
        outs[t] = concat([h, c])
    return reshape(concat(outs), (bsz, steps, 2 * hid))


# Six rows of distinct lengths, unsorted: one row has no real step, steps
# 4 and 5 have exactly one row running, and step 6 none.
RAGGED = (2, 6, 0, 4, 1, 3)

# (name, steps, real tokens per row or None, reverse, zero start state)
LSTM_CASES = [
    ("forward", 5, None, False, True),
    ("reverse", 5, None, True, True),
    ("padded-forward", 5, (5, 3, 1), False, True),
    ("padded-reverse", 5, (5, 3, 1), True, True),
    ("one-step", 1, None, False, False),
    ("one-step-padded", 1, (1, 0, 1), False, False),
    ("ragged-forward", 7, RAGGED, False, False),
    ("ragged-reverse", 7, RAGGED, True, False),
]


def lstm_inputs(steps, lengths, zero_start, in_dim=4, hid=3, bsz=3, seed=0):
    """Random inputs; with `lengths`, one row per entry and the keep mask."""
    if lengths is not None:
        bsz = len(lengths)
    rng = np.random.default_rng(seed)
    arrays = {
        "x": rng.normal(size=(bsz, steps, in_dim)),
        "w": rng.normal(scale=0.5, size=(in_dim, 4 * hid)),
        "u": rng.normal(scale=0.5, size=(hid, 4 * hid)),
        "b": rng.normal(scale=0.5, size=(4 * hid,)),
        "h0": np.zeros((bsz, hid)) if zero_start else rng.normal(size=(bsz, hid)),
        "c0": np.zeros((bsz, hid)) if zero_start else rng.normal(size=(bsz, hid)),
    }
    keep = None
    if lengths is not None:
        keep = (np.arange(steps)[None, :] < np.array(lengths)[:, None]).astype(np.float64)
    return arrays, keep


def rel_diff(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


@pytest.mark.parametrize(
    "steps,lengths,reverse,zero_start", [c[1:] for c in LSTM_CASES], ids=[c[0] for c in LSTM_CASES]
)
class TestFusedLSTM:
    """The fused `lstm` op against the per-gate cell it replaced."""

    ORDER = ("x", "w", "u", "b", "h0", "c0")

    def weighted_loss(self, op, keep, reverse):
        def build(leaves):
            out = op(*(leaves[k] for k in self.ORDER), keep, reverse)
            weights = np.random.default_rng(11).normal(size=out.shape)
            return reduce_sum(multiply(out, tensor(weights.astype(out.dtype))))

        return build

    def test_values_match_per_gate_cell(self, steps, lengths, reverse, zero_start):
        arrays, keep = lstm_inputs(steps, lengths, zero_start)
        leaves = [tensor(arrays[k]) for k in self.ORDER]
        fused = lstm(*leaves, keep, reverse).values
        oracle = per_gate_lstm(*leaves, keep, reverse).values
        assert fused.shape == oracle.shape
        assert rel_diff(fused, oracle) <= 1e-12

    def test_gradients_match_per_gate_cell(self, steps, lengths, reverse, zero_start):
        arrays, keep = lstm_inputs(steps, lengths, zero_start)
        grads = []
        for op in (lstm, per_gate_lstm):
            leaves = {k: tensor(v) for k, v in arrays.items()}
            got = backward(self.weighted_loss(op, keep, reverse)(leaves), wrt=leaves.values())
            grads.append({k: got[t] for k, t in leaves.items()})
        for k in self.ORDER:
            assert rel_diff(grads[0][k], grads[1][k]) <= 1e-12, k

    def test_gradient_check(self, steps, lengths, reverse, zero_start):
        arrays, keep = lstm_inputs(steps, lengths, zero_start)
        report = gradient_check(self.weighted_loss(lstm, keep, reverse), arrays, tolerance=1e-6)
        assert report.passed, report.summary()

    def test_float32(self, steps, lengths, reverse, zero_start):
        arrays, keep = lstm_inputs(steps, lengths, zero_start)
        oracle = per_gate_lstm(*(tensor(arrays[k]) for k in self.ORDER), keep, reverse).values
        out = lstm(*(tensor(arrays[k], dtype=np.float32) for k in self.ORDER), keep, reverse)
        assert out.dtype == np.float32
        assert rel_diff(out.values.astype(np.float64), oracle) <= 1e-5


def test_lstm_rejects_real_steps_after_padding():
    arrays, _ = lstm_inputs(3, None, zero_start=True)
    keep = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ContractError, match="lstm"):
        lstm(*(tensor(arrays[k]) for k in TestFusedLSTM.ORDER), keep)


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
def test_lstm_padded_steps_hold_the_state_exactly(reverse):
    lengths = (5, 3, 1)
    arrays, keep = lstm_inputs(5, lengths, zero_start=False)
    out = lstm(*(tensor(arrays[k]) for k in TestFusedLSTM.ORDER), keep, reverse).values
    start = np.concatenate([arrays["h0"], arrays["c0"]], axis=-1)
    for row, n in enumerate(lengths):
        # Forward, padding holds the last real step's state; reversed, the
        # padded tail runs first and holds the start state.
        held = start[row] if reverse else out[row, n - 1]
        for t in range(n, 5):
            np.testing.assert_array_equal(out[row, t], held)


# (name, steps, real tokens per row or None, zero start state)
BIDIRECTIONAL_CASES = [
    ("full", 5, None, True),
    ("padded-one-token-row", 5, (5, 3, 1), True),
    ("padded-loaded-start", 5, (5, 3, 1), False),
    ("one-step", 1, None, False),
    ("ragged", 7, RAGGED, False),
]
BIDIRECTIONAL_ORDER = ("x", "w", "u", "b", "h0", "c0", "bw", "bu", "bb")


def bidirectional_inputs(steps, lengths, zero_start):
    """Two cells' inputs for one layer: the second cell's arrays are named
    with a leading ``b``, and the start states hold both cells' side by side."""
    arrays, keep = lstm_inputs(steps, lengths, zero_start)
    back, _ = lstm_inputs(steps, lengths, zero_start, seed=1)
    for k in ("w", "u", "b"):
        arrays["b" + k] = back[k]
    for k in ("h0", "c0"):
        arrays[k] = np.concatenate([arrays[k], back[k]], axis=-1)
    return arrays, keep


def bidirectional(leaves, keep):
    x, w, u, b, h0, c0, bw, bu, bb = (leaves[k] for k in BIDIRECTIONAL_ORDER)
    return lstm(x, w, u, b, h0, c0, keep, back=(bw, bu, bb))


def two_one_direction_runs(leaves, keep, op=lstm):
    """A forward and a reverse `op` call (`lstm` or `per_gate_lstm`), laid
    out like one `lstm` call with both: the two h, then the two c."""
    x, w, u, b, h0, c0, bw, bu, bb = (leaves[k] for k in BIDIRECTIONAL_ORDER)
    hid = u.shape[0]
    first, second = (slice(None), slice(None, hid)), (slice(None), slice(hid, None))
    fwd = op(x, w, u, b, getitem(h0, first), getitem(c0, first), keep)
    bwd = op(x, bw, bu, bb, getitem(h0, second), getitem(c0, second), keep, reverse=True)
    h, c = (..., slice(None, hid)), (..., slice(hid, None))
    return concat([getitem(fwd, h), getitem(bwd, h), getitem(fwd, c), getitem(bwd, c)])


@pytest.mark.parametrize(
    "steps,lengths,zero_start",
    [c[1:] for c in BIDIRECTIONAL_CASES],
    ids=[c[0] for c in BIDIRECTIONAL_CASES],
)
class TestBidirectionalLSTM:
    """One `lstm` call with both directions against two one-direction calls."""

    def weighted_loss(self, op, keep):
        def build(leaves):
            out = op(leaves, keep)
            weights = np.random.default_rng(11).normal(size=out.shape)
            return reduce_sum(multiply(out, tensor(weights.astype(out.dtype))))

        return build

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_values_equal_two_runs(self, steps, lengths, zero_start, dtype):
        arrays, keep = bidirectional_inputs(steps, lengths, zero_start)
        leaves = {k: tensor(v, dtype=dtype) for k, v in arrays.items()}
        both = bidirectional(leaves, keep).values
        assert both.dtype == dtype
        np.testing.assert_array_equal(both, two_one_direction_runs(leaves, keep).values)

    def test_float32_against_float64(self, steps, lengths, zero_start):
        arrays, keep = bidirectional_inputs(steps, lengths, zero_start)
        want = bidirectional({k: tensor(v) for k, v in arrays.items()}, keep).values
        got = bidirectional({k: tensor(v, dtype=np.float32) for k, v in arrays.items()}, keep)
        assert rel_diff(got.values.astype(np.float64), want) <= 1e-5

    def test_gradients_match_two_runs(self, steps, lengths, zero_start):
        arrays, keep = bidirectional_inputs(steps, lengths, zero_start)
        grads = []
        for op in (bidirectional, two_one_direction_runs):
            leaves = {k: tensor(v) for k, v in arrays.items()}
            got = backward(self.weighted_loss(op, keep)(leaves), wrt=leaves.values())
            grads.append({k: got[t] for k, t in leaves.items()})
        for k in BIDIRECTIONAL_ORDER:
            assert rel_diff(grads[0][k], grads[1][k]) <= 1e-12, k

    def test_gradient_check(self, steps, lengths, zero_start):
        arrays, keep = bidirectional_inputs(steps, lengths, zero_start)
        report = gradient_check(self.weighted_loss(bidirectional, keep), arrays, tolerance=1e-6)
        assert report.passed, report.summary()

    def test_values_match_per_gate_cells(self, steps, lengths, zero_start):
        arrays, keep = bidirectional_inputs(steps, lengths, zero_start)
        leaves = {k: tensor(v) for k, v in arrays.items()}
        oracle = two_one_direction_runs(leaves, keep, per_gate_lstm).values
        assert rel_diff(bidirectional(leaves, keep).values, oracle) <= 1e-12

    def test_gradients_match_per_gate_cells(self, steps, lengths, zero_start):
        arrays, keep = bidirectional_inputs(steps, lengths, zero_start)
        per_gate = lambda leaves, keep: two_one_direction_runs(leaves, keep, per_gate_lstm)
        grads = []
        for op in (bidirectional, per_gate):
            leaves = {k: tensor(v) for k, v in arrays.items()}
            got = backward(self.weighted_loss(op, keep)(leaves), wrt=leaves.values())
            grads.append({k: got[t] for k, t in leaves.items()})
        for k in BIDIRECTIONAL_ORDER:
            assert rel_diff(grads[0][k], grads[1][k]) <= 1e-12, k
