"""Model forward pass: shapes, distribution invariants, coverage, gradients."""

import copy

import numpy as np
import pytest

from conftest import TINY_SPEC, tiny_batch, tiny_config
from seqlab.data import UNK_ID, encode_example, make_batch, Example
from seqlab.errors import ContractError
from seqlab.model import (
    ModelConfig,
    attention_query,
    attention_step,
    decode_step,
    encode,
    final_distribution,
    forward_loss,
    mask_penalty,
    param_shapes,
    step_nll,
    vocab_distribution,
)
from seqlab.sharing import single_task_params
from seqlab.tensor import (
    Tensor,
    add,
    backward,
    concat,
    getitem,
    gradient_check,
    lstm,
    matmul,
    minimum,
    multiply,
    reduce_sum,
    reshape,
    scale,
    sigmoid,
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


def run_steps(cfg, params, batch, n_steps=None, use_coverage=True):
    """Drive decode_step by hand, returning per-step outputs and coverages."""
    from seqlab.model import prepare_decoder
    from seqlab.tensor import add

    enc = encode(params.groups, cfg, batch.src_ids, batch.src_mask)
    ctx = prepare_decoder(params.groups, cfg, enc, batch.src_mask, batch.src_ext, batch.max_oov)
    state = ctx.init_state
    coverage = ctx.fresh_coverage() if use_coverage else None
    outs, covs = [], []
    steps = n_steps or batch.dec_in.shape[1]
    for t in range(steps):
        covs.append(None if coverage is None else coverage.values.copy())
        out, state = decode_step(ctx, state, batch.dec_in[:, t], coverage)
        if coverage is not None:
            coverage = add(coverage, out.alpha)
        outs.append(out)
    return outs, covs


class TestDistributionInvariants:
    def test_all_sum_to_one_and_nonnegative(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        outs, _ = run_steps(cfg, params, batch)
        for out in outs:
            for dist in (out.alpha, out.vocab_dist, out.final_dist):
                v = dist.values
                assert (v >= 0).all()
                np.testing.assert_allclose(v.sum(axis=-1), 1.0, atol=1e-9)

    def test_masked_positions_exactly_zero(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        outs, _ = run_steps(cfg, params, batch)
        pad = batch.src_mask == 0
        assert pad.any(), "fixture should include padding"
        for out in outs:
            assert (out.alpha.values[pad] == 0.0).all()

    def test_p_gen_strictly_inside_unit_interval(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        outs, _ = run_steps(cfg, params, batch)
        for out in outs:
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
        outs, covs = run_steps(cfg, params, batch)
        # coverage before step t equals the exact sum of earlier attentions
        acc = np.zeros_like(batch.src_mask)
        for out, cov in zip(outs, covs):
            np.testing.assert_array_equal(cov, acc)
            acc = acc + out.alpha.values

    def test_step_zero_coverage_term_is_exactly_zero(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        outs, covs = run_steps(cfg, params, batch, n_steps=1)
        overlap = minimum(outs[0].alpha, tensor(covs[0]))
        assert reduce_sum(overlap).item() == 0.0

    def test_overlap_term_value(self):
        alpha = tensor(np.array([0.6, 0.4]))
        cov = tensor(np.array([0.5, 1.0]))
        assert reduce_sum(minimum(alpha, cov)).item() == pytest.approx(0.9, abs=1e-15)

    def test_coverage_changes_loss(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        with_cov = forward_loss(params.groups, cfg, batch, use_coverage=True)
        without = forward_loss(params.groups, cfg, batch, use_coverage=False)
        assert with_cov.coverage is not None and without.coverage is None
        assert with_cov.total.item() == pytest.approx(
            with_cov.nll.item() + with_cov.coverage.item()
        )
        assert without.total.item() == pytest.approx(without.nll.item())

    def test_coverage_cannot_be_forced_on(self, tiny_setup):
        _, params, batch, _ = tiny_setup
        cfg = tiny_config(use_coverage=False)
        with pytest.raises(ContractError, match="use_coverage"):
            forward_loss(params.groups, cfg, batch, use_coverage=True)
        assert forward_loss(params.groups, cfg, batch).coverage is None

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
            encode(params.groups, cfg, batch.src_ids, mask)

    def test_decode_step_rejects_extended_input_ids(self, tiny_setup):
        from seqlab.model import prepare_decoder

        cfg, params, batch, _ = tiny_setup
        enc = encode(params.groups, cfg, batch.src_ids, batch.src_mask)
        ctx = prepare_decoder(params.groups, cfg, enc, batch.src_mask, batch.src_ext, batch.max_oov)
        bad = np.full(batch.size, cfg.vocab_size, dtype=np.int64)
        with pytest.raises(ContractError, match="in-vocabulary"):
            decode_step(ctx, ctx.init_state, bad, None)

    def test_final_encoder_state_ignores_padding(self):
        # A row padded by 3 ends in the same decoder start state as the
        # unpadded version of the same tokens.
        cfg = tiny_config()
        params = single_task_params(cfg, seed=5)
        vocab = TINY_SPEC.vocab()
        ex = encode_example(Example(("w04", "w05"), ("w04",)), vocab)
        a = make_batch([ex])
        enc_a = encode(params.groups, cfg, a.src_ids, a.src_mask)
        ids = np.pad(a.src_ids, ((0, 0), (0, 3)))
        mask = np.pad(a.src_mask, ((0, 0), (0, 3)))
        enc_b = encode(params.groups, cfg, ids, mask)
        for (ha, ca), (hb, cb) in [(enc_a.init1, enc_b.init1), (enc_a.init2, enc_b.init2)]:
            np.testing.assert_allclose(ha.values, hb.values, atol=1e-12)
            np.testing.assert_allclose(ca.values, cb.values, atol=1e-12)


class TestAttention:
    def test_attention_without_coverage_feature(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        enc = encode(params.groups, cfg, batch.src_ids, batch.src_mask)
        pen = mask_penalty(batch.src_mask)
        state = enc.init2[0]
        query = attention_query(params.groups["Attn"], state)
        alpha, ctx = attention_step(params.groups["Attn"], query, enc.states, None, pen)
        assert alpha.shape == batch.src_ids.shape
        assert ctx.shape == (batch.size, 2 * cfg.hidden)
        np.testing.assert_allclose(alpha.values.sum(axis=1), 1.0, atol=1e-12)

    def test_coverage_feature_shifts_attention(self, tiny_setup):
        cfg, params, batch, _ = tiny_setup
        enc = encode(params.groups, cfg, batch.src_ids, batch.src_mask)
        pen = mask_penalty(batch.src_mask)
        state = enc.init2[0]
        query = attention_query(params.groups["Attn"], state)
        base, _ = attention_step(params.groups["Attn"], query, enc.states, None, pen)
        # uneven coverage: softmax cancels a uniform feature, so load one side
        lopsided = np.zeros_like(batch.src_mask)
        lopsided[:, 0] = 5.0
        loaded, _ = attention_step(
            params.groups["Attn"], query, enc.states, tensor(lopsided), pen,
        )
        assert not np.allclose(base.values, loaded.values)


def stepwise_loss(params, cfg, batch, cov_weight=1.0):
    """The oracle for `forward_loss`: the teacher-forced loss built one
    `decode_step` at a time, each step's terms masked and summed in order.

    Returns (nll, coverage, total, the StepOutput of every step).
    """
    from seqlab.model import prepare_decoder

    dt = cfg.np_dtype
    bsz, dec_len = batch.dec_in.shape
    gold = batch.dec_out
    if not cfg.use_pointer:
        gold = np.where(gold >= cfg.vocab_size, UNK_ID, gold)
    enc = encode(params, cfg, batch.src_ids, batch.src_mask)
    ctx = prepare_decoder(params, cfg, enc, batch.src_mask, batch.src_ext, batch.max_oov)
    state = ctx.init_state
    coverage = ctx.fresh_coverage() if cfg.use_coverage else None
    nll_acc = cov_acc = None
    outs = []
    for t in range(dec_len):
        out, state = decode_step(ctx, state, batch.dec_in[:, t], coverage)
        mask = tensor(batch.dec_mask[:, t].astype(dt))
        logp = multiply(step_nll(out.final_dist, gold[:, t]), mask)
        nll_acc = logp if nll_acc is None else add(nll_acc, logp)
        if coverage is not None:
            overlap = multiply(reduce_sum(minimum(out.alpha, coverage), axis=-1), mask)
            cov_acc = overlap if cov_acc is None else add(cov_acc, overlap)
            coverage = add(coverage, out.alpha)
        outs.append(out)
    inv_steps = tensor((1.0 / batch.dec_mask.sum(axis=1)).astype(dt))
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
        for t, w in enumerate(want):
            for name in ("alpha", "context", "vocab_dist", "final_dist", "p_gen"):
                gv, wv = getattr(got, name), getattr(w, name)
                assert (gv is None) == (wv is None), name
                if wv is not None:
                    step = gv.values[:, t]
                    assert step.shape == wv.shape, name
                    assert close(step, wv.values, 1e-12), name

    def test_only_attention_runs_per_step(self, use_pointer, use_coverage):
        """One more target step adds one attention step to the tape and
        nothing else: the LSTMs, `Out` and `Ptr` run once per batch."""
        cfg, params, batch = self.inputs(use_pointer, use_coverage, "float64")

        def nodes(steps):
            cut = copy.copy(batch)
            for name in ("dec_in", "dec_out", "dec_mask"):
                setattr(cut, name, getattr(batch, name)[:, :steps])
            return tape_size(forward_loss(params.groups, cfg, cut).total)

        # The ops of one step: the query slice, the attention and the
        # coverage update, counted on an attention step of its own.
        h, s = cfg.hidden, batch.src_ids.shape[1]
        leaf = lambda *shape: tensor(np.ones(shape))
        coverage = leaf(batch.size, s) if use_coverage else None
        alpha, context = attention_step(
            params.groups["Attn"], leaf(batch.size, cfg.attention_dim),
            leaf(batch.size, s, 2 * h), coverage, mask_penalty(batch.src_mask),
            leaf(batch.size, s, cfg.attention_dim),
        )
        attention = tape_size(concat([alpha, context])) - 1  # less the concat
        one_step = 1 + attention + int(use_coverage)
        per_step = [nodes(t + 1) - nodes(t) for t in (2, 3)]
        assert per_step[0] == per_step[1]
        assert 0 < per_step[0] <= one_step, (per_step, one_step)


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


# (name, steps, real tokens per row or None, reverse, zero start state)
LSTM_CASES = [
    ("forward", 5, None, False, True),
    ("reverse", 5, None, True, True),
    ("padded-forward", 5, (5, 3, 1), False, True),
    ("padded-reverse", 5, (5, 3, 1), True, True),
    ("one-step", 1, None, False, False),
    ("one-step-padded", 1, (1, 0, 1), False, False),
]


def lstm_inputs(steps, lengths, zero_start, in_dim=4, hid=3, bsz=3, seed=0):
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
