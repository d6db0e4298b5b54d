"""Sharing plans, the parameter registry, and the soft penalty."""

import math

import numpy as np
import pytest

from conftest import tiny_config
from seqlab.data import task_seed
from seqlab.errors import ContractError
from seqlab.model import GATES, TAGS, init_blocks, param_shapes
from seqlab.sharing import (
    EUCLIDEAN,
    SQUARED,
    TILE,
    Mode,
    ParamRegistry,
    PRESETS,
    SharingPlan,
    single_task_params,
    tiles,
)
from seqlab.tensor import add, backward, multiply, reduce_sum, scale, subtract, tensor


class TestSharingPlan:
    def test_presets(self):
        assert PRESETS["final"] == ("E2", "Attn", "D1")
        plan = SharingPlan.preset("final", gamma=0.1)
        assert plan.soft_tags == ("E2", "Attn", "D1")
        assert plan.mode("Emb") is Mode.PRIVATE
        assert plan.mode("Out") is Mode.PRIVATE

    def test_preset_hard_variant(self):
        plan = SharingPlan.preset("d1+d2", gamma=0.0, hard=True)
        assert plan.hard_tags == ("D1", "D2")
        assert plan.soft_tags == ()

    def test_solo_is_all_private(self):
        plan = SharingPlan.solo()
        assert all(plan.mode(t) is Mode.PRIVATE for t in TAGS)

    def test_unknown_preset(self):
        with pytest.raises(ContractError, match="unknown preset"):
            SharingPlan.preset("everything", gamma=0.0)

    def test_unknown_tag(self):
        with pytest.raises(ContractError, match="unknown tags"):
            SharingPlan({"Bogus": Mode.SOFT})

    def test_negative_gamma(self):
        with pytest.raises(ContractError, match="gamma"):
            SharingPlan({}, gamma=-1.0)

    def test_bad_form(self):
        with pytest.raises(ContractError, match="form"):
            SharingPlan({}, form="cosine")

    def test_partial_modes_fill_private(self):
        plan = SharingPlan({"E2": Mode.HARD})
        assert plan.mode("E2") is Mode.HARD
        assert plan.mode("D1") is Mode.PRIVATE


class TestRegistry:
    def test_hard_tags_alias_the_same_arrays(self):
        cfg = tiny_config()
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.0, hard=True), seed=3)
        a = reg.add_task("a")
        b = reg.add_task("b")
        for tag in ("E2", "Attn", "D1"):
            for name in a.groups[tag]:
                assert a.groups[tag][name] is b.groups[tag][name]
        # an update through one task is immediately visible to the other
        a.groups["Attn"]["score_v"].values[:] = 7.0
        np.testing.assert_array_equal(b.groups["Attn"]["score_v"].values, 7.0)

    def test_private_and_soft_tags_are_distinct_arrays(self):
        cfg = tiny_config()
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.1), seed=3)
        a = reg.add_task("a")
        b = reg.add_task("b")
        for tag in TAGS:
            for name in a.groups[tag]:
                assert a.groups[tag][name] is not b.groups[tag][name]

    def test_init_depends_only_on_task_name_and_seed(self):
        # A task's starting arrays are identical whether it trains alone or
        # inside a multi-task registry (the warm-start equivalence hinges
        # on this).
        cfg = tiny_config()
        solo = single_task_params(cfg, task="a", seed=9)
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.5), seed=9)
        joint = reg.add_task("a")
        reg.add_task("b")
        for (tag, name, t_solo), (_, _, t_joint) in zip(solo.named(), joint.named()):
            np.testing.assert_array_equal(t_solo.values, t_joint.values)

    def test_different_tasks_draw_different_arrays(self):
        cfg = tiny_config()
        reg = ParamRegistry(cfg, SharingPlan.solo(), seed=9)
        a = reg.add_task("a")
        b = reg.add_task("b")
        assert not np.array_equal(a.groups["Emb"]["table"].values, b.groups["Emb"]["table"].values)

    def test_duplicate_task_rejected(self):
        reg = ParamRegistry(tiny_config(), SharingPlan.solo())
        reg.add_task("a")
        with pytest.raises(ContractError, match="already registered"):
            reg.add_task("a")

    def test_unknown_task_lookup(self):
        reg = ParamRegistry(tiny_config(), SharingPlan.solo())
        with pytest.raises(ContractError, match="unknown task"):
            reg.task("ghost")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_fused_init_equals_per_gate_draws(self, dtype):
        # The fused LSTM arrays start bitwise where the per-gate arrays of
        # checkpoint version 1 started: same generator, same sorted names,
        # each gate's draw packed into its block in (i, f, g, o) order.
        cfg = tiny_config(emb_dim=5, hidden=7, dtype=dtype)
        seed, init_range = 13, 0.3
        plan = SharingPlan.preset("final", gamma=0.1)
        reg = ParamRegistry(cfg, plan, seed=seed, init_range=init_range)
        d, h = cfg.emb_dim, cfg.hidden
        cells = {
            "E1": {"fwd": d, "bwd": d},
            "E2": {"fwd": 2 * h, "bwd": 2 * h},
            "D1": {"cell": d},
            "D2": {"cell": h},
        }
        per_gate = {tag: dict(group) for tag, group in param_shapes(cfg).items()}
        for tag, prefixes in cells.items():
            for prefix, in_dim in prefixes.items():
                for kind in "wub":
                    del per_gate[tag][f"{prefix}_{kind}"]
                for gate in GATES:
                    per_gate[tag][f"{prefix}_w{gate}"] = (in_dim, h)
                    per_gate[tag][f"{prefix}_u{gate}"] = (h, h)
                    per_gate[tag][f"{prefix}_b{gate}"] = (h,)
        for task in ("a", "b"):
            params = reg.add_task(task)
            rng = np.random.default_rng(task_seed(seed, task, stream=0))
            old = {
                tag: {
                    name: rng.uniform(-init_range, init_range, shape).astype(cfg.np_dtype)
                    for name, shape in sorted(per_gate[tag].items())
                }
                for tag in TAGS
            }
            fused = {f"{p}_{k}" for prefixes in cells.values() for p in prefixes for k in "wub"}
            for tag, name, t in params.named():
                if name in fused:
                    want = np.concatenate([old[tag][name + g] for g in GATES], axis=-1)
                else:
                    want = old[tag][name]
                assert t.values.dtype == want.dtype
                np.testing.assert_array_equal(t.values, want, err_msg=f"{tag}/{name}")

    def test_flat_names_cover_all_groups(self):
        params = single_task_params(tiny_config())
        flat = params.flat()
        assert "Emb/table" in flat and "Attn/score_v" in flat
        assert len(flat) == sum(len(g) for g in params.groups.values())


def two_task_registry(gamma, form="squared", tags=("E2", "Attn", "D1")):
    cfg = tiny_config()
    plan = SharingPlan({t: Mode.SOFT for t in tags}, gamma=gamma, form=form)
    reg = ParamRegistry(cfg, plan, seed=5)
    return reg, reg.add_task("a"), reg.add_task("b")


def penalty(reg, task):
    """The penalty value, and its gradient added into a zero arena, per array."""
    arena = np.zeros(reg.layout.size)
    value = reg.soft_penalty(task, arena)
    return value, reg.layout.views(arena)


class TestSoftPenalty:
    def test_known_value_squared(self):
        reg, a, b = two_task_registry(gamma=0.5, tags=("Attn",))
        # overwrite one pair of arrays with a hand example
        for t in reg.tasks.values():
            for name, tt in t.groups["Attn"].items():
                tt.values[:] = 0.0
        a.groups["Attn"]["score_v"].values[:2] = [1.0, 2.0]
        value, grads = penalty(reg, "a")
        assert value == pytest.approx(0.5 * 5.0)
        np.testing.assert_allclose(grads["Attn/score_v"][:2], [1.0, 2.0])

    def test_gamma_zero_is_empty(self):
        reg, _, _ = two_task_registry(gamma=0.0)
        value, grads = penalty(reg, "a")
        assert value == 0.0
        assert not any(g.any() for g in grads.values())

    def test_single_task_has_no_penalty(self):
        cfg = tiny_config()
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=1.0), seed=1)
        reg.add_task("only")
        value, grads = penalty(reg, "only")
        assert value == 0.0
        assert not any(g.any() for g in grads.values())

    def test_graph_matches_closed_form(self):
        # autodiff reference built from tensor ops, counterparts as constants,
        # summed over both co-tasks of a three-task registry
        cfg = tiny_config()
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.3), seed=5)
        a, b, c = (reg.add_task(n) for n in "abc")
        graph = None
        for other in (b, c):
            for tag in reg.plan.soft_tags:
                for name, own in a.groups[tag].items():
                    diff = subtract(own, tensor(other.groups[tag][name].values.copy()))
                    term = reduce_sum(multiply(diff, diff))
                    graph = term if graph is None else add(graph, term)
        graph = scale(graph, reg.plan.gamma)

        value, grads = penalty(reg, "a")
        assert graph.item() == pytest.approx(value, rel=1e-12)
        leaf_grads = backward(graph, wrt=[t for _, _, t in a.named()])
        for tag, name, t in a.named():
            g = grads[f"{tag}/{name}"]
            if tag in reg.plan.soft_tags:
                np.testing.assert_allclose(leaf_grads[t], g, atol=1e-12)
                assert g.any()
            else:
                assert not g.any(), f"{tag}/{name}"

    def test_penalty_symmetric_between_tasks(self):
        reg, _, _ = two_task_registry(gamma=0.3)
        va, _ = penalty(reg, "a")
        vb, _ = penalty(reg, "b")
        assert va == pytest.approx(vb)
        assert va > 0  # random inits differ

    def test_three_tasks_pay_both_counterparts(self):
        cfg = tiny_config()
        plan = SharingPlan({"Attn": Mode.SOFT}, gamma=1.0)
        reg = ParamRegistry(cfg, plan, seed=5)
        for name in ("a", "b", "c"):
            reg.add_task(name)

        def dist2(x, y):
            return sum(
                float(((x.groups["Attn"][n].values - y.groups["Attn"][n].values) ** 2).sum())
                for n in x.groups["Attn"]
            )

        a, b, c = (reg.task(n) for n in "abc")
        expect = dist2(a, b) + dist2(a, c)
        value, _ = penalty(reg, "a")
        assert value == pytest.approx(expect, rel=1e-12)

    def test_euclidean_form_value_and_gradient(self):
        reg, a, b = two_task_registry(gamma=2.0, form=EUCLIDEAN, tags=("Attn",))
        diffs = {
            n: a.groups["Attn"][n].values - b.groups["Attn"][n].values
            for n in a.groups["Attn"]
        }
        dist = np.sqrt(sum((d ** 2).sum() for d in diffs.values()))
        value, grads = penalty(reg, "a")
        assert value == pytest.approx(2.0 * dist, rel=1e-12)
        for n, d in diffs.items():
            np.testing.assert_allclose(grads[f"Attn/{n}"], 2.0 * d / dist, atol=1e-12)

    def test_euclidean_gradient_vanishes_at_zero_distance(self):
        reg, a, b = two_task_registry(gamma=2.0, form=EUCLIDEAN, tags=("Attn",))
        for name, t in a.groups["Attn"].items():
            b.groups["Attn"][name].values[:] = t.values
        value, grads = penalty(reg, "a")
        assert value == 0.0
        assert not any(g.any() for g in grads.values())

    @pytest.mark.parametrize("form", [SQUARED, EUCLIDEAN])
    def test_closed_form_matches_finite_difference(self, form):
        # independent check of the closed-form gradient: probe the value
        # function numerically at every entry of every array of one soft
        # tag, no autodiff involved
        reg, a, _ = two_task_registry(gamma=0.7, form=form, tags=("Attn",))
        _, grads = penalty(reg, "a")
        h = 1e-6
        for name, t in a.groups["Attn"].items():
            arr = t.values.reshape(-1)
            for i in range(arr.size):
                keep = arr[i]
                arr[i] = keep + h
                up, _ = penalty(reg, "a")
                arr[i] = keep - h
                down, _ = penalty(reg, "a")
                arr[i] = keep
                numeric = (up - down) / (2 * h)
                assert numeric == pytest.approx(grads[f"Attn/{name}"].reshape(-1)[i], abs=1e-6)

    @pytest.mark.parametrize("form", [SQUARED, EUCLIDEAN])
    def test_adds_into_the_soft_span_only(self, form):
        # the arena keeps what it held: the gradient is added to its first
        # `soft_size` elements, bit for bit, and nothing after them moves
        cfg = tiny_config()
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.3, form=form), seed=5)
        for name in "abc":
            reg.add_task(name)
        alone = np.zeros(reg.layout.size)
        value = reg.soft_penalty("a", alone)
        held = np.random.default_rng(0).normal(size=reg.layout.size)
        arena = held.copy()
        assert reg.soft_penalty("a", arena) == value
        soft = reg.layout.soft_size
        assert alone[:soft].all() and not alone[soft:].any()
        np.testing.assert_array_equal(arena[:soft], held[:soft] + alone[:soft])
        np.testing.assert_array_equal(arena[soft:], held[soft:])

    @pytest.mark.parametrize("form", [SQUARED, EUCLIDEAN])
    def test_tiles_of_a_tag_sum_like_one_array(self, form):
        # a soft tag wider than one tile: the value is the per-tile partial
        # sums' total, within a few ulps of the exact sum, and the gradient
        # is elementwise, so it equals the whole-array expression bit for bit
        cfg = tiny_config(hidden=48)
        reg = ParamRegistry(cfg, SharingPlan({"E2": Mode.SOFT}, gamma=0.3, form=form), seed=5)
        a, b = reg.add_task("a"), reg.add_task("b")
        start, stop = reg.layout.tag_spans["E2"]
        assert stop - start > TILE
        d = a.buffers[0][start:stop] - b.buffers[0][start:stop]
        dist2 = math.fsum(d * d)
        value, _ = penalty(reg, "a")
        arena = np.zeros(reg.layout.size)
        reg.soft_penalty("a", arena)
        if form == SQUARED:
            assert abs(value - 0.3 * dist2) <= 4 * math.ulp(value)
            np.testing.assert_array_equal(arena[start:stop], 0.0 + 2.0 * 0.3 * d)
        else:
            assert abs(value - 0.3 * math.sqrt(dist2)) <= 4 * math.ulp(value)
            np.testing.assert_allclose(arena[start:stop], 0.3 * d / math.sqrt(dist2), rtol=1e-14)


def per_array_draws(cfg, plan, seed, init_range, tasks):
    """Fresh parameters as drawn before the flat buffers: one array each,
    filled block by block, hard groups drawn by the first task."""
    shapes = param_shapes(cfg)
    hard = {}
    out = {}
    for task in tasks:
        rng = np.random.default_rng(task_seed(seed, task, stream=0))
        groups = {}
        for tag in TAGS:
            if plan.mode(tag) is Mode.HARD and tag in hard:
                groups[tag] = hard[tag]
                continue
            arrays = {n: np.empty(shapes[tag][n], dtype=cfg.np_dtype) for n in sorted(shapes[tag])}
            for name, index in init_blocks(tag, shapes[tag]):
                block = arrays[name][index]
                block[...] = rng.uniform(-init_range, init_range, block.shape)
            if plan.mode(tag) is Mode.HARD:
                hard[tag] = arrays
            groups[tag] = arrays
        out[task] = groups
    return out


ARENA_PLANS = {
    "final": SharingPlan.preset("final", gamma=0.1),
    "final-hard": SharingPlan.preset("final", gamma=0.0, hard=True),
    "e1+attn+d2-hard": SharingPlan.preset("e1+attn+d2", gamma=0.0, hard=True),
    "solo": SharingPlan.solo(),
}


class TestArena:
    @pytest.mark.parametrize("plan", ARENA_PLANS.values(), ids=ARENA_PLANS)
    def test_every_array_is_a_view_of_its_buffer(self, plan):
        reg = ParamRegistry(tiny_config(), plan, seed=3)
        tasks = [reg.add_task(n) for n in "abc"]
        layout = reg.layout
        hard = {tag: 1 + i for i, tag in enumerate(plan.hard_tags)}
        for params in tasks:
            assert [b.size for b in params.buffers] == [b - a for a, b in layout.segments]
            for tag, name, t in params.named():
                buf = params.buffers[hard.get(tag, 0)]
                assert np.shares_memory(t.values, buf), f"{params.task} {tag}/{name}"
                assert t.values.base is buf
                assert t.values.flags.c_contiguous
            # the views tile the buffers exactly
            assert sum(t.values.size for _, _, t in params.named()) == layout.size
        for i, tag in enumerate(plan.hard_tags, start=1):
            # a hard group is one buffer and one set of tensors for every task
            assert all(p.buffers[i] is tasks[0].buffers[i] for p in tasks)
            assert all(p.groups[tag] is tasks[0].groups[tag] for p in tasks)
        for p in tasks[1:]:
            assert not np.shares_memory(p.buffers[0], tasks[0].buffers[0])

    def test_soft_arrays_lead_each_own_buffer(self):
        reg = ParamRegistry(tiny_config(), ARENA_PLANS["final"], seed=3)
        params = reg.add_task("a")
        spans = reg.layout.spans
        soft = [spans[f"{t}/{n}"] for t in ("E2", "Attn", "D1") for n in sorted(params[t])]
        assert soft[0][1] == 0
        assert all(x[2] == y[1] for x, y in zip(soft, soft[1:]))  # in order, no gaps
        assert soft[-1][2] == reg.layout.soft_size

    @pytest.mark.parametrize("plan", ARENA_PLANS.values(), ids=ARENA_PLANS)
    def test_tag_spans(self, plan):
        # each tag's span holds exactly its arrays, the soft spans tile
        # [0, soft_size), and each hard tag fills its own segment
        layout = ParamRegistry(tiny_config(), plan, seed=3).layout
        for tag, (start, stop) in layout.tag_spans.items():
            inside = sorted((a, b) for key, (_, a, b, _) in layout.spans.items() if key.split("/")[0] == tag)
            assert inside[0][0] == start and inside[-1][1] == stop
            assert all(x[1] == y[0] for x, y in zip(inside, inside[1:]))
        assert set(layout.tag_spans) == set(TAGS)
        soft = [layout.tag_spans[t] for t in plan.soft_tags]
        edges = [0] + [b for _, b in soft]
        assert soft == list(zip(edges, edges[1:]))
        assert layout.soft_size == edges[-1]
        assert [layout.tag_spans[t] for t in plan.hard_tags] == list(layout.segments[1:])

    def test_tiles(self):
        assert tiles(0, 0) == []
        assert tiles(5, 6) == [slice(5, 6)]
        assert tiles(3, 3 + TILE) == [slice(3, 3 + TILE)]
        assert tiles(0, 2 * TILE + 1) == [slice(0, TILE), slice(TILE, 2 * TILE), slice(2 * TILE, 2 * TILE + 1)]

    @pytest.mark.parametrize("plan", ARENA_PLANS.values(), ids=ARENA_PLANS)
    def test_fresh_parameters_match_per_array_draws(self, plan):
        cfg = tiny_config()
        reg = ParamRegistry(cfg, plan, seed=9, init_range=0.1)
        for name in "abc":
            reg.add_task(name)
        want = per_array_draws(cfg, plan, 9, 0.1, "abc")
        for task, params in reg.tasks.items():
            for tag, name, t in params.named():
                assert t.values.dtype == want[task][tag][name].dtype
                np.testing.assert_array_equal(t.values, want[task][tag][name], err_msg=f"{task} {tag}/{name}")


class TestDistanceReport:
    def test_hard_tags_report_zero(self):
        cfg = tiny_config()
        reg = ParamRegistry(cfg, SharingPlan.preset("final", gamma=0.0, hard=True), seed=2)
        reg.add_task("a")
        reg.add_task("b")
        report = reg.distance_report()
        for tag in ("E2", "Attn", "D1"):
            assert report[tag][("a", "b")] == 0.0
        assert report["Emb"][("a", "b")] > 0.0

    def test_equal_arrays_report_zero(self):
        reg, a, b = two_task_registry(gamma=0.1)
        for tag in TAGS:
            for name, t in a.groups[tag].items():
                b.groups[tag][name].values[:] = t.values
        report = reg.distance_report()
        assert all(v == 0.0 for pairs in report.values() for v in pairs.values())

    def test_distance_is_near_the_exact_one(self):
        # summed per tile over each tag's span, within a few ulps of the
        # correctly rounded distance
        reg = ParamRegistry(tiny_config(hidden=48), SharingPlan.preset("final", gamma=0.1), seed=2)
        a, b = reg.add_task("a"), reg.add_task("b")
        report = reg.distance_report()
        for tag in TAGS:
            d = np.concatenate([a[tag][n].values.ravel() - b[tag][n].values.ravel() for n in sorted(a[tag])])
            want = math.sqrt(math.fsum(d * d))
            assert abs(report[tag][("a", "b")] - want) <= 4 * math.ulp(want), tag
        assert reg.layout.tag_spans["E2"][1] - reg.layout.tag_spans["E2"][0] > TILE

    def test_report_covers_all_tags_and_pairs(self):
        cfg = tiny_config()
        reg = ParamRegistry(cfg, SharingPlan.solo(), seed=2)
        for name in ("a", "b", "c"):
            reg.add_task(name)
        report = reg.distance_report()
        assert set(report) == set(TAGS)
        assert set(report["Emb"]) == {("a", "b"), ("a", "c"), ("b", "c")}
