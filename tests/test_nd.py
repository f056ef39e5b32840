"""Numeric core: buffers, operators, tape gradients, finite-difference checks."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from helpers import div, exp, softmax_lastdim, stack, swap_last2, take_axis
from motionctx import nd
from motionctx.errors import DimensionError, NumericError
from motionctx.nd import NdBuffer, Tape


def test_buffer_is_immutable_and_copies_input():
    src = np.ones((2, 3))
    buf = NdBuffer(src)
    src[0, 0] = 99.0
    assert buf.array[0, 0] == 1.0
    with pytest.raises(ValueError):
        buf.array[0, 0] = 5.0


def test_buffer_rejects_nonfinite_and_zero_extents():
    with pytest.raises(NumericError):
        NdBuffer([1.0, float("inf")])
    with pytest.raises(NumericError):
        NdBuffer([float("nan")])
    with pytest.raises(DimensionError):
        NdBuffer(np.zeros((2, 0, 3)))


def test_scalar_buffer_item():
    assert NdBuffer(4.25).item() == 4.25
    with pytest.raises(DimensionError):
        NdBuffer([1.0, 2.0]).item()


def test_matmul_identity_and_inner_product():
    x = NdBuffer(np.arange(6.0).reshape(2, 3))
    eye = NdBuffer(np.eye(2))
    assert np.array_equal(nd.matmul(eye, x).array, x.array)
    a = NdBuffer([[1.0, 2.0]])
    b = NdBuffer([[3.0], [4.0]])
    assert nd.matmul(a, b).array[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    a = NdBuffer(np.zeros((2, 3)))
    with pytest.raises(DimensionError) as exc:
        nd.matmul(a, NdBuffer(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_softmax_frozen_values_and_overflow():
    out = softmax_lastdim(NdBuffer([math.log(3.0), 0.0]))
    assert np.allclose(out.array, [0.75, 0.25], atol=1e-12)
    big = softmax_lastdim(NdBuffer([1000.0, 0.0]))
    assert np.all(np.isfinite(big.array))
    assert np.allclose(big.array, [1.0, 0.0], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = NdBuffer(rng.normal(size=(4, 5, 7)) * 10.0)
    out = softmax_lastdim(x)
    assert np.allclose(out.array.sum(axis=-1), 1.0, atol=1e-12)


def test_grad_of_sum_of_squares():
    x = NdBuffer([1.0, 2.0, 3.0])
    with Tape() as tape:
        loss = nd.reduce_sum(nd.square(x))
    (g,) = tape.grad(loss, [x])
    assert np.array_equal(g, [2.0, 4.0, 6.0])


def test_fanout_accumulates_additively():
    x = NdBuffer([3.0])
    with Tape() as tape:
        loss = nd.reduce_sum(nd.add(nd.mul(x, x), x))  # x^2 + x
    (g,) = tape.grad(loss, [x])
    assert np.array_equal(g, [7.0])  # 2*3 + 1


def test_unused_parameter_gets_zero_gradient():
    x = NdBuffer([1.0, 2.0])
    unused = NdBuffer(np.ones((3, 3)))
    with Tape() as tape:
        loss = nd.reduce_sum(x)
    g_used, g_unused = tape.grad(loss, [x, unused])
    assert np.array_equal(g_used, [1.0, 1.0])
    assert np.array_equal(g_unused, np.zeros((3, 3)))


def test_grad_requires_scalar_output():
    x = NdBuffer([1.0, 2.0])
    with Tape() as tape:
        y = nd.square(x)
    with pytest.raises(DimensionError):
        tape.grad(y, [x])


def test_ops_outside_tape_record_nothing():
    with Tape() as tape:
        pass
    nd.add(NdBuffer([1.0]), NdBuffer([2.0]))
    assert len(tape) == 0


def test_one_record_per_operator():
    x = NdBuffer([1.0, 2.0])
    with Tape() as tape:
        nd.reduce_sum(nd.square(nd.add(x, 1.0)))
    assert len(tape) == 3


def _mlp_loss(p: dict[str, NdBuffer]) -> NdBuffer:
    x = NdBuffer(np.linspace(-1.0, 1.0, 15).reshape(5, 3))
    t = NdBuffer(np.linspace(0.0, 1.0, 10).reshape(5, 2))
    h = nd.tanh(nd.add(nd.matmul(x, p["w1"]), p["b1"]))
    y = nd.add(nd.matmul(h, p["w2"]), p["b2"])
    probs = softmax_lastdim(y)
    return nd.mean(nd.square(nd.sub(probs, t)))


def test_grad_check_mlp_below_tolerance():
    rng = np.random.default_rng(7)
    params = {
        "w1": rng.normal(size=(3, 4)) * 0.5,
        "b1": rng.normal(size=(4,)) * 0.1,
        "w2": rng.normal(size=(4, 2)) * 0.5,
        "b2": rng.normal(size=(2,)) * 0.1,
    }
    report = nd.grad_check(_mlp_loss, params)
    assert report.max_rel_err < 1e-6, repr(report)


def _bumped_identity(a: NdBuffer, indices, bump: float) -> NdBuffer:
    """Identity whose backward is wrong by `bump` at the flat `indices`."""
    def backward(g):
        grad = np.array(g, dtype=np.float64)
        grad.reshape(-1)[list(indices)] += bump
        return [(a, grad)]
    return nd._emit("bumped_identity", a.array.copy(), backward)


def test_grad_check_names_the_coordinate_with_a_wrong_gradient():
    rng = np.random.default_rng(5)
    params = {"v": rng.normal(size=(3,)), "w": rng.normal(size=(2, 3))}

    def f(p):
        wrong = _bumped_identity(p["w"], [4], 10.0)
        return nd.add(nd.reduce_sum(nd.square(p["v"])), nd.reduce_sum(nd.square(wrong)))

    report = nd.grad_check(f, params)
    assert (report.worst_param, report.worst_index) == ("w", 4), repr(report)
    assert report.max_rel_err > 1.0


@pytest.mark.parametrize("order,worst", [(("a", "b"), ("a", 1)), (("b", "a"), ("b", 0))])
def test_grad_check_names_the_first_of_tied_coordinates(order, worst):
    # f is the plain sum of zeros, so every central difference is exactly 1
    # and the three wrong coordinates tie at relative error 0.5 bitwise.
    bumps = {"a": [1, 2], "b": [0]}

    def f(p):
        return nd.add(*(nd.reduce_sum(_bumped_identity(p[k], bumps[k], 0.5)) for k in order))

    report = nd.grad_check(f, {k: np.zeros(3) for k in order})
    assert report.max_rel_err == 0.5
    assert (report.worst_param, report.worst_index) == worst


def test_grad_check_fails_a_non_finite_comparison():
    # x**256 at x = 15.999999 is just below the float64 maximum; its gradient
    # and the +step evaluation overflow, so the comparison is NaN.
    def f(p):
        y = p["x"]
        for _ in range(8):
            y = nd.square(y)
        return nd.reduce_sum(y)

    with np.errstate(over="ignore", invalid="ignore"):
        report = nd.grad_check(f, {"x": np.array([0.5, 15.999999])})
    assert report.max_rel_err == math.inf
    assert (report.worst_param, report.worst_index) == ("x", 1)


def _structural_loss(p: dict[str, NdBuffer]) -> NdBuffer:
    # Exercises concat/stack/slice/take/transpose/reshape/sqrt/div/exp backward paths.
    a = p["a"]                                    # (2, 3)
    b = p["b"]                                    # (2, 3)
    cat = nd.concat([a, b], axis=1)               # (2, 6)
    st = stack([a, b], axis=0)                    # (2, 2, 3)
    first = take_axis(st, 0, axis=0)              # (2, 3)
    mid = nd.slice_axis(cat, 1, 1, 4)             # (2, 3)
    tr = nd.transpose(nd.reshape(cat, (3, 4)), (1, 0))
    s1 = nd.reduce_sum(nd.sqrt(nd.add(nd.square(mid), 0.1)))
    s2 = nd.mean(div(exp(nd.mul(first, 0.3)), nd.add(nd.square(b), 1.0)))
    s3 = nd.reduce_sum(nd.mul(tr, tr), axis=None)
    return nd.add(nd.add(s1, s2), nd.mul(s3, 0.25))


def test_grad_check_structural_ops():
    rng = np.random.default_rng(11)
    params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(2, 3))}
    report = nd.grad_check(_structural_loss, params)
    assert report.max_rel_err < 1e-6, repr(report)


def test_broadcast_backward_shapes_match_inputs():
    bias = NdBuffer(np.ones((4,)))
    x = NdBuffer(np.ones((2, 3, 4)))
    with Tape() as tape:
        loss = nd.reduce_sum(nd.mul(nd.add(x, bias), 2.0))
    g_bias, g_x = tape.grad(loss, [bias, x])
    assert g_bias.shape == (4,)
    assert np.array_equal(g_bias, np.full((4,), 12.0))
    assert g_x.shape == (2, 3, 4)


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(3)
        p = {k: rng.normal(size=s) for k, s in [("w1", (3, 4)), ("b1", (4,)), ("w2", (4, 2)), ("b2", (2,))]}
        leaves = {k: NdBuffer(v) for k, v in p.items()}
        with Tape() as tape:
            loss = _mlp_loss(leaves)
        return loss.item(), tape.grad(loss, list(leaves.values()))

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    for a, b in zip(g1, g2):
        assert np.array_equal(a, b)


def test_sqrt_rejects_negative_input():
    with pytest.raises(NumericError):
        nd.sqrt(NdBuffer([-1.0]))


def test_debug_checks_flag_nonfinite_results():
    with nd.debug_checks(), np.errstate(over="ignore"):
        with pytest.raises(NumericError) as exc:
            nd.mul(NdBuffer([1e200]), NdBuffer([1e200]))
    assert "mul" in str(exc.value)


def test_mean_and_sum_axis_variants():
    x = NdBuffer(np.arange(24.0).reshape(2, 3, 4))
    assert nd.reduce_sum(x, axis=(0, 2)).shape == (3,)
    assert nd.mean(x, axis=1, keepdims=True).shape == (2, 1, 4)
    assert nd.mean(x).item() == pytest.approx(11.5)


def _scan_loop(a, b, u, axis):
    # The per-step recurrence nd.scan replaces: reference for value and gradient.
    states, state = [], None
    for t in range(u.shape[axis]):
        drive = nd.mul(b, take_axis(u, t, axis=axis))
        state = drive if state is None else nd.add(nd.mul(a, state), drive)
        states.append(state)
    return stack(states, axis=axis)


SCAN_CASES = [((5, 3), 0), ((1, 4), 0), ((3, 6, 4), 1), ((3, 1, 4), 1),
              ((2, 3, 5, 4), 1), ((2, 3, 5, 4), 2), ((2, 5, 1, 4), 2),
              ((2, 3, 5, 4), -2), ((5, 3), -2)]


@pytest.mark.parametrize("shape,axis", SCAN_CASES)
def test_scan_forward_bitwise_equals_step_loop(shape, axis):
    rng = np.random.default_rng(sum(shape) + axis)
    a = NdBuffer(np.tanh(rng.normal(size=shape[-1:])))
    b = NdBuffer(rng.normal(size=shape[-1:]))
    u = NdBuffer(rng.normal(size=shape))
    assert np.array_equal(nd.scan(a, b, u, axis).array, _scan_loop(a, b, u, axis).array)


@pytest.mark.parametrize("shape,axis", SCAN_CASES)
def test_scan_gradients_match_step_loop(shape, axis):
    rng = np.random.default_rng(100 + sum(shape) + axis)
    a = NdBuffer(np.tanh(rng.normal(size=shape[-1:])))
    b = NdBuffer(rng.normal(size=shape[-1:]))
    u = NdBuffer(rng.normal(size=shape))
    weight = NdBuffer(rng.normal(size=shape))
    grads = []
    for fn in (nd.scan, _scan_loop):
        with Tape() as tape:
            loss = nd.reduce_sum(nd.mul(fn(a, b, u, axis), weight))
        grads.append(tape.grad(loss, [a, b, u]))
    for fast, ref in zip(*grads):
        assert np.allclose(fast, ref, rtol=1e-10, atol=1e-12)


def test_scan_grad_check_and_shape_errors():
    rng = np.random.default_rng(5)
    params = {"a": np.tanh(rng.normal(size=(3,))), "b": rng.normal(size=(1, 3)),
              "u": rng.normal(size=(2, 4, 3))}
    report = nd.grad_check(lambda p: nd.reduce_sum(nd.square(nd.scan(p["a"], p["b"], p["u"], 1))),
                           params)
    assert report.max_rel_err < 1e-4, repr(report)
    with pytest.raises(DimensionError):
        nd.scan(NdBuffer(np.ones(4)), 1.0, NdBuffer(np.ones((2, 3))), 0)


@pytest.mark.parametrize("axis", [0, 1, 2, -1, -3])
def test_stack_is_concat_on_a_new_axis(axis):
    # The test helper: the value is np.stack's bitwise; a part given twice
    # sums its slices.
    rng = np.random.default_rng(30)
    a, b = NdBuffer(rng.normal(size=(3, 4))), NdBuffer(rng.normal(size=(3, 4)))
    with Tape() as tape:
        out = stack([a, b, a], axis=axis)
    assert [name for name, _, _ in tape._records] == ["reshape"] * 3 + ["concat"]
    assert np.array_equal(out.array, np.stack([a.array, b.array, a.array], axis=axis))
    g = rng.normal(size=out.shape)
    with Tape() as tape:
        loss = nd.reduce_sum(nd.mul(stack([a, b, a], axis=axis), g))
    g_a, g_b = tape.grad(loss, [a, b])
    assert np.array_equal(g_a, np.take(g, 0, axis=axis) + np.take(g, 2, axis=axis))
    assert np.array_equal(g_b, np.take(g, 1, axis=axis))


def test_concat_names_itself_in_shape_errors():
    a, c = NdBuffer(np.ones((3, 4))), NdBuffer(np.ones((3, 5)))
    with pytest.raises(DimensionError, match=r"^concat along axis 0: \[\(3, 4\), \(3, 5\)\]"):
        nd.concat([a, c], axis=0)
    with pytest.raises(DimensionError, match="^concat along axis 2"):
        nd.concat([a, a], axis=2)
    with pytest.raises(DimensionError, match="^concat needs at least one part"):
        nd.concat([], axis=0)
    assert nd.concat([a, c], axis=-1).shape == (3, 9)


@pytest.mark.parametrize("left", [(4, 5, 3), (2, 3, 5, 3)])
def test_folded_matmul_matches_batched_reference(left):
    rng = np.random.default_rng(len(left))
    a_arr, b_arr = rng.normal(size=left), rng.normal(size=(3, 6))
    g = rng.normal(size=left[:-1] + (6,))
    a, b = NdBuffer(a_arr), NdBuffer(b_arr)
    with Tape() as tape:
        out = nd.matmul(a, b)
        loss = nd.reduce_sum(nd.mul(out, NdBuffer(g)))
    g_a, g_b = tape.grad(loss, [a, b])
    assert np.allclose(out.array, a_arr @ b_arr, rtol=1e-10, atol=1e-12)
    assert np.allclose(g_a, nd._unbroadcast(g @ b_arr.T, a.shape), rtol=1e-10, atol=1e-12)
    assert np.allclose(g_b, nd._unbroadcast(np.swapaxes(a_arr, -1, -2) @ g, b.shape),
                       rtol=1e-10, atol=1e-12)


def test_grad_of_intermediate_buffer_in_wrt():
    x = NdBuffer([1.0, 2.0, 3.0])
    with Tape() as tape:
        y = nd.mul(x, 2.0)
        side = nd.reduce_sum(nd.mul(y, 5.0))
        # y's first contribution is a view of r's gradient; the second must
        # not be summed into that view, since r's gradient is returned too.
        r = nd.reshape(y, (3, 1))
        loss = nd.add(nd.reduce_sum(nd.square(r)), side)
    g_r, g_y, g_x = tape.grad(loss, [r, y, x])
    assert np.array_equal(g_r, [[4.0], [8.0], [12.0]])
    assert np.array_equal(g_y, [9.0, 13.0, 17.0])
    assert np.array_equal(g_x, [18.0, 26.0, 34.0])


def test_fanout_into_three_ops_sums_every_contribution():
    x = NdBuffer([2.0, -1.0])
    with Tape() as tape:
        # x feeds add (as both operands), reshape (a view-returning backward) and square.
        parts = [nd.add(x, x), nd.reshape(x, (2,)), nd.square(x), nd.mul(x, 3.0)]
        loss = nd.reduce_sum(nd.add(nd.add(parts[0], parts[1]), nd.add(parts[2], parts[3])))
    (g,) = tape.grad(loss, [x])
    assert np.array_equal(g, 2.0 + 1.0 + 2.0 * x.array + 3.0)


def test_grad_twice_is_bitwise_equal_and_unaliased():
    rng = np.random.default_rng(9)
    leaves = {k: NdBuffer(rng.normal(size=s)) for k, s in
              [("w1", (3, 4)), ("b1", (4,)), ("w2t", (2, 4)), ("b2", (2,))]}
    with Tape() as tape:
        # w1's gradient is a reshaped view of the gradient of its reshape;
        # w2t's is a transposed one.
        reshaped = nd.reshape(leaves["w1"], (3, 4))
        loss = _mlp_loss(dict(leaves, w1=reshaped, w2=swap_last2(leaves["w2t"])))
    wrt = list(leaves.values()) + [reshaped]
    first = tape.grad(loss, wrt)
    second = tape.grad(loss, wrt)
    for x, y in zip(first, second):
        assert np.array_equal(x, y)
        assert x.flags.c_contiguous
    arrays = first + second
    for i, x in enumerate(arrays):
        for y in arrays[i + 1:]:
            assert not np.shares_memory(x, y)


# Fused ops against the composite chains of primitive ops they replaced. The
# forward must be bitwise equal and every gradient within rtol 1e-10.

def composite_layer_norm(x, gamma, beta):
    centered = nd.sub(x, nd.mean(x, axis=-1, keepdims=True))
    var = nd.mean(nd.square(centered), axis=-1, keepdims=True)
    inv = div(1.0, nd.sqrt(nd.add(var, nd.LN_EPS)))
    return nd.add(nd.mul(nd.mul(centered, inv), gamma), beta)


def composite_attention(q, k, v, scale):
    scores = nd.mul(nd.matmul(q, swap_last2(k)), scale)
    return nd.matmul(softmax_lastdim(scores), v)


def composite_level_fusion(parts, w, b):
    alpha = softmax_lastdim(nd.add(nd.matmul(nd.concat(parts, axis=-1), swap_last2(w)), b))
    out = None
    for i, y in enumerate(parts):
        piece = nd.mul(nd.slice_axis(alpha, alpha.ndim - 1, i, i + 1), y)
        out = piece if out is None else nd.add(out, piece)
    return out, alpha.array


def assert_matches_composite(fused, composite, leaves, seed=0, exact_grads=False):
    """Run both under a tape with the same random linear readout; the outputs
    must be bitwise equal and every leaf gradient equal within rtol 1e-10,
    or bitwise with `exact_grads`. Returns the fused tape's record count."""
    results = []
    for fn in (fused, composite):
        with Tape() as tape:
            out = fn(*leaves)
            alpha = None
            if isinstance(out, tuple):
                out, alpha = out
            readout = NdBuffer(np.random.default_rng(seed).normal(size=out.shape))
            loss = nd.reduce_sum(nd.mul(out, readout))
        flat = [x for leaf in leaves for x in (leaf if isinstance(leaf, list) else [leaf])
                if isinstance(x, NdBuffer)]
        results.append((out.array, alpha, tape.grad(loss, flat), len(tape)))
    (out_f, alpha_f, grads_f, records), (out_c, alpha_c, grads_c, _) = results
    assert np.array_equal(out_f, out_c)
    if alpha_c is not None:
        assert np.array_equal(alpha_f, alpha_c)
        assert not alpha_f.flags.writeable
    for g_f, g_c in zip(grads_f, grads_c):
        if exact_grads:
            assert np.array_equal(g_f, g_c)
        else:
            assert np.allclose(g_f, g_c, rtol=1e-10, atol=1e-13 * max(1.0, np.abs(g_c).max()))
    return records - 2  # minus the readout's mul and reduce_sum


def _buffers(rng, *shapes, scale=1.0):
    return [NdBuffer(rng.normal(scale=scale, size=s)) for s in shapes]


@pytest.mark.parametrize("shape", [(6, 8), (5, 4, 8), (3, 5, 4, 8)])
def test_layer_norm_matches_composite(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.normal(loc=2.0, size=shape)
    x[(0,) * (len(shape) - 1)] = 1.5  # a row with zero variance
    leaves = [NdBuffer(x)] + _buffers(rng, shape[-1:], shape[-1:])
    assert assert_matches_composite(nd.layer_norm, composite_layer_norm, leaves) == 1
    out = nd.layer_norm(*leaves).array
    assert np.array_equal(out[(0,) * (len(shape) - 1)], leaves[2].array)


@pytest.mark.parametrize("lead,t_len", [((), 6), ((4,), 6), ((2, 4), 6), ((3,), 1), ((2, 3), 1)])
def test_attention_matches_composite(lead, t_len):
    rng = np.random.default_rng(t_len + len(lead))
    leaves = _buffers(rng, lead + (t_len, 8), lead + (t_len, 8), lead + (t_len, 5)) + [0.35]
    assert assert_matches_composite(nd.attention, composite_attention, leaves) == 1
    if t_len == 1:  # one key: the output is the value itself
        assert np.array_equal(nd.attention(*leaves).array, leaves[2].array)


@pytest.mark.parametrize("shape", [(4, 5), (5, 4, 8), (2, 5, 4, 8)])
def test_level_fusion_matches_composite(shape):
    rng = np.random.default_rng(len(shape) + 10)
    parts = _buffers(rng, shape, shape, shape)
    w, b = _buffers(rng, (3, 3 * shape[-1]), (3,), scale=0.3)
    assert assert_matches_composite(nd.level_fusion, composite_level_fusion, [parts, w, b]) == 1


def test_level_fusion_scores_are_a_third_at_zero_map():
    rng = np.random.default_rng(3)
    parts = _buffers(rng, (2, 3, 4), (2, 3, 4), (2, 3, 4))
    out, alpha = nd.level_fusion(parts, NdBuffer(np.zeros((3, 12))), NdBuffer(np.full(3, 0.4)))
    assert np.all(alpha == 1.0 / 3.0)
    want = sum(((1.0 / 3.0) * p.array for p in parts[1:]), (1.0 / 3.0) * parts[0].array)
    assert np.array_equal(out.array, want)


def test_fused_ops_pass_grad_check():
    rng = np.random.default_rng(12)
    shapes = {"x": (2, 3, 4), "g": (4,), "b": (4,), "q": (2, 3, 4), "k": (2, 3, 4),
              "v": (2, 3, 2), "y0": (3, 2), "y1": (3, 2), "y2": (3, 2), "w": (3, 6), "c": (3,),
              "lw": (4, 4), "lb": (4,)}
    params = {k: rng.normal(size=s) for k, s in shapes.items()}
    readouts = {name: rng.normal(size=s) for name, s in
                [("ln", (2, 3, 4)), ("attn", (2, 3, 2)), ("mix", (3, 2)), ("res", (2, 3, 4))]}

    def f(p):
        mixed = nd.mul_add(p["g"], nd.linear(p["x"], p["lw"], p["lb"]), p["b"], p["q"])
        terms = [nd.layer_norm(p["x"], p["g"], p["b"]), nd.attention(p["q"], p["k"], p["v"], 0.5),
                 nd.level_fusion([p["y0"], p["y1"], p["y2"]], p["w"], p["c"])[0],
                 nd.layer_norm(mixed, p["g"], p["lb"], skip=p["k"])]
        total = None
        for term, readout in zip(terms, readouts.values()):
            part = nd.reduce_sum(nd.square(nd.mul(term, NdBuffer(readout))))
            total = part if total is None else nd.add(total, part)
        return total

    report = nd.grad_check(f, params)
    assert report.max_rel_err < 1e-4, repr(report)


def test_fused_ops_reject_bad_shapes():
    x = NdBuffer(np.ones((3, 4)))
    with pytest.raises(DimensionError):
        nd.layer_norm(x, NdBuffer(np.ones(3)), NdBuffer(np.zeros(4)))
    with pytest.raises(DimensionError):
        nd.attention(x, NdBuffer(np.ones((3, 5))), x, 1.0)
    with pytest.raises(DimensionError):
        nd.level_fusion([x, NdBuffer(np.ones((3, 5)))], NdBuffer(np.ones((2, 8))),
                        NdBuffer(np.ones(2)))
    with pytest.raises(DimensionError):
        nd.level_fusion([x, x], NdBuffer(np.ones((2, 4))), NdBuffer(np.ones(2)))
    with pytest.raises(DimensionError):
        nd.linear(x, NdBuffer(np.ones((5, 2))), NdBuffer(np.ones(2)))
    with pytest.raises(DimensionError):
        nd.linear(x, NdBuffer(np.ones((2, 4, 2))), NdBuffer(np.ones(2)))
    with pytest.raises(DimensionError):
        nd.linear(x, NdBuffer(np.ones((4, 2))), NdBuffer(np.ones((3, 3, 2))))
    with pytest.raises(DimensionError):
        nd.mul_add(NdBuffer(np.ones(4)), x, NdBuffer(np.ones(3)), x)
    with pytest.raises(DimensionError):
        nd.mul_add(NdBuffer(np.ones(4)), NdBuffer(np.ones(4)), NdBuffer(np.ones(4)), x)
    with pytest.raises(DimensionError):
        nd.layer_norm(x, NdBuffer(np.ones(4)), NdBuffer(np.zeros(4)),
                      skip=NdBuffer(np.ones((1, 4))))


def test_array_operand_is_a_constant():
    a = np.arange(6.0).reshape(2, 3)
    x = NdBuffer(np.ones((3, 2)))
    with Tape() as tape:
        y = nd.matmul(a, x)
        loss = nd.reduce_sum(y)
    name, out, backward = tape._records[0]
    assert [buf for buf, _ in backward(np.ones(y.shape))] == [x]
    assert np.array_equal(tape.grad(loss, [x])[0], np.repeat(a.sum(axis=0)[:, None], 2, axis=1))
    with pytest.raises(DimensionError):
        nd.add(x, np.ones((3, 2), dtype=np.int64))


# Every op that takes buffers only, called with a float64 array in a buffer slot.
BUFFER_ONLY_OPS = {
    "transpose": lambda a: nd.transpose(a, (1, 0)),
    "reshape": lambda a: nd.reshape(a, (6,)),
    "concat": lambda a: nd.concat([NdBuffer(np.ones((2, 3))), a], 0),
    "take_rows": lambda a: nd.take_rows(a, [0]),
    "slice_axis": lambda a: nd.slice_axis(a, 0, 0, 1),
    "reduce_sum": nd.reduce_sum,
    "mean": nd.mean,
    "square": nd.square,
    "sqrt": nd.sqrt,
    "tanh": nd.tanh,
    "attention": lambda a: nd.attention(NdBuffer(np.ones((2, 3))), a, NdBuffer(np.ones((2, 3))),
                                        1.0),
    "level_fusion": lambda a: nd.level_fusion([a] * 3, NdBuffer(np.zeros((3, 9))),
                                              NdBuffer(np.zeros(3))),
    "layer_norm": lambda a: nd.layer_norm(a, np.ones(3), np.zeros(3)),
}


@pytest.mark.parametrize("op", sorted(BUFFER_ONLY_OPS))
def test_buffer_only_ops_name_themselves_when_given_an_array(op):
    with pytest.raises(DimensionError, match=f"^{op} needs NdBuffer operands, got ndarray$"):
        BUFFER_ONLY_OPS[op](np.ones((2, 3)))


# Every op with constant-capable operands, by name, with its operand shapes.
# layer_norm's input is always a buffer; only its gain and shift may be constants.
CONSTANT_OPS = {
    "add": (nd.add, [(3, 4), (4,)]),
    "sub": (nd.sub, [(3, 4), (3, 1)]),
    "mul": (nd.mul, [(2, 3, 4), (3, 4)]),
    "matmul_2d": (nd.matmul, [(2, 3, 4), (4, 5)]),
    "matmul_batched": (nd.matmul, [(2, 3, 4), (1, 4, 5)]),
    "linear": (nd.linear, [(2, 3, 4), (4, 5), (5,)]),
    "mul_add": (nd.mul_add, [(5,), (2, 3, 5), (5,), (2, 3, 5)]),
    "scan": (lambda a, b, u: nd.scan(a, b, u, axis=1), [(5,), (1, 5), (2, 4, 5)]),
    "layer_norm": (nd.layer_norm, [(3, 6), (6,), (6,)]),
}


@pytest.mark.parametrize("op,constant", [
    (name, i) for name, (_, shapes) in CONSTANT_OPS.items() for i in range(len(shapes))
    if (name, i) != ("layer_norm", 0)])
def test_constant_operand_takes_no_gradient(op, constant, monkeypatch):
    # The op's value and the other operands' gradients are the all-buffer
    # run's bitwise, and the constant's gradient thunk never runs.
    fn, shapes = CONSTANT_OPS[op]
    rng = np.random.default_rng(60)
    leaves = [NdBuffer(rng.normal(size=s)) for s in shapes]
    g = rng.normal(size=fn(*leaves).shape)
    runs = []
    for const in (None, constant):
        operands = [leaf.array if i == const else leaf for i, leaf in enumerate(leaves)]
        with Tape() as tape:
            out = fn(*operands)
        (_, _, backward), = tape._records
        offered, ran = [], []

        def spy(*pairs, real=nd._contribs):
            offered.extend(buf for buf, _ in pairs)
            return real(*((buf, lambda buf=buf, grad=grad: ran.append(buf) or grad())
                          for buf, grad in pairs))

        monkeypatch.setattr(nd, "_contribs", spy)
        contribs = [(leaves.index(buf), grad) for buf, grad in backward(g)]
        monkeypatch.undo()
        runs.append((out.array, contribs, offered, ran))
    (out_all, all_contribs, _, _), (out_c, contribs, offered, ran) = runs
    assert np.array_equal(out_c, out_all)
    assert offered.count(None) == 1 and None not in ran
    assert len(ran) == len(offered) - 1
    want = [(i, grad) for i, grad in all_contribs if i != constant]
    assert [i for i, _ in contribs] == [i for i, _ in want]
    for (_, got), (_, expected) in zip(contribs, want):
        assert np.array_equal(got, expected)


# Fused records whose gradients repeat their chains' arithmetic: outputs and
# every gradient must equal the chain's bitwise, not just within a tolerance.

def _leaves(rng, shapes, constant=None):
    # A float64 array at index `constant` stands as a constant operand.
    return [rng.normal(size=s) if i == constant else NdBuffer(rng.normal(size=s))
            for i, s in enumerate(shapes)]


@pytest.mark.parametrize("constant", [None, 0, 1, 2])
def test_linear_matches_matmul_add_bitwise(constant):
    # An (H,) bias broadcast over (B, T, J, H), with each operand in turn a
    # constant float64 array.
    leaves = _leaves(np.random.default_rng(50), [(2, 3, 4, 6), (6, 5), (5,)], constant)
    chain = lambda x, w, b: nd.add(nd.matmul(x, w), b)
    assert assert_matches_composite(nd.linear, chain, leaves, exact_grads=True) == 1


def test_linear_of_a_1d_x_is_the_one_row_gemm_of_x_none():
    # An unbatched pass hands the shape head its pooled (H,) features as they are.
    rng = np.random.default_rng(51)
    x, w, b, g = (rng.normal(size=s) for s in [(6,), (6, 5), (5,), (5,)])
    runs = []
    for x_in, g_in in ((x, g), (x[None], g[None])):
        leaves = [NdBuffer(x_in), NdBuffer(w), NdBuffer(b)]
        with Tape() as tape:
            out = nd.linear(*leaves)
        (_, _, backward), = tape._records
        runs.append((out.array, {leaves.index(buf): grad for buf, grad in backward(g_in)}))
    (out_1d, grads_1d), (out_2d, grads_2d) = runs
    assert out_1d.shape == (5,) and np.array_equal(out_1d, out_2d[0])
    assert sorted(grads_1d) == sorted(grads_2d) == [0, 1, 2]
    assert grads_1d[0].shape == (6,) and np.array_equal(grads_1d[0], grads_2d[0][0])
    assert np.array_equal(grads_1d[1], grads_2d[1]) and np.array_equal(grads_1d[2], grads_2d[2])
    with pytest.raises(DimensionError):
        nd.linear(NdBuffer(1.0), NdBuffer(np.ones((1, 5))), NdBuffer(b))


@pytest.mark.parametrize("constant", [None, 0, 1, 2, 3])
def test_mul_add_matches_mul_mul_add_bitwise(constant):
    # (H,) coefficients over (B, T, J, H) inputs.
    leaves = _leaves(np.random.default_rng(51), [(5,), (2, 3, 4, 5), (5,), (2, 3, 4, 5)], constant)
    chain = lambda a, x, b, y: nd.add(nd.mul(a, x), nd.mul(b, y))
    assert assert_matches_composite(nd.mul_add, chain, leaves, exact_grads=True) == 1


def test_ssm_readout_fan_out_matches_chain_bitwise():
    # u feeds both the scan and the readout, so its gradient sums two
    # records' contributions; the sum order must be the chain's.
    leaves = _leaves(np.random.default_rng(52), [(2, 4, 6, 5), (5, 5), (5,), (5,), (5,), (5,), (5,)])

    def ssm(readout):
        def f(h, w, b, a_raw, gate, c, d):
            u = nd.linear(h, w, b)
            return readout(c, nd.scan(nd.tanh(a_raw), gate, u, axis=2), d, u)
        return f

    chain = lambda c, s, d, u: nd.add(nd.mul(c, s), nd.mul(d, u))
    assert assert_matches_composite(ssm(nd.mul_add), ssm(chain), leaves, exact_grads=True) == 4


@pytest.mark.parametrize("shape", [(6, 8), (2, 3, 4, 8)])
def test_layer_norm_skip_matches_add_then_norm_bitwise(shape):
    rng = np.random.default_rng(53)
    skip = rng.normal(loc=2.0, size=shape)
    x = rng.normal(size=shape)
    row = (0,) * (len(shape) - 1)
    x[row] = 1.5 - skip[row]  # the sum's first row has zero variance
    leaves = [NdBuffer(skip), NdBuffer(x)] + _leaves(rng, [shape[-1:], shape[-1:]])
    fused = lambda s, y, g, b: nd.layer_norm(y, g, b, skip=s)
    chain = lambda s, y, g, b: nd.layer_norm(nd.add(s, y), g, b)
    assert assert_matches_composite(fused, chain, leaves, exact_grads=True) == 1
    assert np.array_equal(fused(*leaves).array[row], leaves[3].array)
    # One dx array goes to both the skip and the normalized operand.
    with Tape() as tape:
        fused(*leaves)
    (_, out, backward), = tape._records
    (b_skip, dx_skip), (b_x, dx_x) = backward(np.ones(out.shape))[:2]
    assert b_skip is leaves[0] and b_x is leaves[1] and dx_skip is dx_x


def test_take_rows_gathers_and_sums_repeated_rows():
    rng = np.random.default_rng(21)
    a = NdBuffer(rng.normal(size=(4, 3, 2)))
    rows = np.array([2, 0, 2, 3, 2])
    with Tape() as tape:
        out = nd.take_rows(a, rows)
    assert np.array_equal(out.array, a.array[rows])
    assert [name for name, _, _ in tape._records] == ["take_rows"]
    g = rng.normal(size=out.shape)
    ((buf, grad),) = tape._records[0][2](g)
    assert buf is a
    # Row 1 is never taken; row 2 sums its three uses in index order.
    want = np.zeros(a.shape)
    want[0], want[2], want[3] = g[1], g[0] + g[2] + g[4], g[3]
    assert np.array_equal(grad, want)


def test_take_rows_passes_grad_check_and_rejects_bad_indices():
    rng = np.random.default_rng(22)
    readout = NdBuffer(rng.normal(size=(5, 2, 3)))
    report = nd.grad_check(
        lambda p: nd.reduce_sum(nd.square(nd.mul(nd.take_rows(p["a"], [1, 1, 0, 2, 1]), readout))),
        {"a": rng.normal(size=(3, 2, 3))})
    assert report.max_rel_err < 1e-4, repr(report)
    a = NdBuffer(np.ones((3, 2)))
    for bad in ([3], [-1], [], [[0]], [0.0]):
        with pytest.raises(DimensionError):
            nd.take_rows(a, bad)


# Forked pairs: two independent branches on two threads, the tape and every
# gradient bitwise those of running them in sequence.

def _in_sequence(first, second):
    return first(), second()


def _pair_loss(pair, x, w, u):
    # Both branches read the leaves x and w; u is read by the second branch
    # and again after the pair, so w and u take contributions from both
    # sides of it, and each branch's hidden state fans out inside it.
    def branch(extra, scale):
        h = nd.tanh(nd.matmul(x, w))
        return nd.add(nd.mul(h, extra), nd.mul(nd.square(h), scale)), h

    (a, h_a), (b, _) = pair(lambda: branch(2.0, 0.5), lambda: branch(u, 3.0))
    loss = nd.reduce_sum(nd.add(nd.mul(a, b), nd.mul(u, w)))
    return loss, h_a


def test_fork_records_and_gradients_are_bitwise_the_sequence():
    rng = np.random.default_rng(4)
    x, u, w = (NdBuffer(rng.normal(size=shape)) for shape in ((5, 3, 3), (5, 3, 3), (3, 3)))
    runs = []
    for pair in (_in_sequence, nd.fork):
        with Tape() as tape:
            loss, h_a = _pair_loss(pair, x, w, u)
        grads = tape.grad(loss, [x, w, u, h_a])
        runs.append(([name for name, _, _ in tape._records], tape._pairs, loss.item(), grads))
    (names, pairs, value, grads), (f_names, f_pairs, f_value, f_grads) = runs
    assert f_names == names and f_value == value
    assert pairs == [] and f_pairs == [(0, 6, 12)]
    for want, got in zip(grads, f_grads):
        assert np.array_equal(want, got)
    # Untaped, the pair returns the same values and records nothing.
    assert _pair_loss(nd.fork, x, w, u)[0].item() == value


def _nested_loss(pair, x, w, u):
    # Two pairs in turn, each branch itself a pair of two sub-branches.
    def branch(inp, extra):
        h, sq = pair(lambda: nd.tanh(nd.matmul(inp, w)), lambda: nd.square(nd.mul(inp, extra)))
        return nd.add(h, sq)

    a, b = pair(lambda: branch(x, 2.0), lambda: branch(u, x))
    c, d = pair(lambda: branch(a, u), lambda: branch(b, 0.5))
    return nd.reduce_sum(nd.add(nd.mul(c, d), nd.mul(u, w)))


def test_nested_forks_under_a_tape_note_only_the_outer_pairs():
    # A fork inside a branch runs in sequence and notes no pair: a pair noted
    # inside another's range would be swept twice by Tape.grad.
    rng = np.random.default_rng(6)
    x, u, w = (NdBuffer(rng.normal(size=shape)) for shape in ((5, 3, 3), (5, 3, 3), (3, 3)))
    runs = []
    for pair in (_in_sequence, nd.fork):
        with Tape() as tape:
            loss = _nested_loss(pair, x, w, u)
        runs.append(([name for name, _, _ in tape._records], tape._pairs, loss.item(),
                     tape.grad(loss, [x, w, u])))
    (names, pairs, value, grads), (f_names, f_pairs, f_value, f_grads) = runs
    assert f_names == names and f_value == value
    assert pairs == [] and f_pairs == [(0, 5, 10), (10, 15, 20)]
    bounds = [i for span in f_pairs for i in span]
    assert all(lo < hi for lo, _, hi in f_pairs) and bounds == sorted(bounds)
    for want, got in zip(grads, f_grads, strict=True):
        assert np.array_equal(want, got)


def test_forks_from_many_threads_stay_bitwise():
    # Four callers, more than this host's cores, fork at once with the
    # interpreter switching threads every microsecond; a misplaced record or
    # a lost gradient sum would break bitwise equality.
    rng = np.random.default_rng(5)
    x, u, w = (NdBuffer(rng.normal(size=shape)) for shape in ((5, 3, 3), (5, 3, 3), (3, 3)))
    with Tape() as tape:
        loss, h_a = _pair_loss(_in_sequence, x, w, u)
    want = tape.grad(loss, [x, w, u, h_a])
    results, errors = [], []

    def caller():
        try:
            for _ in range(10):
                with Tape() as forked:
                    f_loss, f_h = _pair_loss(nd.fork, x, w, u)
                results.append((f_loss.item(), forked.grad(f_loss, [x, w, u, f_h])))
        except BaseException as exc:  # reported by the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert len(results) == 40
    for value, grads in results:
        assert value == loss.item()
        for a, b in zip(want, grads, strict=True):
            assert np.array_equal(a, b)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_fork_passes_a_branch_error_and_leaves_both_tape_stacks_clean():
    x = NdBuffer(np.full((2, 2), 1e200))
    threads_before = threading.active_count()
    with Tape() as tape:
        with pytest.raises(NumericError):
            with nd.debug_checks():
                nd.fork(lambda: nd.add(x, 1.0), lambda: nd.square(x))
        assert nd._active_tape() is tape
        with pytest.raises(DimensionError, match="reshape"):
            nd.fork(lambda: nd.square(x), lambda: nd.reshape(x, (3,)))
        assert nd._active_tape() is tape
    assert nd._active_tape() is None
    # No branch thread outlives its pair, after an error or a success.
    assert threading.active_count() == threads_before
    # A fork inside a branch runs in sequence rather than start threads of its own.
    inner = nd.fork(lambda: nd.fork(lambda: 1, lambda: 2), lambda: nd.fork(lambda: 3, lambda: 4))
    assert inner == ((1, 2), (3, 4))
    assert threading.active_count() == threads_before


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_debug_checks_hold_per_thread_when_blocks_interleave():
    # A enters its block, then B; A leaves first. Each block checks every op
    # of its own thread to its end, and once both have left, another thread
    # runs unchecked.
    x = NdBuffer(np.full((2,), 1e200))
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    checked = {}

    def overflow_caught():
        try:
            nd.square(x)
        except NumericError:
            return True
        return False

    def a():
        with nd.debug_checks():
            a_in.set()
            assert b_in.wait(60)
            checked["A with B inside"] = overflow_caught()
        a_out.set()

    def b():
        assert a_in.wait(60)
        with nd.debug_checks():
            b_in.set()
            assert a_out.wait(60)
            checked["B after A left"] = overflow_caught()

    def run(*targets):
        threads = [threading.Thread(target=t) for t in targets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)

    run(a, b)
    run(lambda: checked.update({"after both left": overflow_caught()}))
    assert checked == {"A with B inside": True, "B after A left": True, "after both left": False}


def test_importing_motionctx_starts_no_thread_and_hooks_no_process_fork():
    src = os.path.dirname(os.path.dirname(nd.__file__))
    # Each hook is recorded by the name of the module that installs it.
    probe = ("import os, sys, threading\n"
             "hooks = []\n"
             "def hook(**kw): hooks.append(sys._getframe(1).f_globals['__name__'])\n"
             "os.register_at_fork = hook\n"
             "import motionctx\n"
             "print(hooks, threading.active_count())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == ["[]", "1"]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs the CPU affinity set")
def test_unpatched_fork_gate_weighs_cores_against_blas_threads():
    # OpenBLAS reads its thread count at load, so each count runs in a child.
    cores = len(os.sched_getaffinity(0))
    src = os.path.dirname(os.path.dirname(nd.__file__))
    probe = ("from motionctx import nd; "
             "print(nd.fork_pays(nd.FORK_MIN_WORK), nd._blas_thread_query() is not None)")
    verdicts = []
    for threads in (1, cores):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        verdicts.append(done.stdout.split())
    (one, queried), (all_cores, _) = verdicts
    # A numpy without OpenBLAS's thread query never forks.
    assert one == str(queried == "True" and cores >= 2)
    assert all_cores == "False"


def test_fork_pays_only_above_the_work_floor():
    assert not nd.fork_pays(nd.FORK_MIN_WORK - 1)
    assert not nd.fork_pays(8 * 8 * 6 * 16)  # the toy net's train batch
