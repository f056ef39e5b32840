"""Numeric core: buffers, operators, tape gradients, finite-difference checks."""

import math

import numpy as np
import pytest

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
    out = nd.softmax_lastdim(NdBuffer([math.log(3.0), 0.0]))
    assert np.allclose(out.array, [0.75, 0.25], atol=1e-12)
    big = nd.softmax_lastdim(NdBuffer([1000.0, 0.0]))
    assert np.all(np.isfinite(big.array))
    assert np.allclose(big.array, [1.0, 0.0], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = NdBuffer(rng.normal(size=(4, 5, 7)) * 10.0)
    out = nd.softmax_lastdim(x)
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
    probs = nd.softmax_lastdim(y)
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


def _structural_loss(p: dict[str, NdBuffer]) -> NdBuffer:
    # Exercises concat/stack/slice/take/transpose/reshape/sqrt/div/exp backward paths.
    a = p["a"]                                    # (2, 3)
    b = p["b"]                                    # (2, 3)
    cat = nd.concat([a, b], axis=1)               # (2, 6)
    st = nd.stack([a, b], axis=0)                 # (2, 2, 3)
    first = nd.take_axis(st, 0, axis=0)           # (2, 3)
    mid = nd.slice_axis(cat, 1, 1, 4)             # (2, 3)
    tr = nd.transpose(nd.reshape(cat, (3, 4)), (1, 0))
    s1 = nd.reduce_sum(nd.sqrt(nd.add(nd.square(mid), 0.1)))
    s2 = nd.mean(nd.div(nd.exp(nd.mul(first, 0.3)), nd.add(nd.square(b), 1.0)))
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
    with nd.debug_checks(), np.errstate(divide="ignore"):
        with pytest.raises(NumericError) as exc:
            nd.div(NdBuffer([1.0]), NdBuffer([0.0]))
    assert "div" in str(exc.value)


def test_mean_and_sum_axis_variants():
    x = NdBuffer(np.arange(24.0).reshape(2, 3, 4))
    assert nd.reduce_sum(x, axis=(0, 2)).shape == (3,)
    assert nd.mean(x, axis=1, keepdims=True).shape == (2, 1, 4)
    assert nd.mean(x).item() == pytest.approx(11.5)


def _scan_loop(a, b, u, axis):
    # The per-step recurrence nd.scan replaces: reference for value and gradient.
    states, state = [], None
    for t in range(u.shape[axis]):
        drive = nd.mul(b, nd.take_axis(u, t, axis=axis))
        state = drive if state is None else nd.add(nd.mul(a, state), drive)
        states.append(state)
    return nd.stack(states, axis=axis)


SCAN_CASES = [((5, 3), 0), ((1, 4), 0), ((3, 6, 4), 1), ((3, 1, 4), 1),
              ((2, 3, 5, 4), 1), ((2, 3, 5, 4), 2), ((2, 5, 1, 4), 2)]


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
        loss = _mlp_loss(dict(leaves, w1=reshaped, w2=nd.swap_last2(leaves["w2t"])))
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
