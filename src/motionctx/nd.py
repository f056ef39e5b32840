"""Dense float64 arrays with a reverse-mode gradient tape.

`NdBuffer` is an immutable dense array: float64, C-order, finite at
construction. Operators live at module level (`add`, `matmul`, `scan`, ...);
each one returns a fresh buffer and, when a `Tape` is active, appends one
record. A record holds the operation name, the output buffer, and a backward
closure that holds the input buffers and maps the output gradient to
per-input contributions. Numbers and float64 arrays may stand as constant
operands. An op's backward hands its (operand, gradient thunk) pairs to one
rule, `_contribs`, which runs no constant's thunk, so backward forms no
gradient for a constant. Error messages name an operation as
`name#record_index`.

`scan` runs a whole diagonal linear recurrence along one axis as a single
record, with a reverse-scan backward. `matmul` with a 2-D right operand folds
the left operand's leading dims into one GEMM, forward and backward.
`layer_norm`, `attention` and `level_fusion` are one record each with an
analytic backward; their forwards repeat, step for step, the arithmetic of
the chains of elementwise records they stand for, so their values equal
those chains' bitwise. `linear` (matmul then bias add), `mul_add` (a*x + b*y)
and `layer_norm` with a `skip` operand (the residual add before the norm) go
further: their gradients too repeat their chains' arithmetic and equal them
bitwise. Every record keeps its output alive until backward, so each fused
record also drops the activation-sized outputs of the steps it folds in.

`Tape.grad` replays records in reverse, accumulating fan-out contributions
additively, and is O(number of records). It drops each output gradient once
that record's backward has run (unless the buffer was asked for in `wrt`), so
peak memory is the tape plus the live frontier of gradients. `grad_check`
compares it with central differences; a non-finite comparison fails it.

All state is per thread: the stack of active tapes, a fork-branch flag and
the `debug_checks` switch. `fork` runs two independent branches at once, the
second on a thread of its own that takes the caller's switch; under a tape
the first branch records onto the caller's tape and the second onto a
sub-tape that is then appended, so the tape holds the records a sequential
call would write, in the same order. The tape notes each forked pair's
record range, and `Tape.grad` sweeps the pair's two segments at once too:
each keeps the gradients of its own records' outputs and logs, in order,
what it contributes to buffers made before the pair; the logs are replayed
in the sequential sweep order, so every sum is added in the same order and
every gradient is bitwise the sequential one. `fork_pays` says when a fork
is worth a thread hand-off.

All computation bottoms out in numpy, so repeated runs on the same inputs are
bitwise identical. `debug_checks()` turns on finiteness verification after
every operator (off by default; construction is always checked).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericError

GRAD_CHECK_STEP = 1e-5  # central-difference half-width used by `grad_check`
LN_EPS = 1e-5  # variance floor of `layer_norm`
# Elements per branch below which `fork_pays` keeps a pair sequential. A
# paper-shaped sample (F=16, J=24, H=128) is 49,152; the toy net's train
# batch (B=8, F=8, J=6, H=16) is 6,144 and its eval chunk of 32 is 24,576,
# where per-record Python work, serialized by the GIL, outweighs the numpy
# work a second thread can overlap.
FORK_MIN_WORK = 1 << 15


class _ThreadTapes(threading.local):
    # Each thread's stack of active tapes, fork-branch flag and finiteness switch.
    def __init__(self):
        self.stack: list[Tape] = []
        self.in_branch = False
        self.checks = False


_TAPES = _ThreadTapes()


@contextlib.contextmanager
def debug_checks():
    """Enable per-operation finiteness checks in this thread and its fork branches."""
    local = _TAPES
    prev, local.checks = local.checks, True
    try:
        yield
    finally:
        local.checks = prev


class NdBuffer:
    """Immutable dense float64 array.

    The wrapped ndarray is C-ordered and marked read-only; `array` exposes it
    without copying. Zero-sized extents are rejected, non-finite values are
    rejected at construction.
    """

    __slots__ = ("_array",)

    def __init__(self, values):
        try:
            arr = np.array(values, dtype=np.float64, order="C")
        except (TypeError, ValueError) as exc:
            raise DimensionError(f"cannot build a float64 buffer from {values!r}: {exc}") from None
        if any(n <= 0 for n in arr.shape):
            raise DimensionError(f"extents must be positive, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite value in buffer construction")
        arr.setflags(write=False)
        self._array = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray, name: str = "wrap") -> "NdBuffer":
        # Trusted path for operator outputs: no copy, finite check only in debug mode.
        if _TAPES.checks and not np.all(np.isfinite(arr)):
            tape = _active_tape()
            label = name if tape is None else f"{name}#{len(tape)}"
            raise NumericError(f"non-finite value produced by {label}")
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        out = object.__new__(cls)
        out._array = arr
        return out

    @property
    def array(self) -> np.ndarray:
        return self._array

    @property
    def shape(self) -> tuple[int, ...]:
        return self._array.shape

    @property
    def ndim(self) -> int:
        return self._array.ndim

    @property
    def size(self) -> int:
        return self._array.size

    def item(self) -> float:
        if self._array.size != 1:
            raise DimensionError(f"item() needs a single-element buffer, got shape {self.shape}")
        return float(self._array.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"NdBuffer(shape={self.shape})"


class Tape:
    """Context manager recording operator applications for reverse replay."""

    def __init__(self):
        self._records: list[tuple[str, NdBuffer, Callable]] = []
        # (start, mid, end) per `fork`: [start, mid) is the first branch's
        # records and [mid, end) the second's.
        self._pairs: list[tuple[int, int, int]] = []

    def __enter__(self) -> "Tape":
        _TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.stack.pop()
        assert popped is self
        return False

    def __len__(self) -> int:
        return len(self._records)

    def grad(self, output: NdBuffer, wrt: Sequence[NdBuffer]) -> list[np.ndarray]:
        """Gradients of a scalar output with respect to each buffer in wrt.

        Buffers that do not influence the output get zero gradients. Fan-out
        (one buffer feeding several operators) accumulates additively. Returned
        arrays are fresh and C-ordered: none is a view of tape state or of
        another returned gradient.
        """
        if output.shape != ():
            raise DimensionError(f"grad needs a scalar output, got shape {output.shape}")
        keep = {id(buf) for buf in wrt}
        grads: dict[int, np.ndarray] = {id(output): np.ones(())}
        # Ids whose gradient array this sweep allocated itself. Only those are
        # summed into in place; any other may be a view of a gradient that is
        # still live (add passes g through, reshape and transpose view it).
        owned: set[int] = set()
        hi = len(self._records)
        for start, mid, end in reversed(self._pairs):
            self._sweep(end, hi, grads, owned, keep)
            self._sweep_pair(start, mid, end, grads, owned, keep)
            hi = start
        self._sweep(0, hi, grads, owned, keep)
        out_list = []
        for buf in wrt:
            g = grads.get(id(buf))
            if g is None:
                out_list.append(np.zeros(buf.shape))
            else:
                out_list.append(np.ascontiguousarray(g) if id(buf) in owned
                                else np.array(g, order="C"))
        return out_list

    def _sweep(self, lo: int, hi: int, grads: dict, owned: set, keep: set,
               log: list | None = None, local: set = frozenset()) -> None:
        # Backward of records hi-1 down to lo. With a log, a contribution to a
        # buffer outside `local` is appended to it instead of summed.
        records = self._records
        for index in range(hi - 1, lo - 1, -1):
            name, out, backward = records[index]
            key = id(out)
            g = grads.get(key) if key in keep else grads.pop(key, None)
            if g is None:
                continue
            for buf, contrib in backward(g):
                if contrib.shape != buf.shape:
                    raise DimensionError(
                        f"backward of {name}#{index} produced gradient shape {contrib.shape} "
                        f"for input shape {buf.shape}"
                    )
                key = id(buf)
                if log is not None and key not in local:
                    log.append((key, contrib))
                else:
                    _accumulate(grads, owned, key, contrib)

    def _sweep_pair(self, start: int, mid: int, end: int, grads: dict, owned: set,
                    keep: set) -> None:
        # The two segments of a forked pair at once, in the sequential sweep
        # order: [mid, end) here, [start, mid) on the branch thread. A
        # segment's records read no output of the other, so each takes the
        # gradients of its own outputs that later records gave, and logs every
        # contribution to a buffer made before the pair. The logs are summed
        # in afterwards, the first segment's first: the order of the
        # sequential sweep.
        segments = []
        for lo, hi in ((mid, end), (start, mid)):
            local = {id(out) for _, out, _ in self._records[lo:hi]}
            seg_grads = {key: grads.pop(key) for key in local if key in grads}
            segments.append((lo, hi, local, seg_grads, owned & seg_grads.keys(), []))
        _join(*(functools.partial(self._sweep, lo, hi, seg_grads, seg_owned, keep, log, local)
                for lo, hi, local, seg_grads, seg_owned, log in segments))
        for _, _, _, seg_grads, seg_owned, log in segments:
            for key, contrib in log:
                _accumulate(grads, owned, key, contrib)
            grads.update(seg_grads)  # gradients of outputs asked for in `wrt`
            owned |= seg_owned


def _accumulate(grads: dict, owned: set, key: int, contrib: np.ndarray) -> None:
    # The first contribution is stored as given; the second is summed into a
    # fresh array that the sweep owns; later ones are added into it in place.
    prev = grads.get(key)
    if prev is None:
        grads[key] = contrib
    elif key in owned:
        prev += contrib
    else:
        grads[key] = prev + contrib
        owned.add(key)


def _active_tape() -> Tape | None:
    stack = _TAPES.stack
    return stack[-1] if stack else None


def _join(first, second):
    # first() here and second() on a thread of its own, at once, both as fork
    # branches; the thread takes the caller's finiteness switch. If first
    # raises, its error propagates once second is done; else second's does.
    local, out = _TAPES, {}
    checks, prev = local.checks, local.in_branch

    def branch():
        _TAPES.checks, _TAPES.in_branch = checks, True
        try:
            out["value"] = second()
        except BaseException as exc:  # raised on the caller's thread below
            out["error"] = exc

    thread = threading.Thread(target=branch, name="nd-fork")
    thread.start()
    local.in_branch = True
    try:
        done = first()
    finally:
        local.in_branch = prev
        thread.join()
    if "error" in out:
        raise out.pop("error")
    return done, out["value"]


def _record_on(tape: Tape, fn):
    with tape:
        return fn()


def fork(first: Callable, second: Callable) -> tuple:
    """(first(), second()), the two run at once: second on a thread started
    for the pair, with the caller's `debug_checks` switch, first on the caller's.

    The branches must be independent: neither reads a buffer the other makes.
    Under an active tape, first records onto it and second onto a sub-tape
    that is appended after first's records, so the tape holds what `first();
    second()` would write, in that order; the tape notes the pair for
    `Tape.grad`. If both raise, first's error propagates, as it would in
    sequence. A record made by second is numbered within its branch in error
    messages. Inside a branch, `fork` runs the two in sequence.
    """
    if _TAPES.in_branch:
        return first(), second()
    tape = _active_tape()
    if tape is None:
        return _join(first, second)
    start, sub = len(tape), Tape()
    done = _join(first, functools.partial(_record_on, sub, second))
    mid = len(tape)
    tape._records += sub._records
    tape._pairs.append((start, mid, len(tape)))
    return done


@functools.cache
def _blas_thread_query():
    # numpy's bundled OpenBLAS exports its thread count under this name; other
    # builds do not, and then no fork pays.
    try:
        query = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    query.argtypes, query.restype = [], ctypes.c_int
    return query


def fork_pays(work: int) -> bool:
    """Whether two branches of at least `work` elements each should `fork`.

    Both must hold: work reaches FORK_MIN_WORK, and this process may run on at
    least twice as many cores as BLAS uses threads, so that each branch's
    GEMMs get cores of their own. With two BLAS threads on two cores a forked
    paper-shaped pair ran at 0.82-0.86x of the sequential speed.
    """
    if work < FORK_MIN_WORK:
        return False
    query = _blas_thread_query()
    if query is None:
        return False
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cores or 1) >= 2 * query()


def _emit(name, out_arr, backward) -> NdBuffer:
    out = NdBuffer._wrap(out_arr, name)
    tape = _active_tape()
    if tape is not None:
        tape._records.append((name, out, backward))
    return out


def _as_operand(x) -> tuple[np.ndarray, NdBuffer | None]:
    # NdBuffer participates in gradients; bare numbers and float64 arrays are constants.
    if isinstance(x, NdBuffer):
        return x.array, x
    if isinstance(x, (int, float)):
        return np.float64(x), None
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        return x, None
    raise DimensionError(f"operand must be NdBuffer, number or float64 array, "
                         f"got {type(x).__name__}")


def _array(name: str, x) -> np.ndarray:
    # The array of an operand that must be a buffer; constants go through `_as_operand`.
    if not isinstance(x, NdBuffer):
        raise DimensionError(f"{name} needs NdBuffer operands, got {type(x).__name__}")
    return x.array


def _contribs(*pairs) -> list[tuple[NdBuffer, np.ndarray]]:
    # The one constant-operand rule: (buffer, thunk) pairs in the backward's
    # order; a None buffer is a constant, and its thunk is never run.
    return [(buf, grad()) for buf, grad in pairs if buf is not None]


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _elementwise_pair(name, a, b, fwd, back_a, back_b) -> NdBuffer:
    arr_a, buf_a = _as_operand(a)
    arr_b, buf_b = _as_operand(b)
    try:
        out = fwd(arr_a, arr_b)
    except ValueError:
        raise DimensionError(f"{name}: shapes {np.shape(arr_a)} and {np.shape(arr_b)} do not broadcast") from None

    def backward(g):
        return _contribs((buf_a, lambda: _unbroadcast(back_a(g, arr_a, arr_b, out), buf_a.shape)),
                         (buf_b, lambda: _unbroadcast(back_b(g, arr_a, arr_b, out), buf_b.shape)))

    return _emit(name, out, backward)


def add(a, b) -> NdBuffer:
    return _elementwise_pair("add", a, b, lambda x, y: x + y,
                             lambda g, x, y, o: g, lambda g, x, y, o: g)


def sub(a, b) -> NdBuffer:
    return _elementwise_pair("sub", a, b, lambda x, y: x - y,
                             lambda g, x, y, o: g, lambda g, x, y, o: -g)


def mul(a, b) -> NdBuffer:
    return _elementwise_pair("mul", a, b, lambda x, y: x * y,
                             lambda g, x, y, o: g * y, lambda g, x, y, o: g * x)


def _check_matmul(name, arr_a, arr_b) -> None:
    if arr_a.ndim < 2 or arr_b.ndim < 2:
        raise DimensionError(f"{name} needs ndim >= 2, got shapes {np.shape(arr_a)} and {np.shape(arr_b)}")
    if arr_a.shape[-1] != arr_b.shape[-2]:
        raise DimensionError(f"{name} inner dimensions differ: {arr_a.shape} @ {arr_b.shape}")


def _folded_gemm(arr_a, buf_a, arr_w, buf_w):
    # (..., K) @ (K, N) is one (prod(...), K) @ (K, N) GEMM, one row when a is
    # 1-D; the weight gradient then needs no sum over batch axes. Returns the
    # fresh, writable product and its backward.
    flat_a = arr_a.reshape(-1, arr_a.shape[-1])
    out = (flat_a @ arr_w).reshape(arr_a.shape[:-1] + arr_w.shape[-1:])

    def backward(g):
        flat_g = g.reshape(-1, g.shape[-1])
        return _contribs((buf_a, lambda: (flat_g @ arr_w.T).reshape(arr_a.shape)),
                         (buf_w, lambda: flat_a.T @ flat_g))

    return out, backward


def matmul(a: NdBuffer, b: NdBuffer) -> NdBuffer:
    arr_a, buf_a = _as_operand(a)
    arr_b, buf_b = _as_operand(b)
    _check_matmul("matmul", arr_a, arr_b)
    if arr_b.ndim == 2:
        out, backward = _folded_gemm(arr_a, buf_a, arr_b, buf_b)
    else:
        try:
            out = arr_a @ arr_b
        except ValueError:
            raise DimensionError(f"matmul batch dimensions do not broadcast: {arr_a.shape} @ {arr_b.shape}") from None

        def backward(g):
            return _contribs(
                (buf_a, lambda: _unbroadcast(g @ np.swapaxes(arr_b, -1, -2), buf_a.shape)),
                (buf_b, lambda: _unbroadcast(np.swapaxes(arr_a, -1, -2) @ g, buf_b.shape)))

    return _emit("matmul", out, backward)


def linear(x, w, b) -> NdBuffer:
    """x @ w + b with a 2-D w, as one record; a 1-D x is taken as the row x[None].

    The forward is `matmul`'s folded GEMM, then b added into that fresh
    product, so the value equals `add(matmul(x, w), b)` bitwise. b must
    broadcast to the product's shape. The backward gives b the reduction
    `add` gives it and x and w the two GEMMs `matmul` gives them, b first.
    """
    arr_x, buf_x = _as_operand(x)
    arr_w, buf_w = _as_operand(w)
    arr_b, buf_b = _as_operand(b)
    if arr_x.ndim < 1 or arr_w.ndim != 2 or arr_x.shape[-1] != arr_w.shape[0]:
        raise DimensionError(f"linear needs (..., K) @ (K, N), got shapes {np.shape(arr_x)} "
                             f"and {np.shape(arr_w)}")
    out, gemm_backward = _folded_gemm(arr_x, buf_x, arr_w, buf_w)
    try:
        out += arr_b
    except ValueError:
        raise DimensionError(f"linear: bias {np.shape(arr_b)} does not broadcast to {out.shape}") from None

    def backward(g):
        return _contribs((buf_b, lambda: _unbroadcast(g, buf_b.shape))) + gemm_backward(g)

    return _emit("linear", out, backward)


def mul_add(a, x, b, y) -> NdBuffer:
    """a*x + b*y as one record.

    The forward computes a*x, then adds b*y into it, so the value equals
    `add(mul(a, x), mul(b, y))` bitwise; a*x must carry the full broadcast
    shape. The backward returns the contributions in the order that chain's
    reverse replay produced them: b, y, a, x.
    """
    (arr_a, buf_a), (arr_x, buf_x), (arr_b, buf_b), (arr_y, buf_y) = map(_as_operand, (a, x, b, y))
    try:
        out = np.multiply(arr_a, arr_x)
        out += arr_b * arr_y
    except ValueError:
        raise DimensionError(f"mul_add: shapes {np.shape(arr_a)} * {np.shape(arr_x)} + "
                             f"{np.shape(arr_b)} * {np.shape(arr_y)} do not broadcast "
                             f"to the shape of the first product") from None

    def backward(g):
        # Default arguments bind each thunk to its own operand.
        return _contribs(*((buf, lambda buf=buf, other=other: _unbroadcast(g * other, buf.shape))
                           for buf, other in ((buf_b, arr_y), (buf_y, arr_b),
                                              (buf_a, arr_x), (buf_x, arr_a))))

    return _emit("mul_add", out, backward)


def scan(a, b, u, axis: int) -> NdBuffer:
    """Diagonal linear recurrence along `axis`: s_0 = b*u_0 and
    s_t = a*s_{t-1} + b*u_t; returns every state s, shaped like u.

    `a` and `b` broadcast against one step u_t (u with `axis` removed). The
    backward pass is the reverse scan r_t = g_t + a*r_{t+1}, giving du = b*r,
    db = sum_t r_t*u_t and da = sum_{t>=1} r_t*s_{t-1}.
    """
    arr_a, buf_a = _as_operand(a)
    arr_b, buf_b = _as_operand(b)
    arr_u, buf_u = _as_operand(u)
    if arr_u.ndim < 1:
        raise DimensionError("scan needs an input with at least one axis")
    ax = axis % arr_u.ndim
    step_shape = arr_u.shape[:ax] + arr_u.shape[ax + 1:]
    try:
        fits = np.broadcast_shapes(np.shape(arr_a), np.shape(arr_b), step_shape) == step_shape
    except ValueError:
        fits = False
    if not fits:
        raise DimensionError(f"scan coefficients {np.shape(arr_a)} and {np.shape(arr_b)} do not "
                             f"broadcast to one step {step_shape} of input {arr_u.shape}")
    # Work on views with the scan axis first; writes land in `out` directly.
    u_t = np.moveaxis(arr_u, ax, 0)
    drive = arr_b * u_t
    out = np.empty(arr_u.shape)
    s = np.moveaxis(out, ax, 0)
    s[0] = drive[0]
    for t in range(1, s.shape[0]):
        s[t] = arr_a * s[t - 1] + drive[t]

    def backward(g):
        g_t = np.moveaxis(g, ax, 0)
        r = np.empty(g_t.shape)
        r[-1] = g_t[-1]
        for t in range(r.shape[0] - 2, -1, -1):
            r[t] = g_t[t] + arr_a * r[t + 1]
        return _contribs((buf_a, lambda: _unbroadcast(r[1:] * s[:-1], buf_a.shape)),
                         (buf_b, lambda: _unbroadcast(r * u_t, buf_b.shape)),
                         (buf_u, lambda: np.moveaxis(arr_b * r, 0, ax)))

    return _emit("scan", out, backward)


def transpose(a: NdBuffer, axes: Sequence[int]) -> NdBuffer:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose axes {axes} are not a permutation for shape {a.shape}")
    inverse = tuple(int(i) for i in np.argsort(axes))
    out = np.transpose(_array("transpose", a), axes)

    def backward(g):
        return [(a, np.transpose(g, inverse))]

    return _emit("transpose", out, backward)


def reshape(a: NdBuffer, shape: Sequence[int]) -> NdBuffer:
    shape = tuple(int(n) for n in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise DimensionError(f"cannot reshape {a.shape} to {shape}")
    out = _array("reshape", a).reshape(shape)

    def backward(g):
        return [(a, g.reshape(a.shape))]

    return _emit("reshape", out, backward)


def concat(parts: Sequence[NdBuffer], axis: int) -> NdBuffer:
    # One record; the backward hands each part its slice of g, a view.
    if not parts:
        raise DimensionError("concat needs at least one part")
    try:
        arrs = [_array("concat", p) for p in parts]
        out = np.concatenate(arrs, axis=axis)
    except ValueError as exc:
        raise DimensionError(f"concat along axis {axis}: {[p.shape for p in parts]}: {exc}") from None
    ax = axis % out.ndim
    cuts = np.cumsum([a.shape[ax] for a in arrs[:-1]])

    def backward(g):
        return [(p, piece) for p, piece in zip(parts, np.split(g, cuts, axis=ax))]

    return _emit("concat", out, backward)


def take_rows(a: NdBuffer, rows) -> NdBuffer:
    """Rows of `a` along its leading axis, `a[rows]`, as one record; rows may
    repeat. The backward scatter-adds each output row's gradient into a zero
    gradient of `a`, so a row taken twice gets the sum of both."""
    rows = np.asarray(rows)
    if a.ndim < 1 or rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu":
        raise DimensionError(f"take_rows needs a non-empty 1-D integer index into the "
                             f"leading axis, got {rows.dtype} {rows.shape} for shape {a.shape}")
    if rows.min() < 0 or rows.max() >= a.shape[0]:
        raise DimensionError(f"take_rows index out of range for leading axis of shape {a.shape}")
    out = _array("take_rows", a)[rows]

    def backward(g):
        # A loop over whole rows: np.add.at walks elements and ran 5-15x
        # slower on batch-sized gathers.
        z = np.zeros(a.shape)
        for src, dst in enumerate(rows):
            z[dst] += g[src]
        return [(a, z)]

    return _emit("take_rows", out, backward)


def slice_axis(a: NdBuffer, axis: int, start: int, stop: int) -> NdBuffer:
    ax = axis % a.ndim
    if not 0 <= start < stop <= a.shape[ax]:
        raise DimensionError(f"slice [{start}:{stop}] invalid for axis {ax} of shape {a.shape}")
    sl = [slice(None)] * a.ndim
    sl[ax] = slice(start, stop)
    out = _array("slice_axis", a)[tuple(sl)]

    def backward(g):
        z = np.zeros(a.shape)
        z[tuple(sl)] = g
        return [(a, z)]

    return _emit("slice_axis", out, backward)


def _norm_axes(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % ndim for a in axis))


def reduce_sum(a: NdBuffer, axis=None, keepdims: bool = False) -> NdBuffer:
    axes = _norm_axes(axis, a.ndim)
    out = _array("reduce_sum", a).sum(axis=axes, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return [(a, np.broadcast_to(g, a.shape))]

    return _emit("reduce_sum", out, backward)


def mean(a: NdBuffer, axis=None, keepdims: bool = False) -> NdBuffer:
    axes = _norm_axes(axis, a.ndim)
    count = int(np.prod([a.shape[i] for i in axes], dtype=np.int64)) if axes else 1
    out = _array("mean", a).mean(axis=axes, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return [(a, np.broadcast_to(g / count, a.shape))]

    return _emit("mean", out, backward)


def square(a: NdBuffer) -> NdBuffer:
    arr = _array("square", a)
    return _emit("square", arr * arr, lambda g: [(a, g * 2.0 * arr)])


def sqrt(a: NdBuffer) -> NdBuffer:
    """Elementwise square root. The backward pass takes the zero subgradient
    at exactly-zero entries (the symmetric-kink choice, which also matches
    central differences there); negative inputs are rejected."""
    arr = _array("sqrt", a)
    if np.any(arr < 0.0):
        raise NumericError(f"sqrt of negative value (min {arr.min()})")
    out = np.sqrt(arr)

    def backward(g):
        zero = out == 0.0
        denom = np.where(zero, 1.0, out)
        return [(a, np.where(zero, 0.0, g * 0.5 / denom))]

    return _emit("sqrt", out, backward)


def tanh(a: NdBuffer) -> NdBuffer:
    out = np.tanh(_array("tanh", a))
    return _emit("tanh", out, lambda g: [(a, g * (1.0 - out * out))])


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_back(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Gradient through p = softmax(x) given dL/dp = g.
    return p * (g - (g * p).sum(axis=-1, keepdims=True))


def layer_norm(x: NdBuffer, gamma, beta, skip: NdBuffer | None = None) -> NdBuffer:
    """Normalize over the last axis: (x - mean) / sqrt(var + LN_EPS) * gamma + beta.

    One record; gamma and beta have shape (H,) for x of shape (..., H). With
    `skip` (x's shape) the record normalizes the residual sum skip + x, added
    in that order, so its value equals `layer_norm(add(skip, x), ...)`
    bitwise; the sum is not kept. The forward takes the mean, centers,
    squares, takes the mean again, adds LN_EPS, takes the root and its
    reciprocal, then scales and shifts, in that order. The backward (Ba et al.
    2016) with x_hat the normalized input and d = g * gamma is dx = inv * (d -
    mean(d) - x_hat * mean(d * x_hat)), dgamma = sum g * x_hat and dbeta = sum
    g over the leading axes; skip and x both receive the one dx array.
    """
    arr = _array("layer_norm", x)
    arr_g, buf_g = _as_operand(gamma)
    arr_b, buf_b = _as_operand(beta)
    width = arr.shape[-1:]
    if arr.ndim < 1 or np.shape(arr_g) != width or np.shape(arr_b) != width:
        raise DimensionError(f"layer_norm of {arr.shape} needs gain and shift of shape "
                             f"{width}, got {np.shape(arr_g)} and {np.shape(arr_b)}")
    if skip is not None:
        if skip.shape != arr.shape:
            raise DimensionError(f"layer_norm skip operand {skip.shape} does not match "
                                 f"input {arr.shape}")
        arr = _array("layer_norm", skip) + arr
    axes = (arr.ndim - 1,)
    x_hat = arr - arr.mean(axis=axes, keepdims=True)
    out = np.multiply(x_hat, x_hat)
    inv = np.float64(1.0) / np.sqrt(out.mean(axis=axes, keepdims=True) + np.float64(LN_EPS))
    x_hat *= inv
    np.multiply(x_hat, arr_g, out=out)
    out += arr_b
    residual = [x] if skip is None else [skip, x]

    def backward(g):
        g = np.ascontiguousarray(g).reshape(-1, width[0])
        flat_hat = x_hat.reshape(g.shape)
        gx = g * flat_hat
        # Taken now: gx is reused below as scratch for dx.
        params = _contribs((buf_g, lambda: gx.sum(axis=0)), (buf_b, lambda: g.sum(axis=0)))
        # mean(d) and mean(d * x_hat) are matrix-vector products with gamma.
        mean_d = (g @ arr_g)[:, None] / width[0]
        mean_dx = (gx @ arr_g)[:, None] / width[0]
        dx = g * arr_g
        dx -= mean_d
        dx -= np.multiply(flat_hat, mean_dx, out=gx)
        dx *= inv.reshape(-1, 1)
        dx = dx.reshape(x.shape)
        return [(buf, dx) for buf in residual] + params

    return _emit("layer_norm", out, backward)


def attention(q: NdBuffer, k: NdBuffer, v: NdBuffer, scale: float) -> NdBuffer:
    """softmax(q kᵀ * scale) v over tracks laid out as (..., T, D), as one record.

    q is (..., T, D), k (..., S, D) and v (..., S, E) with equal leading axes.
    The forward multiplies q by a contiguous copy of kᵀ, scales, takes the
    max-shifted softmax and multiplies by v. The record keeps the (..., T, S)
    probabilities p, not the scores; the backward is dv = pᵀ g, ds = p *
    (g vᵀ - rowsum(p * g vᵀ)) * scale, dq = ds k and dk = dsᵀ q.
    """
    arr_q, arr_k, arr_v = (_array("attention", x) for x in (q, k, v))
    lead = arr_q.shape[:-2]
    if (arr_q.ndim < 2 or arr_k.shape[:-2] != lead or arr_v.shape[:-2] != lead
            or arr_k.shape[-1] != arr_q.shape[-1] or arr_k.shape[-2] != arr_v.shape[-2]):
        raise DimensionError(f"attention needs q (..., T, D), k (..., S, D) and v (..., S, E), "
                             f"got {arr_q.shape}, {arr_k.shape} and {arr_v.shape}")
    scale = np.float64(scale)
    p = _softmax((arr_q @ np.ascontiguousarray(np.swapaxes(arr_k, -1, -2))) * scale)
    out = p @ arr_v

    def backward(g):
        ds = _softmax_back(p, g @ np.swapaxes(arr_v, -1, -2))
        ds *= scale
        return [(q, ds @ arr_k), (k, np.swapaxes(ds, -1, -2) @ arr_q),
                (v, np.swapaxes(p, -1, -2) @ g)]

    return _emit("attention", out, backward)


def level_fusion(parts: Sequence[NdBuffer], w: NdBuffer,
                 b: NdBuffer) -> tuple[NdBuffer, np.ndarray]:
    """Mix L equal-shape parts (..., T, H) with softmax weights, as one record.

    logits = concat(parts) @ wᵀ + b with w (L, L*H) and b (L,), alpha =
    softmax(logits) and out = sum_l alpha[..., l:l+1] * parts[l], summed in
    part order. Returns out and the read-only (..., T, L) array alpha. The
    record keeps alpha but not the concatenation: every gradient is built
    per part, with d_logits = softmax backward of d_alpha_l = rowsum(g *
    part_l), dpart_l = alpha_l * g + d_logits w_l, dw_l = d_logitsᵀ part_l
    and db = sum d_logits, w_l being the l-th column block of w.
    """
    if not parts:
        raise DimensionError("level_fusion needs at least one part")
    arrs = [_array("level_fusion", p) for p in parts]
    shape = arrs[0].shape
    if any(a.shape != shape for a in arrs):
        raise DimensionError(f"level_fusion parts disagree on shape: {[a.shape for a in arrs]}")
    n, width = len(parts), shape[-1]
    if w.shape != (n, n * width) or b.shape != (n,):
        raise DimensionError(f"level_fusion of {n} parts of width {width} needs w {(n, n * width)} "
                             f"and b {(n,)}, got {w.shape} and {b.shape}")
    arr_w, arr_b = _array("level_fusion", w), _array("level_fusion", b)
    cat = np.concatenate(arrs, axis=-1).reshape(-1, n * width)
    logits = (cat @ np.ascontiguousarray(arr_w.T)).reshape(shape[:-1] + (n,)) + arr_b
    alpha = _softmax(logits)
    alpha.setflags(write=False)
    out = alpha[..., 0:1] * arrs[0]
    term = np.empty(shape)
    for l in range(1, n):
        out += np.multiply(alpha[..., l:l + 1], arrs[l], out=term)

    def backward(g):
        d_alpha = np.empty(alpha.shape)
        for l, a in enumerate(arrs):
            d_alpha[..., l] = np.einsum("...h,...h->...", g, a)
        d_logits = _softmax_back(alpha, d_alpha).reshape(-1, n)
        contribs, d_w, term = [], np.empty((n, n * width)), np.empty(shape)
        for l, (p, a) in enumerate(zip(parts, arrs)):
            block = slice(l * width, (l + 1) * width)
            d_part = (d_logits @ arr_w[:, block]).reshape(shape)
            d_part += np.multiply(alpha[..., l:l + 1], g, out=term)
            contribs.append((p, d_part))
            d_w[:, block] = d_logits.T @ a.reshape(-1, width)
        return contribs + [(w, d_w), (b, d_logits.sum(axis=0))]

    return _emit("level_fusion", out, backward), alpha


def grad_check(f: Callable[[dict[str, NdBuffer]], NdBuffer],
               params: dict[str, np.ndarray]) -> "GradCheckReport":
    """Compare tape gradients of a scalar function against central differences.

    `f` maps a name->NdBuffer dict to a scalar NdBuffer. Every coordinate of
    every parameter is perturbed by +/- GRAD_CHECK_STEP in turn, the other
    leaves staying those of the analytic pass; the relative error is
    |analytic - cd| / max(1, |cd|), and a non-finite one (an overflowed
    evaluation or gradient) counts as infinite. The report names the first
    coordinate, in parameter order, with the largest error. The analytic pass
    runs with per-operation finiteness checks enabled.
    """
    leaves = {k: NdBuffer(v) for k, v in params.items()}
    with debug_checks():
        with Tape() as tape:
            out = f(leaves)
        if out.shape != ():
            raise DimensionError(f"grad_check needs a scalar function, got output shape {out.shape}")
        analytic = tape.grad(out, list(leaves.values()))

    def eval_at(name: str, i: int, value: float) -> float:
        probe = leaves[name].array.copy()
        probe.reshape(-1)[i] = value
        return f({**leaves, name: NdBuffer._wrap(probe)}).item()

    worst = GradCheckReport(max_rel_err=0.0, worst_param="", worst_index=-1)
    for (name, leaf), grad in zip(leaves.items(), analytic):
        for i, (orig, g) in enumerate(zip(leaf.array.reshape(-1), grad.reshape(-1))):
            cd = (eval_at(name, i, orig + GRAD_CHECK_STEP)
                  - eval_at(name, i, orig - GRAD_CHECK_STEP)) / (2.0 * GRAD_CHECK_STEP)
            rel = abs(g - cd) / max(1.0, abs(cd))
            if not np.isfinite(rel):
                rel = np.inf
            if rel > worst.max_rel_err:
                worst = GradCheckReport(max_rel_err=rel, worst_param=name, worst_index=i)
    return worst


@dataclass(frozen=True)
class GradCheckReport:
    """Result of grad_check: the worst coordinate and its relative error."""

    max_rel_err: float
    worst_param: str
    worst_index: int
