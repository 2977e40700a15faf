"""Dense float tensors and a define-by-run reverse-mode tape.

Compute is 32-bit by default; tests may switch to 64-bit through the
`precision` context manager. A Tape records operations in execution order
(which is topological by construction) and `backward` replays it once,
in reverse, accumulating gradients into every `requires_grad` tensor
reachable from the loss. Each thread has its own stack of active tapes,
so a tape records only the operations run on the thread that entered it;
two threads can each build and replay their own tape at once, with
`backward` serializing only its final writes into the leaves' `.grad`.

A recorded node holds no intermediate Tensor: only its inputs' uids
(None for an untracked input), the input Tensor where that input is a
leaf (`requires_grad`; every recorded output is a fresh tensor that is
not), its output's uid and the backward closure. `backward` routes gradients by uid, and
each closure reads the arrays the forward saw, which it captured itself.
An intermediate that no closure captured is freed as soon as the caller
drops it, during forward; a closure, with what it captured, is dropped
as soon as `backward` has run it, so a tape is replayed once.

Importing this module sets glibc's allocator so that memory a step
frees stays in the process for the next step; see `_keep_freed_memory`.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import threading

import numpy as np

from ..errors import ContractError

_DEFAULT_DTYPE = np.float32
_UID = itertools.count()

# mallopt parameter numbers and the values set, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024
_TRIM_THRESHOLD_BYTES = 256 * 1024 * 1024


def _keep_freed_memory() -> None:
    """Keep the arrays a training step frees in the heap for the next step.

    By default glibc serves a request above the mmap threshold (128 KiB
    at first) with a fresh mmap and unmaps it on free, and it returns the
    top of the heap to the kernel once more than the trim threshold is
    free there; both thresholds rise as large blocks are freed. A step
    allocates and frees arrays of up to a few MiB, so each step faulted
    the same pages in again: about 2,500 minor faults per default
    adaptive step, and more once attention recomputed its weights in
    backward. Both values are needed, because setting either one stops
    glibc from adjusting the other. The mmap threshold alone leaves the
    trim threshold at 128 KiB, so the freed heap top is still returned
    on every step. The trim threshold alone leaves every array above
    128 KiB on its own mmap. With both, requests below 32 MiB come from
    the heap, which keeps up to 256 MiB free for reuse.

    mallopt is looked up among the symbols the interpreter has loaded,
    libc's among them, rather than through `ctypes.util.find_library`,
    which runs `ldconfig` in a child process. Where the lookup fails or
    libc has no mallopt, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


_keep_freed_memory()


@contextlib.contextmanager
def precision(dtype):
    """Temporarily change the dtype used for newly created tensors."""
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous


class Tensor:
    """A shaped float buffer, optionally tracked for gradients.

    `requires_grad` marks leaves (parameters). `tracked` is set when the
    tensor is either a leaf or the output of a recorded operation, i.e.
    when gradient can flow through it.
    """

    __slots__ = ("data", "requires_grad", "grad", "uid", "tracked")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DEFAULT_DTYPE)
        self.requires_grad = requires_grad
        self.grad = None
        self.uid = next(_UID)
        self.tracked = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g  # in place, so a view of an optimizer's flat buffer is written there

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("input_uids", "leaves", "output_uid", "backward_fn")

    def __init__(self, input_uids, leaves, output_uid, backward_fn):
        self.input_uids = input_uids
        self.leaves = leaves
        self.output_uid = output_uid
        self.backward_fn = backward_fn


class Tape:
    """Execution-ordered record of operations for one reverse pass."""

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self):
        _ACTIVE.tapes.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.tapes.pop()
        return False

    def __len__(self):
        return len(self._nodes)

    def record(self, inputs: tuple[Tensor, ...], output: Tensor, backward_fn):
        """Record the op if any input can carry gradient; one pass over the
        inputs, since every op of a step pays for it."""
        input_uids, leaves = [], []
        live = False
        for t in inputs:
            if t.tracked:
                live = True
                input_uids.append(t.uid)
                leaves.append(t if t.requires_grad else None)
            else:
                input_uids.append(None)
                leaves.append(None)
        if live:
            self._nodes.append(_Node(input_uids, leaves, output.uid, backward_fn))
            output.tracked = True


class _ActiveTapes(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []


_ACTIVE = _ActiveTapes()  # the entered tapes of the current thread, innermost last
_LEAF_WRITES = threading.Lock()


def active_tape() -> Tape | None:
    """The innermost tape entered on the current thread, if any."""
    tapes = _ACTIVE.tapes
    return tapes[-1] if tapes else None


def record_op(inputs: tuple[Tensor, ...], output: Tensor, backward_fn):
    """Record onto the active tape if any input can carry gradient."""
    tapes = _ACTIVE.tapes
    if tapes:
        tapes[-1].record(inputs, output, backward_fn)


def backward(loss: Tensor, tape: Tape):
    """Populate `.grad` on every requires_grad tensor reachable from `loss`.

    Visits each recorded operation exactly once, in reverse execution
    order; accumulation order is therefore deterministic. Each node's
    closure is released once it has run, so the tape cannot be replayed.
    Writes into `.grad` hold one lock, so two passes over separate tapes
    that share leaves leave each leaf the sum of both gradients; from an
    empty or zeroed `.grad` that sum has two addends, and the same bits
    whichever pass ends first.
    """
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    if loss.requires_grad:
        leaves[loss.uid] = loss
    for node in reversed(tape._nodes):
        backward_fn, node.backward_fn = node.backward_fn, None
        if backward_fn is None:
            raise ContractError("backward has already run on this tape")
        # A tensor's accumulated gradient is complete once all its consumers
        # (recorded later, hence visited earlier) have been processed.
        g_out = grads.pop(node.output_uid, None)
        if g_out is None:
            continue
        for uid, leaf, g in zip(node.input_uids, node.leaves, backward_fn(g_out)):
            if g is None or uid is None:
                continue
            if uid in grads:
                grads[uid] = grads[uid] + g
            else:
                grads[uid] = g
            if leaf is not None:
                leaves[uid] = leaf
    with _LEAF_WRITES:
        for uid, t in leaves.items():
            t.accumulate_grad(grads[uid])
