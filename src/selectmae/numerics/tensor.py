"""Dense float tensors and a define-by-run reverse-mode tape.

Compute is 32-bit by default; tests may switch to 64-bit through the
`precision` context manager. A Tape records operations in execution order
(which is topological by construction) and `backward` replays it once,
in reverse, accumulating gradients into every `requires_grad` tensor
reachable from the loss.

A recorded node holds no intermediate Tensor: only its inputs' uids
(None for an untracked input), the input Tensor where that input is a
leaf of the tape (`requires_grad` and not produced on it), its output's
uid and the backward closure. `backward` routes gradients by uid, and
each closure reads the arrays the forward saw, which it captured itself.
An intermediate that no closure captured is freed as soon as the caller
drops it, during forward.
"""

from __future__ import annotations

import contextlib
import itertools

import numpy as np

from ..errors import ContractError

_DEFAULT_DTYPE = np.float32
_UID = itertools.count()


def default_dtype():
    return _DEFAULT_DTYPE


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

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

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
        self._produced: set[int] = set()

    def __enter__(self):
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.pop()
        return False

    def __len__(self):
        return len(self._nodes)

    def record(self, inputs: tuple[Tensor, ...], output: Tensor, backward_fn):
        input_uids = tuple(t.uid if t.tracked else None for t in inputs)
        leaves = tuple(t if t.requires_grad and not self.produced(t) else None for t in inputs)
        self._nodes.append(_Node(input_uids, leaves, output.uid, backward_fn))
        self._produced.add(output.uid)
        output.tracked = True

    def produced(self, t: Tensor) -> bool:
        """True when `t` is the output of an operation recorded here."""
        return t.uid in self._produced


_ACTIVE: list[Tape] = []


def active_tape() -> Tape | None:
    return _ACTIVE[-1] if _ACTIVE else None


def record_op(inputs: tuple[Tensor, ...], output: Tensor, backward_fn):
    """Record onto the active tape if any input can carry gradient."""
    tape = active_tape()
    if tape is not None and any(t.tracked for t in inputs):
        tape.record(inputs, output, backward_fn)


def backward(loss: Tensor, tape: Tape):
    """Populate `.grad` on every requires_grad tensor reachable from `loss`.

    Visits each recorded operation exactly once, in reverse execution
    order; accumulation order is therefore deterministic.
    """
    if loss.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {loss.uid: np.ones_like(loss.data)}
    leaves: dict[int, Tensor] = {}
    if loss.requires_grad and not tape.produced(loss):
        leaves[loss.uid] = loss
    for node in reversed(tape._nodes):
        # A tensor's accumulated gradient is complete once all its consumers
        # (recorded later, hence visited earlier) have been processed.
        g_out = grads.pop(node.output_uid, None)
        if g_out is None:
            continue
        for uid, leaf, g in zip(node.input_uids, node.leaves, node.backward_fn(g_out)):
            if g is None or uid is None:
                continue
            if uid in grads:
                grads[uid] = grads[uid] + g
            else:
                grads[uid] = g
            if leaf is not None:
                leaves[uid] = leaf
    for uid, t in leaves.items():
        t.accumulate_grad(grads[uid])
