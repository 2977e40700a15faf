"""Two halves of a batch at once: the first on the calling thread, the
rest on one worker thread, made at first use and kept.

numpy and BLAS release the GIL while they compute, so on two cores the
halves overlap. The gradient of a batch-mean loss is the sum of each
half's gradient weighted by its share of the batch (Goyal et al. 2017,
arXiv 1706.02677), so each half records its own tape and runs its own
backward into the shared leaves. The split depends on the batch size
alone, never on the machine, so a run's bytes do not depend on its cores.
"""

from __future__ import annotations

import contextvars
import threading
from concurrent.futures import ThreadPoolExecutor, wait

from .tensor import Tape

_worker: ThreadPoolExecutor | None = None
_worker_made = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    global _worker
    with _worker_made:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="selectmae-half")
    return _worker


def run_halves(tape: Tape, n: int, half) -> list:
    """Results of `half(lo, hi, tape)` over the first ceil(n/2) of `n`
    items and over the rest, in that order.

    The first half runs here and records onto `tape`, which must be
    entered on this thread. The second runs on the worker, onto a fresh
    `Tape` entered there, in a copy of this thread's context (so
    `np.errstate` set here holds there too). One item runs here alone.
    Returns, or raises the first half's error else the second's, only
    once both halves have ended.
    """
    cut = (n + 1) // 2
    if cut == n:
        return [half(0, n, tape)]

    def second():
        with Tape() as own:
            return half(cut, n, own)

    future = _executor().submit(contextvars.copy_context().run, second)
    try:
        first = half(0, cut, tape)
    finally:
        wait([future])
    return [first, future.result()]
