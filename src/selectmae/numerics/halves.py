"""Two pieces of work at once: one on the calling thread, the other on
one worker thread, made at first use and kept.

numpy and BLAS release the GIL while they compute, so on two cores the
pieces overlap. `beside` is the one way in: it runs a function here and
another on the worker, and returns, or raises the calling side's error
else the worker's, only once both have ended. It has two callers:

- `run_halves`, which splits a batch in two. The gradient of a
  batch-mean loss is the sum of each half's gradient weighted by its
  share of the batch (Goyal et al. 2017, arXiv 1706.02677), so each half
  records its own tape and runs its own backward into the shared
  leaves. The split depends on the batch size alone, never on the
  machine, so a run's bytes do not depend on its cores.
- `training.PretrainRun`, which draws its parameters and builds its
  optimizer on the worker while the calling thread reads the corpus.
  Each draw has its own seeded stream, so its bytes do not depend on
  which thread makes it.
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


def beside(here, there) -> tuple:
    """(`here()`, `there()`): the first run on this thread, the second on
    the worker, in a copy of this thread's context (so `np.errstate` set
    here holds there too). Returns, or raises `here`'s error else
    `there`'s, only once both have ended."""
    future = _executor().submit(contextvars.copy_context().run, there)
    try:
        mine = here()
    finally:
        wait([future])
    return mine, future.result()


def run_halves(tape: Tape, n: int, half) -> list:
    """Results of `half(lo, hi, tape)` over the first ceil(n/2) of `n`
    items and over the rest, in that order.

    The first half runs here and records onto `tape`, which must be
    entered on this thread. The second runs on the worker (`beside`),
    onto a fresh `Tape` entered there. One item runs here alone.
    """
    cut = (n + 1) // 2
    if cut == n:
        return [half(0, n, tape)]

    def second():
        with Tape() as own:
            return half(cut, n, own)

    return list(beside(lambda: half(0, cut, tape), second))
