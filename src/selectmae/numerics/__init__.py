from .tensor import Tape, Tensor, active_tape, backward, precision
from . import ops
from .ops import (
    add,
    affine,
    attend,
    concat_rows,
    gather_rows_batched,
    gelu_affine,
    layer_norm,
    log_softmax,
    mul,
    norm_affine,
    reduce_mean,
    reduce_sum,
    reshape,
    scale,
    stop_gradient,
    sub,
)
from .halves import beside, run_halves
from .optim import AdamW, check_schedule, cosine_warmup_lr, stored_count
