"""Spans around calls into selectmae, recorded from outside the package.

A Tracer replaces attributes of the package's modules with wrappers that
time each call, and `restore()` puts every original back. Nothing inside
`src/` knows it is being measured. A wrapper only sees calls that look
the name up in the namespace it patched: patching `training.linear` times
the `linear` calls made by `training.pretrain_step`, not the ones inside
`layers.transformer_block`.

Spans nest. A span's self time is its duration minus the time of the
wrapped calls made inside it. Tape nodes are counted as the change in
`len(active_tape())` across a call.

`numerics.backward` is one span per step, about half of the step time.
Splitting it per layer needs scopes recorded on the tape itself, which
this outside-in tracer cannot see.
"""

from __future__ import annotations

import functools
import os
import time
import weakref
from collections import defaultdict

from selectmae import backbone, downstream, training
from selectmae.numerics import AdamW, active_tape

UNREGISTERED_BLOCK = "backbone.unregistered.block"


def tape_growth(args, before):
    tape = active_tape()
    return (len(tape) if tape is not None else 0) - before


def tape_length(args, before):
    return len(args[1])  # backward(loss, tape)


def file_bytes(args, before):
    return os.path.getsize(args[0])  # save_checkpoint(path, arrays)


class Tracer:
    """Patches names, records spans, and undoes every patch on restore()."""

    def __init__(self):
        # span name -> list of (duration ms, self ms, count)
        self.spans: dict[str, list[tuple[float, float, int]]] = defaultdict(list)
        self.mask_checks: list[str | None] = []  # None, or what was wrong
        self._open: list[float] = []  # child time of each open span, innermost last
        self._patched: list[tuple[object, str, object]] = []
        self._blocks = weakref.WeakKeyDictionary()  # BlockParams -> span name
        self._step_start: float | None = None

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def span(self, name, fn, count=None):
        """Wrap `fn`; `name` is a string or a function of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            tape = active_tape()
            before = len(tape) if tape is not None else 0
            tracer._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ms = (time.perf_counter() - start) * 1000.0
                children = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += ms
                counted = count(args, before) if count is not None else 0
                tracer.spans[label].append((ms, ms - children, counted))

        return wrapper

    def wrap(self, owner, attr: str, name, count=None):
        self.patch(owner, attr, self.span(name, vars(owner)[attr], count))

    # -- plans ----------------------------------------------------------

    def install_steps(self, strategy: str | None):
        """What every run wraps: the top-level step and eval calls, and the
        mask check. `strategy` is the pretraining mask strategy, or None
        for fine-tuning."""
        self.wrap(downstream, "classification_logits", _logits_span)
        if strategy is None:
            self._install_finetune_step()
            return
        self.wrap(training, "pretrain_step", "training.pretrain_step")
        attr = "sample_visible" if strategy == "adaptive" else "baseline_mask"
        self.patch(training, attr, self._checked_mask(vars(training)[attr]))

    def install_layers(self):
        """The traced run: every layer named in the per-layer metrics."""
        tape = tape_growth
        for module in (training, backbone):
            self.wrap(module, "transformer_block", self._block_name, tape)
            self.wrap(module, "apply_layer_norm", "layers.apply_layer_norm", tape)
        for module in (training, backbone, downstream):
            self.wrap(module, "linear", "layers.linear", tape)
        for module in (training, downstream):
            self.wrap(module, "backward", "numerics.backward", tape_length)
            self.wrap(module, "load_clip", "data.load_clip")
            self.patch(module, "ModelParams", self._registering(vars(module)["ModelParams"]))
        self.wrap(training, "embed_patches", "tokenizer.embed_patches", tape)
        self.wrap(training, "select_probabilities", "masking.select_probabilities", tape)
        self.wrap(training, "sample_visible", "masking.sample_visible")
        self.wrap(training, "baseline_mask", "masking.baseline_mask")
        self.wrap(training, "gather_rows_batched", "numerics.gather_rows_batched", tape)
        self.wrap(training, "save_checkpoint", "training.save_checkpoint", file_bytes)
        self.wrap(training, "load_checkpoint", "training.load_checkpoint")
        self.wrap(downstream, "tokenize", "tokenizer.tokenize", tape)
        self.wrap(AdamW, "step", "numerics.AdamW.step")

    # -- helpers --------------------------------------------------------

    def _block_name(self, args):
        return self._blocks.get(args[1], UNREGISTERED_BLOCK)

    def _registering(self, model_cls):
        """Build models as before, noting which blocks are encoder and which decoder."""
        blocks = self._blocks

        def build(*args, **kwargs):
            model = model_cls(*args, **kwargs)
            for i, block in enumerate(model.enc_blocks):
                blocks[block] = f"backbone.encoder.block{i}"
            for i, block in enumerate(model.dec_blocks):
                blocks[block] = f"backbone.decoder.block{i}"
            return model

        return build

    def _checked_mask(self, fn):
        checks = self.mask_checks

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            spec = fn(*args, **kwargs)
            checks.append(_mask_problem(spec))
            return spec

        return checked

    def _install_finetune_step(self):
        """A fine-tune step runs from entering its tape to the end of AdamW.step."""
        tracer = self
        tape_cls = vars(downstream)["Tape"]

        class StepTape(tape_cls):
            def __enter__(self):
                tracer._step_start = time.perf_counter()
                return super().__enter__()

        step = vars(AdamW)["step"]

        @functools.wraps(step)
        def step_then_close(*args, **kwargs):
            try:
                return step(*args, **kwargs)
            finally:
                if tracer._step_start is not None:
                    ms = (time.perf_counter() - tracer._step_start) * 1000.0
                    tracer.spans["downstream.finetune_step"].append((ms, ms, 0))
                    tracer._step_start = None

        self.patch(downstream, "Tape", StepTape)
        self.patch(AdamW, "step", step_then_close)


def _logits_span(args):
    stage = "eval" if active_tape() is None else "train"
    return f"downstream.classification_logits.{stage}"


# Default config: 8x32x32 clips in 2x4x4 tubelets, 95 % masked.
N_TOKENS = 256
N_VISIBLE = 13


def _mask_problem(spec) -> str | None:
    ids = spec.visible_ids
    if spec.n_tokens != N_TOKENS or ids.size != N_VISIBLE:
        return f"{ids.size} visible of {spec.n_tokens}, expected {N_VISIBLE} of {N_TOKENS}"
    if (ids[1:] <= ids[:-1]).any():
        return "visible ids not sorted and unique"
    if ids[0] < 0 or ids[-1] >= N_TOKENS:
        return "visible id out of range"
    return None
