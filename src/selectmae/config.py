"""Strict JSON run configuration mirroring every component's settings.

The resolved document is the one form a config takes outside Python:
every command that trains or writes a corpus logs it, its hash
identifies the run, a pretraining
checkpoint embeds its backbone and pretrain sections, and a classifier
its backbone section. The backbone section is the whole model
architecture, tubelet included; the token width is its `enc_dim`.
`RunConfig.from_document` is the one way back to dataclasses, with the
same checks for a `--config` file and a checkpoint: unknown keys, all
named in one refusal, and values of the wrong type are rejected at every
level, so typos cannot silently fall back to defaults. A command's
`--set KEY=VALUE` overrides are put into its `--config` document, or
`reconstruct`'s checkpoint's, before that (`config_grid`).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
import types
import typing
from dataclasses import dataclass

from .backbone import BackboneConfig
from .data import SynthConfig
from .downstream import FinetuneConfig
from .errors import ConfigError
from .training import PretrainConfig, config_snapshot

_SECTIONS = {
    "data": SynthConfig,
    "backbone": BackboneConfig,
    "pretrain": PretrainConfig,
    "finetune": FinetuneConfig,
}


def default_document() -> dict:
    return {"seed": 0, **config_snapshot(**{name: cls() for name, cls in _SECTIONS.items()})}


def _fits(value, hint) -> bool:
    """Whether a JSON value can stand for a field annotated `hint`: an int
    may stand for a float, a float must be finite (Python's JSON reads
    NaN and Infinity), a list may stand for a tuple of the annotated
    length, and null only for a field that admits None."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_fits(value, a) for a in args)
    if hint in (int, float):
        return (isinstance(value, (int, hint)) and not isinstance(value, bool)
                and (isinstance(value, int) or math.isfinite(value)))
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, list) and len(value) == len(args)
                and all(_fits(v, a) for v, a in zip(value, args)))
    return isinstance(value, hint)


def _check_value(value, hint, path: str):
    if not _fits(value, hint):
        name = hint.__name__ if isinstance(hint, type) else str(hint)
        name = name.replace("float", "finite float")
        raise ConfigError(f"config key '{path}' must be {name}, got {value!r}")


def _refuse_unknown(user: dict, source: str):
    """Refuse the keys of `user`, at either level, that the default
    document lacks: one message names each, a section's as 'section.key'."""
    doc = default_document()
    unknown = [key for key in user if key not in doc]
    for name in _SECTIONS:
        if not isinstance(user.get(name, {}), dict):
            raise ConfigError(f"config section '{name}' must be an object")
        unknown += [f"{name}.{key}" for key in user.get(name, {}) if key not in doc[name]]
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)} in {source}")


def _merge(user: dict, source: str) -> dict:
    """The default document with every value of `user` checked against
    its field's annotation and put in place."""
    _refuse_unknown(user, source)
    doc = default_document()
    if "seed" in user:
        _check_value(user["seed"], int, "seed")
        doc["seed"] = user["seed"]
    for name, cls in _SECTIONS.items():
        section = user.get(name, {})
        hints = typing.get_type_hints(cls)
        for key, value in section.items():
            _check_value(value, hints[key], f"{name}.{key}")
        doc[name].update(section)
    return doc


def _build(cls, section: dict):
    """The dataclass of one resolved section; JSON lists become tuples."""
    return cls(**{key: tuple(value) if isinstance(value, list) else value
                  for key, value in section.items()})


@dataclass
class RunConfig:
    seed: int
    data: SynthConfig
    backbone: BackboneConfig
    pretrain: PretrainConfig
    finetune: FinetuneConfig
    document: dict  # the resolved JSON form, logged verbatim

    @classmethod
    def from_document(cls, user: dict | None = None, source: str = "the document") -> "RunConfig":
        # the JSON round trip turns a Python caller's tuples into lists
        user = json.loads(json.dumps(user or {}))
        doc = _merge(user, source)
        seed = doc["seed"]
        # section seeds follow the top-level seed unless set explicitly
        for name in ("pretrain", "finetune"):
            if "seed" not in user.get(name, {}):
                doc[name]["seed"] = seed
        sections = {name: _build(c, doc[name]) for name, c in _SECTIONS.items()}
        return cls(seed=seed, document=doc, **sections)

    def dumps(self) -> str:
        return json.dumps(self.document, indent=2, sort_keys=True)

    def config_hash(self) -> str:
        raw = json.dumps(self.document, sort_keys=True).encode("utf-8")
        return hashlib.sha256(raw).hexdigest()[:12]


def config_grid(document: dict, sets, source: str = "the document") -> list[tuple[dict, RunConfig]]:
    """The configs a command runs: `document`, read from `source`, with
    each `--set KEY=VALUE` put in place before it is resolved. A KEY named
    more than once is swept: one config per combination, in product
    order over the keys as they first appear, each with its {KEY: value}
    of the swept keys."""
    values, named = {}, {}
    for text in sets:
        key, sep, raw = text.partition("=")
        if not sep or not re.fullmatch(r"seed|\w+\.\w+", key):
            raise ConfigError(f"--set takes KEY=VALUE, KEY 'seed' or 'section.key', got {text!r}")
        try:
            value = json.loads(raw)
        except ValueError:  # not JSON: a bare string
            value = raw
        values.setdefault(key, []).append(value)
        section, _, name = key.rpartition(".")
        if section:  # the one top-level KEY, seed, is known
            named.setdefault(section, {})[name] = value
    _refuse_unknown(named, "--set")
    grid = []
    for combo in itertools.product(*values.values()):
        doc = json.loads(json.dumps(document))
        for key, value in zip(values, combo):
            section, _, name = key.rpartition(".")
            where = doc.setdefault(section, {}) if section else doc
            if not isinstance(where, dict):
                raise ConfigError(f"config section '{section}' must be an object")
            where[name] = value
        swept = {key: value for key, value in zip(values, combo) if len(values[key]) > 1}
        grid.append((swept, RunConfig.from_document(doc, source)))
    return grid
