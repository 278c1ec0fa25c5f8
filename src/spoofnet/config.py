"""Human-readable key=value config documents.

One flat file covers the model and training sections; `#` at the start
of a line or after whitespace starts a comment (a `#` inside a value is
refused), and a key may appear only once. Values are typed after the
dataclass defaults they override, and each record checks its own values
when it is built, from a file or in code; an error in one key's value
names that key's line. Every key must be a field of one of the
document's sections, so a key that older documents carried and that is
now a module constant is refused like any other unknown key.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

from .dsp import NUM_BINS, NUM_FRAMES
from .errors import ParseError, read_utf8
from .model import ModelConfig
from .synth import SyntheticCorpusSpec
from .train import TrainConfig


# a comment starts at a '#' that opens the line or follows whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


class _Document(dict):
    """A document's value texts by key; ``line`` maps each key to its line."""

    def __init__(self):
        super().__init__()
        self.line: dict[str, int] = {}


def parse_kv(path) -> _Document:
    """The document's keys and value texts, and each key's line; a key may
    be set only once."""
    out = _Document()
    for line_no, raw in enumerate(read_utf8(path), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "#" in line:
            raise ParseError(f"'#' inside {line!r}; a comment's '#' follows "
                             f"whitespace", line=line_no)
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}",
                             line=line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ParseError(f"{key} is set again (first set on line "
                             f"{out.line[key]})", line=line_no)
        out.line[key] = line_no
        out[key] = value
    return out


def _coerce(kv: _Document, key: str, default):
    """kv's text for key, typed after default."""
    text = kv[key]
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        return text
    except (ValueError, TypeError) as exc:
        raise ParseError(f"cannot parse {key} = {text!r}: {exc}",
                         line=kv.line[key]) from exc


def _from_kv(cls, kv: _Document):
    """The record of cls with the fields kv sets; a field's own error
    names its line."""
    kwargs = {f.name: _coerce(kv, f.name, f.default)
              for f in dataclasses.fields(cls) if f.name in kv}
    try:
        return cls(**kwargs)
    except ParseError as exc:
        if exc.field not in kv:
            raise
        raise ParseError(str(exc), line=kv.line[exc.field]) from exc


def _check_keys(kv: _Document, *classes) -> None:
    """Reject any key that is no field of the sections, as a likely typo,
    naming the line of the first such key."""
    known = {f.name for cls in classes for f in dataclasses.fields(cls)}
    unknown = [key for key in kv if key not in known]
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(unknown)}",
                         line=kv.line[unknown[0]])


def load_corpus_spec(path) -> SyntheticCorpusSpec:
    """A synthetic corpus spec; unknown keys are rejected as likely typos."""
    kv = parse_kv(path)
    _check_keys(kv, SyntheticCorpusSpec)
    return _from_kv(SyntheticCorpusSpec, kv)


def write_config(path, *configs, header: str | None = None) -> None:
    """Serialize dataclass configs; later sections may not repeat keys, and
    no value may hold a '#' or a line break, or start or end with
    whitespace, which would not read back."""
    lines = []
    if header:
        lines.append(f"# {header}")
    seen = set()
    for cfg in configs:
        lines.append(f"# {type(cfg).__name__}")
        for f in dataclasses.fields(cfg):
            if f.name in seen:
                raise ValueError(f"duplicate config key {f.name!r}")
            seen.add(f.name)
            text = str(getattr(cfg, f.name))
            if any(c in text for c in "#\n\r") or text != text.strip():
                raise ValueError(f"config value {f.name} = {text!r} holds a '#', "
                                 f"a line break or outer whitespace")
            lines.append(f"{f.name} = {text}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# the frontend emits one token grid size; a model of any other cannot train
_GRID = {"n_frames": NUM_FRAMES, "n_bins": NUM_BINS}


def load_run_config(path) -> tuple[ModelConfig, TrainConfig]:
    """One document configures both the model and the training run;
    keys belonging to neither are rejected as likely typos, and so is a
    token grid other than the frontend's 128 x 256."""
    kv = parse_kv(path)
    _check_keys(kv, ModelConfig, TrainConfig)
    model_cfg, train_cfg = _from_kv(ModelConfig, kv), _from_kv(TrainConfig, kv)
    for name, size in _GRID.items():
        if getattr(model_cfg, name) != size:
            raise ParseError(f"{name} = {getattr(model_cfg, name)}, expected {size} "
                             f"(the frontend's fixed token grid)", line=kv.line[name])
    return model_cfg, train_cfg
