"""Human-readable key=value config documents.

One flat file covers the model and training sections; `#` starts a
comment. Values are typed after the dataclass defaults they override.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .dsp import NUM_BINS, NUM_FRAMES
from .errors import ParseError, read_utf8
from .model import FORMANT_RANGES, ModelConfig
from .synth import SyntheticCorpusSpec
from .train import TrainConfig


def parse_kv(path) -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, raw in enumerate(read_utf8(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}",
                             line=line_no)
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _coerce(text: str, default, key: str):
    try:
        if isinstance(default, int):
            return int(text)
        if isinstance(default, float):
            return float(text)
        if isinstance(default, tuple):
            return tuple(p.strip() for p in text.split(",") if p.strip())
        return text
    except (ValueError, TypeError) as exc:
        raise ParseError(f"cannot parse {key} = {text!r}: {exc}") from exc


def _from_kv(cls, kv: dict[str, str]):
    defaults = cls()
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in kv:
            kwargs[f.name] = _coerce(kv[f.name], getattr(defaults, f.name), f.name)
    return cls(**kwargs)


def load_corpus_spec(path) -> SyntheticCorpusSpec:
    return _from_kv(SyntheticCorpusSpec, parse_kv(path))


def write_config(path, *configs, header: str | None = None) -> None:
    """Serialize dataclass configs; later sections may not repeat keys."""
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
            lines.append(f"{f.name} = {_format_value(getattr(cfg, f.name))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# the least usable value of each size; a layer count may be 0 (no blocks)
_LEAST_SIZE = {"embed_dim": 1, "enc_layers": 0, "enc_heads": 1, "enc_head_dim": 1,
               "mlp_dim": 1, "pred_layers": 0, "pred_heads": 1, "pred_head_dim": 1,
               "pool_heads": 1, "batch_size": 1, "max_epochs": 1}
# the frontend emits one token grid size; a model of any other cannot train
_GRID = {"n_frames": NUM_FRAMES, "n_bins": NUM_BINS}
_DTYPES = ("float32", "float64")
# keys sidecars once carried, each with the one value the model honours
_RETIRED = {"formant_ranges": ",".join(f"{lo:g}:{hi:g}" for lo, hi in FORMANT_RANGES)}


def load_run_config(path) -> tuple[ModelConfig, TrainConfig]:
    """One document configures both the model and the training run;
    keys belonging to neither are rejected as likely typos, and so are
    sizes below 1, negative layer counts, a token grid other than the
    frontend's 128 x 256, a dtype other than float32/float64 and a
    retired key holding any value but its fixed one."""
    kv = parse_kv(path)
    for name, fixed in _RETIRED.items():
        value = kv.pop(name, fixed)
        if value != fixed:
            raise ParseError(f"{name} = {value}, expected {fixed} (no longer settable)")
    known = {f.name for f in dataclasses.fields(ModelConfig)} \
        | {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = sorted(set(kv) - known)
    if unknown:
        raise ParseError(f"unknown config keys: {', '.join(unknown)}")
    model_cfg, train_cfg = _from_kv(ModelConfig, kv), _from_kv(TrainConfig, kv)
    values = {**vars(model_cfg), **vars(train_cfg)}
    for name, least in _LEAST_SIZE.items():
        if values[name] < least:
            raise ParseError(f"{name} = {values[name]} is below its least usable "
                             f"value {least}")
    for name, size in _GRID.items():
        if values[name] != size:
            raise ParseError(f"{name} = {values[name]}, expected {size} (the "
                             f"frontend's fixed token grid)")
    if model_cfg.dtype not in _DTYPES:
        raise ParseError(f"dtype = {model_cfg.dtype!r}, expected one of "
                         f"{', '.join(_DTYPES)}")
    return model_cfg, train_cfg
