"""Bit-identity of the STFT frontend, the producer of the token store.

The token store (`cache.token_path`) keys a file's token grids by its
bytes, the dtype and `dsp.FRONTEND_KEY`, a hand-edited label; nothing
else tells a cache that the tokens it holds are stale. The "frontend"
group of `tests/pins.json` pins the little-endian float64 bytes of
`features.utterance_tokens` (read, resample, trim, normalize, fix the
length, STFT) for a fixed set of WAV files, and its "keys" group pins
the key text. A frontend change that alters any of the digests must also
edit `FRONTEND_KEY`, so that every stored grid misses; `python -m
tests.pins --write` then re-pins both.
"""

from pathlib import Path

import numpy as np

from spoofnet.dsp import FRONTEND_KEY, write_wav
from spoofnet.features import utterance_tokens
from spoofnet.synth import SyntheticCorpusSpec, synth_utterance
from tests.pins import PINS, float64_digest


def golden_wavs(directory: Path) -> dict[str, Path]:
    """Write the golden inputs as 16-bit WAV files; their paths by name."""
    signals = {}
    # 1.0 s is tiled up to the fixed length, 3.2 s is cut down to it
    for name, duration, fake in (("synth_short", 1.0, False), ("synth_long", 3.2, True)):
        spec = SyntheticCorpusSpec(duration_s=duration)
        signals[name] = (synth_utterance(np.random.default_rng(200), spec, fake=fake), 16000)
    # 22.05 kHz with 0.2 s of silence at each end: the resampler and the trim
    t = np.arange(int(1.5 * 22050)) / 22050
    tone = 0.5 * np.sin(2 * np.pi * 180.0 * t) + 0.2 * np.sin(2 * np.pi * 1250.0 * t)
    edge = np.zeros(int(0.2 * 22050))
    signals["tone_22050"] = (np.concatenate([edge, tone, edge]), 22050)
    signals["noise"] = (0.3 * np.random.default_rng(11).standard_normal(40000), 16000)
    paths = {}
    for name, (samples, rate) in signals.items():
        paths[name] = directory / f"{name}.wav"
        write_wav(paths[name], samples, rate)
    return paths


def token_digests(directory: Path) -> dict[str, str]:
    """The float64 digest of each golden WAV's magnitude, then phase
    tokens; the WAVs are written in directory."""
    return {name: float64_digest(utterance_tokens(path))
            for name, path in golden_wavs(directory).items()}


def test_frontend_key_unchanged():
    # any change to this string invalidates every stored token grid
    assert FRONTEND_KEY == PINS["keys"]["FRONTEND_KEY"]


def test_tokens_bit_identical(tmp_path):
    assert token_digests(tmp_path) == PINS["frontend"]
