"""Bit-identity of the STFT frontend, the producer of the token store.

The token store (`cache.token_path`) keys a file's token grids by its
bytes, the dtype and `dsp.FRONTEND_KEY`, a hand-edited label; nothing
else tells a cache that the tokens it holds are stale. The digests below
pin the little-endian float64 bytes of `features.utterance_tokens` (read,
resample, trim, normalize, fix the length, STFT) for a fixed set of WAV
files, computed with numpy 2.4 on x86-64; another FFT build may differ
in the last bit. A frontend change that alters any of them must also
edit `FRONTEND_KEY`, so that every stored grid misses, and then the
digests and the key text here. To print the digests of the current tree:

    PYTHONPATH=src python -m tests.test_frontend_golden
"""

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from spoofnet.dsp import FRONTEND_KEY, write_wav
from spoofnet.features import utterance_tokens
from spoofnet.synth import SyntheticCorpusSpec, synth_utterance


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


GOLDEN_SHA256 = {
    "synth_short": "c5e73158a21dd059008cd59436c1fa0df7bb48db62c04f1efbe7a6e86bfaa162",
    "synth_long": "1ada931269a8fb6e86605ffa2ca05812beb31fae96aafb5a361bbbfc7f330285",
    "tone_22050": "74d4f0d0c4e94a0150bc176d3d0e19a68a91bb7bdb94c8bc8ec9ec9d665b58b6",
    "noise": "d3d85fe100e89376ad166d5bb0f300b2cad17d12394013596e865c07005e968d",
}


def token_digest(path) -> str:
    """sha256 over the little-endian float64 bytes of the magnitude, then
    the phase tokens."""
    h = hashlib.sha256()
    for grid in utterance_tokens(path):
        h.update(np.asarray(grid, dtype="<f8").tobytes())
    return h.hexdigest()


def test_frontend_key_unchanged():
    # any change to this string invalidates every stored token grid
    assert FRONTEND_KEY == "stft:16000:trim0.02:-40.0:33024:512:256:256:1e-10"


def test_tokens_bit_identical(tmp_path):
    got = {name: token_digest(path) for name, path in golden_wavs(tmp_path).items()}
    assert got == GOLDEN_SHA256


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN_SHA256 = {")
        for name, path in golden_wavs(Path(tmp)).items():
            print(f'    "{name}": "{token_digest(path)}",')
        print("}")
