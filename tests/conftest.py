import numpy as np
import pytest

from spoofnet import autodiff as ad
from spoofnet.dsp import FIXED_NUM_SAMPLES, SAMPLE_RATE, FixedWaveform
from spoofnet.model import toy_config


@pytest.fixture(scope="session")
def sine_220() -> FixedWaveform:
    t = np.arange(FIXED_NUM_SAMPLES) / SAMPLE_RATE
    return FixedWaveform(np.sin(2 * np.pi * 220.0 * t))


@pytest.fixture(scope="session")
def sawtooth_100() -> FixedWaveform:
    t = np.arange(FIXED_NUM_SAMPLES) / SAMPLE_RATE
    return FixedWaveform(2.0 * ((100.0 * t) % 1.0) - 1.0)


@pytest.fixture(scope="session")
def silence() -> FixedWaveform:
    return FixedWaveform(np.zeros(FIXED_NUM_SAMPLES))


def synth_vowel(f0=120.0, f1=500.0, bw1=60.0, f2=1500.0, bw2=90.0) -> FixedWaveform:
    """Band-limited pulse train through two resonators: a known-truth vowel."""
    from scipy.signal import lfilter

    sr = SAMPLE_RATE
    t = np.arange(FIXED_NUM_SAMPLES) / sr
    src = np.zeros_like(t)
    k = 1
    while k * f0 < 6000.0:
        src += np.cos(2 * np.pi * k * f0 * t)
        k += 1

    def resonator(freq, bw):
        r = np.exp(-np.pi * bw / sr)
        theta = 2 * np.pi * freq / sr
        return [1.0], [1.0, -2 * r * np.cos(theta), r * r]

    b1, a1 = resonator(f1, bw1)
    b2, a2 = resonator(f2, bw2)
    vowel = lfilter(b2, a2, lfilter(b1, a1, src))
    return FixedWaveform(vowel / np.max(np.abs(vowel)))


@pytest.fixture(scope="session")
def vowel_500_1500() -> FixedWaveform:
    return synth_vowel()


@pytest.fixture
def tiny_cfg():
    """Smallest config that still exercises every code path."""
    return toy_config(n_frames=8, n_bins=16, embed_dim=8, enc_heads=2,
                      enc_head_dim=4, pred_heads=2, pred_head_dim=4,
                      mlp_dim=16, pool_heads=2, enc_layers=1, pred_layers=1)


def hold_interior_gradients(loss) -> list:
    """Wrap the backward function of each interior graph node that loss
    reaches so that it records, and so holds, the gradient it is handed,
    with the function itself. Call before ``ad.backward(loss)``: the
    returned list fills with (gradient, backward function) pairs as the
    walk runs them, and while it lives, each gradient and each array a
    backward function reads outlives the walk that frees the graph."""
    held = []
    for node in ad._toposort(loss):
        backward_fn = node._backward_fn
        if backward_fn is None:  # a leaf
            continue

        def record(g, backward_fn=backward_fn):
            held.append((g, backward_fn))
            backward_fn(g)

        node._backward_fn = record
    return held
