"""Shared fixtures and synthesis helpers for the test suite."""

import wave

import numpy as np
import pytest

from voxmask.audio import Waveform
from voxmask import synth


def make_tone(freq: float, duration: float, fs: int = 16000, amp: float = 0.3) -> Waveform:
    t = np.arange(int(round(duration * fs))) / fs
    return Waveform(amp * np.sin(2 * np.pi * freq * t), fs)


def make_noise(duration: float, fs: int = 16000, seed: int = 0, amp: float = 0.1) -> Waveform:
    rng = np.random.default_rng(seed)
    return Waveform(amp * rng.standard_normal(int(round(duration * fs))), fs)


def make_test_vowel(f0: float, formants=(700.0, 1200.0, 2600.0), duration: float = 0.8,
                    fs: int = 16000, seed: int = 0) -> Waveform:
    return synth.make_vowel(duration, f0, formants, fs=fs, seed=seed)


def write_wide_pcm(path, pcm16: np.ndarray, sample_rate: int, width: int) -> None:
    """int16 samples d written as PCM-24 (width 3) or PCM-32 (width 4): d * 2^8 or d * 2^16, little-endian."""
    wide = np.asarray(pcm16, dtype="<i4") << (8 * (width - 2))
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(width)
        fh.setframerate(sample_rate)
        fh.writeframes(wide.view(np.uint8).reshape(-1, 4)[:, :width].tobytes())


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """A reduced synthetic corpus shared by pipeline-level tests."""
    out = tmp_path_factory.mktemp("corpus")
    manifest = synth.generate_corpus(out, seed=20240311, n_per_group=3, n_modal=2, n_disguised=1)
    return manifest
