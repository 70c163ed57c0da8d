"""Mono audio I/O, resampling, framing and overlap-add."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.io import wavfile
from scipy.signal import firwin, resample_poly


class AudioFormatError(ValueError):
    """Raised for malformed or unreadable WAV containers."""


class UnsupportedFormatError(AudioFormatError):
    """Raised for WAV encodings other than PCM-16, PCM-24, PCM-32 and IEEE float-32."""


def frozen(a, dtype=None) -> np.ndarray:
    """A read-only copy of a: what every dataclass field and cached table holds, shared across threads."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Waveform:
    """Mono audio signal. Samples are float64 in nominal range [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = frozen(self.samples, np.float64)
        if samples.ndim != 1:
            raise ValueError("Waveform requires a 1-D sample array")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("Waveform samples must be finite")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file as a mono Waveform.

    PCM-16 samples are scaled by 2^-15, and PCM-24 and PCM-32, which scipy
    reads as left-justified int32, by 2^-31; float-32 is taken as-is.
    Multi-channel input is mixed down by averaging.
    """
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:  # scipy raises bare ValueError on bad headers
        raise AudioFormatError(f"cannot parse WAV file {path}: {exc}") from exc

    if data.dtype in (np.int16, np.int32):
        samples = data.astype(np.float64) / -float(np.iinfo(data.dtype).min)  # 2^15 or 2^31
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise UnsupportedFormatError(
            f"unsupported WAV encoding {data.dtype} in {path}; "
            "expected PCM-16, PCM-24, PCM-32 or IEEE float-32"
        )
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return Waveform(samples, int(rate))


def write_wav(path, w: Waveform, encoding: str = "pcm16") -> None:
    """Write a Waveform to disk.

    encoding 'pcm16' clips out-of-range samples to [-1, 1], 'float32' is
    lossless for float32-representable samples.
    """
    if encoding == "pcm16":
        x = np.clip(w.samples, -1.0, 1.0)
        pcm = np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)
        wavfile.write(path, w.sample_rate, pcm)
    elif encoding == "float32":
        wavfile.write(path, w.sample_rate, w.samples.astype(np.float32))
    else:
        raise ValueError(f"unknown encoding {encoding!r}; use 'pcm16' or 'float32'")


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Resample with a Kaiser-windowed sinc polyphase filter.

    Cutoff sits at 0.95x the Nyquist of the lower of the two rates, so the
    output is band-limited below min(rates)/2.
    """
    target_rate = int(target_rate)
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == w.sample_rate:
        return w
    g = math.gcd(w.sample_rate, target_rate)
    up, down = target_rate // g, w.sample_rate // g
    y = resample_poly(w.samples, up, down, window=_resample_taps(max(up, down)))
    return Waveform(y, target_rate)


@lru_cache(maxsize=64)
def _resample_taps(max_rate: int) -> np.ndarray:
    """The anti-aliasing FIR for a rate ratio whose larger term is max_rate, designed once and read-only."""
    # 32 periods per phase keeps the kaiser transition band under ~2% of the
    # lower Nyquist, so stopband rejection holds just past the cutoff
    half_len = 32 * max_rate
    return frozen(firwin(2 * half_len + 1, 0.95 / max_rate, window=("kaiser", 8.0)))


def frame_signal(x: np.ndarray, frame_len: int, hop: int) -> np.ndarray:
    """Slice x into overlapping frames, shape (n_frames, frame_len).

    Returns a read-only view; frames stop at the last fully covered window.
    """
    x = np.asarray(x)
    if frame_len <= 0 or hop <= 0:
        raise ValueError("frame_len and hop must be positive")
    if x.size < frame_len:
        return np.empty((0, frame_len), dtype=x.dtype)
    view = np.lib.stride_tricks.sliding_window_view(x, frame_len)[::hop]
    view.setflags(write=False)
    return view


def overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Row k of frames added at k * hop into zeros, the rows at each sample in order.

    One strided add per hop-long piece of a frame, the last piece first:
    each sample then takes the rows that cover it oldest first, as adding one
    row at a time does, so the sum is bitwise that loop's. The result runs
    past the last frame's end to a whole number of hops.
    """
    rows, fl = frames.shape
    pieces = -(-fl // hop)
    out = np.zeros((rows + pieces - 1, hop))
    for j in reversed(range(pieces)):
        part = frames[:, j * hop : (j + 1) * hop]
        out[j : j + rows, : part.shape[1]] += part
    return out.ravel()


def num_frames(n_samples: int, frame_len: int, hop: int) -> int:
    """Frame count produced by frame_signal for a signal of n_samples."""
    if n_samples < frame_len:
        return 0
    return (n_samples - frame_len) // hop + 1
