"""Mono audio I/O, resampling, framing, overlap-add and the block rule.

Resampling applies resample_poly's Kaiser filter as blocks of BLAS matrix
products over one cached, read-only polyphase table per rate pair; a pair
whose table would pass a fixed budget runs scipy.signal.resample_poly.
blocks is the one rule by which resample, pitch and STOI split a long file's
rows into blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.io import wavfile
from scipy.signal import firwin, resample_poly

RESAMPLE_ROWS = 2048  # output rows per block of products: bounds resample's temporaries
ROW_SAMPLES = 16  # fewest samples of either rate in a table row; a small ratio takes several periods per row
TABLE_BUDGET = 1 << 20  # polyphase coefficients (8 MB); a rate pair past it runs resample_poly


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
        # NaN carries through min and max, and +-inf is always an extreme: no full-length mask
        if samples.size and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
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
    output is band-limited below min(rates)/2. Length ceil(n * up / down)
    and alignment are resample_poly's; the symmetric taps make it zero-phase.
    Each block of output rows (blocks of RESAMPLE_ROWS) is
    sum_j X[j : j + rows] @ G[j] over rows X of the input and the cached
    polyphase table G, written into one preallocated output, so no temporary
    is as long as the signal. The sums run in another order than
    resample_poly's: the bits differ from its in the last places and hold for
    one BLAS build, kernel and thread count, and for where the block
    boundaries fall (BLAS rounds a short block's rows in other kernels).
    A rate pair whose table would pass TABLE_BUDGET runs resample_poly.
    """
    target_rate = int(target_rate)
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == w.sample_rate:
        return w
    g = math.gcd(w.sample_rate, target_rate)
    up, down = target_rate // g, w.sample_rate // g
    periods, _, depth = _polyphase_layout(up, down)
    if depth * periods * down * periods * up > TABLE_BUDGET:
        y = resample_poly(w.samples, up, down, window=_resample_taps(max(up, down)))
    else:
        y = _polyphase(w.samples, up, down)
    return Waveform(y, target_rate)


@lru_cache(maxsize=64)
def _resample_taps(max_rate: int) -> np.ndarray:
    """The anti-aliasing FIR for a rate ratio whose larger term is max_rate, designed once and read-only."""
    # 32 periods per phase keeps the kaiser transition band under ~2% of the
    # lower Nyquist, so stopband rejection holds just past the cutoff
    half_len = 32 * max_rate
    return frozen(firwin(2 * half_len + 1, 0.95 / max_rate, window=("kaiser", 8.0)))


def _polyphase_layout(up: int, down: int) -> tuple:
    """(periods, pad, depth) of the polyphase table for up/down.

    A table row holds `periods` periods of the ratio; `pad` zeros before the
    input make output row r start reading at input row r, and it reads
    `depth` input rows.
    """
    periods = -(-ROW_SAMPLES // min(up, down))
    half_len = _resample_taps(max(up, down)).size // 2
    pad = half_len // up
    reach = ((periods * up - 1) * down + half_len) // up + pad + 1  # input samples one output row reads
    return periods, pad, -(-reach // (periods * down))


@lru_cache(maxsize=16)  # a table may take up to TABLE_BUDGET coefficients, 8 MB
def _polyphase_table(up: int, down: int) -> np.ndarray:
    """Read-only G, shape (depth, periods * down, periods * up), of resample_poly's coefficients, up times the taps.

    Input sample c of row r + j, times G[j, c, p], adds to output p of row r.
    """
    h = _resample_taps(max(up, down))
    half_len = h.size // 2
    periods, pad, depth = _polyphase_layout(up, down)
    k = np.arange(depth * periods * down)[:, None]  # j * periods * down + c
    idx = np.arange(periods * up) * down + half_len - (k - pad) * up
    inside = (idx >= 0) & (idx < h.size)
    table = np.where(inside, up * h[np.where(inside, idx, 0)], 0.0)
    return frozen(table.reshape(depth, periods * down, periods * up))


def _polyphase(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """x resampled by up/down through the polyphase table, one block of RESAMPLE_ROWS output rows at a time."""
    table = _polyphase_table(up, down)
    depth, row_in, row_out = table.shape
    pad = _polyphase_layout(up, down)[1]
    n_out = -(-x.size * up // down)
    y = np.empty((-(-n_out // row_out), row_out))
    for block in blocks(y.shape[0], RESAMPLE_ROWS):
        rows = block.stop - block.start
        lo = block.start * row_in - pad
        seg = np.zeros((rows + depth - 1) * row_in)  # the block's input rows, zeros past either end of x
        a, b = max(lo, 0), min(lo + seg.size, x.size)
        seg[a - lo : b - lo] = x[a:b]
        rows_in = seg.reshape(-1, row_in)
        out = y[block]
        np.matmul(rows_in[:rows], table[0], out=out)
        for j in range(1, depth):
            out += rows_in[j : j + rows] @ table[j]
    return y.reshape(-1)[:n_out]


def blocks(n: int, size: int) -> list:
    """Slices of size rows that cover range(n) in order; a lone last row joins the block before it.

    numpy takes a one-row matrix product down another code path, which
    rounds differently from the same row inside a larger product.
    """
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


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
