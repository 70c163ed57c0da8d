"""Edge-case inputs to the signal kernels: each returns finite output of its documented length or raises ValueError.

The inputs are short (0 to about two analysis windows, or one second),
silent, DC, clipped (a +-1 square) and noise, at 16 kHz.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxmask.audio import Waveform, num_frames, resample
from voxmask.evaluation import MFCC_N_COEFFS, mfcc_embed, stoi
from voxmask.pitch import HOP_S, WINDOW_PERIODS, F0Trajectory, PitchConfig, extract_f0
from voxmask.resynth import FormantShiftConfig, psola_modify, shift_formants_detailed

FS = 16000
PITCH = PitchConfig(65.0, 380.0)


def edge_signal(kind: str, n: int) -> Waveform:
    t = np.arange(n)
    if kind == "silent":
        x = np.zeros(n)
    elif kind == "dc":
        x = np.full(n, 0.5)
    elif kind == "clipped":
        x = np.where((t // 40) % 2 == 0, 1.0, -1.0)  # a 200 Hz square at full scale
    else:
        x = 0.3 * np.random.default_rng(n).standard_normal(n)
    return Waveform(x, FS)


edge_inputs = st.builds(
    edge_signal,
    st.sampled_from(["silent", "dc", "clipped", "noise"]),
    st.integers(0, 1600) | st.just(FS),
)
edge = settings(max_examples=25, deadline=None)
LOUD = edge_signal("noise", FS)  # every kernel returns output for it, so each test covers that path too


def outcome(call):
    """call()'s result, or None when it raises ValueError; any other exception fails the test."""
    try:
        return call()
    except ValueError:
        return None


def assert_finite_samples(out: Waveform, n: int) -> None:
    assert out.sample_rate == FS and len(out) == n
    assert np.all(np.isfinite(out.samples))


@edge
@given(w=edge_inputs)
@example(w=LOUD)
def test_extract_f0_gives_one_frame_per_hop(w):
    traj = outcome(lambda: extract_f0(w, PITCH))
    if traj is None:
        return
    win_n = int(round(WINDOW_PERIODS / PITCH.floor * FS))
    assert len(traj) == num_frames(len(w), win_n, int(round(HOP_S * FS)))
    assert np.all(np.isfinite(traj.times))
    voiced = traj.values[traj.voiced]
    assert np.all((voiced >= PITCH.floor) & (voiced <= PITCH.ceiling))


@edge
@given(w=edge_inputs, voiced=st.booleans())
@example(w=LOUD, voiced=True)
def test_psola_modify_keeps_the_length(w, voiced):
    frames = max(1, len(w) // 160)
    v = np.full(frames, voiced)
    source = F0Trajectory(np.arange(frames) * 0.01 + 0.005, np.where(v, 120.0, np.nan), v)
    target = F0Trajectory(source.times, source.values * 1.2, v)
    out = outcome(lambda: psola_modify(w, source, target))
    if out is not None:
        assert_finite_samples(out, len(w))


@edge
@given(w=edge_inputs)
@example(w=LOUD)
def test_shift_formants_keeps_the_length(w):
    result = outcome(lambda: shift_formants_detailed(w, FormantShiftConfig(factor=1.2)))
    if result is not None:
        assert_finite_samples(result.waveform, len(w))
        assert result.clamped_poles >= 0 and result.skipped_poles >= 0


@edge
@given(w=edge_inputs)
@example(w=LOUD)
def test_stoi_is_one_finite_number(w):
    score = outcome(lambda: stoi(w, w))
    if score is not None:
        assert isinstance(score, float) and math.isfinite(score)


@edge
@given(w=edge_inputs)
@example(w=LOUD)
def test_mfcc_embed_is_a_finite_unit_vector(w):
    emb = outcome(lambda: mfcc_embed(w))
    if emb is not None:
        assert emb.shape == (2 * MFCC_N_COEFFS,) and np.all(np.isfinite(emb))
        assert np.linalg.norm(emb) == pytest.approx(1.0)


@edge
@given(w=edge_inputs, rate=st.sampled_from([8000, 10000, 22050, 44100]))
@example(w=LOUD, rate=22050)
def test_resample_scales_the_length(w, rate):
    out = outcome(lambda: resample(w, rate))
    if out is not None:
        assert out.sample_rate == rate and len(out) == math.ceil(len(w) * rate / FS)
        assert np.all(np.isfinite(out.samples))


@edge
@given(
    n=st.integers(1, 400),
    at=st.floats(0.0, 1.0, exclude_max=True),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
)
def test_waveform_rejects_non_finite_samples(n, at, bad):
    x = np.zeros(n)
    x[int(at * n)] = bad
    with pytest.raises(ValueError, match="finite"):
        Waveform(x, FS)
