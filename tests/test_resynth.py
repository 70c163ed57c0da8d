"""PSOLA resynthesis, Burg LPC, and formant manipulation."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import butter, lfilter, welch

import psola_oracle
from voxmask import pipeline, resynth
from voxmask.audio import Waveform, frame_signal, overlap_add, read_wav
from voxmask.evaluation import stoi
from voxmask.pitch import F0Trajectory, PitchConfig, extract_f0, interpolate_unvoiced
from voxmask.resynth import (
    BURG_MIN_ERROR_RATIO,
    EpochSequence,
    FormantShiftConfig,
    _formant_band,
    _frame_poles,
    _lpc_order,
    burg_lpc,
    detect_epochs,
    psola_modify,
    shift_formants_detailed,
)
from voxmask import synth

from conftest import make_noise, make_test_vowel, make_tone, traced_peak
from formant_oracle import (
    burg_lpc_oracle,
    resynthesize_frames_oracle,
    shift_formants_oracle,
    track_formants,
)
from psola_oracle import detect_epochs_oracle, psola_modify_oracle

PITCH_CFG = PitchConfig(floor=65, ceiling=380)


def extract_interp(w: Waveform) -> F0Trajectory:
    return interpolate_unvoiced(extract_f0(w, PITCH_CFG))


def scaled(t: F0Trajectory, factor: float) -> F0Trajectory:
    return F0Trajectory(t.times, t.values * factor, t.voiced)


def median_formants(w: Waveform, order: int = 13, n: int = 3):
    frames = track_formants(w, order)
    cols = [[], [], [], []]
    for fr in frames:
        if fr and len(fr) >= n:
            for j in range(n):
                cols[j].append(fr[j][0])
    return [float(np.median(c)) for c in cols[:n] if c]


# ------------------------------------------------------------------ burg


class TestBurg:
    def test_recovers_known_ar_coefficients(self):
        # oracle: AR(4) process built from two fixed stable pole pairs
        fs = 1.0
        poles = np.array([0.95 * np.exp(2j * np.pi * 0.12), 0.9 * np.exp(2j * np.pi * 0.31)])
        a_true = np.real(np.poly(np.concatenate([poles, poles.conj()])))
        rng = np.random.default_rng(1)
        x = lfilter([1.0], a_true, rng.standard_normal(200_000))
        a_est = burg_lpc(x, 4)
        np.testing.assert_allclose(a_est, a_true, atol=5e-3)

    def test_one_pole_process(self):
        rng = np.random.default_rng(2)
        x = lfilter([1.0], [1.0, -0.8], rng.standard_normal(100_000))
        a = burg_lpc(x, 1)
        assert a[1] == pytest.approx(-0.8, abs=5e-3)

    def test_leading_coefficient_is_one(self):
        rng = np.random.default_rng(3)
        a = burg_lpc(rng.standard_normal(500), 8)
        assert a[0] == 1.0
        assert a.size == 9

    def test_estimated_filter_is_stable(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = rng.standard_normal(256) * np.hanning(256)
            a = burg_lpc(x, 12)
            roots = np.roots(a)
            assert np.max(np.abs(roots)) <= 1.0 + 1e-8

    def test_whitening_reduces_energy(self):
        rng = np.random.default_rng(5)
        x = lfilter([1.0], [1.0, -1.6, 0.9], rng.standard_normal(10_000))
        a = burg_lpc(x, 2)
        resid = lfilter(a, [1.0], x)
        assert np.mean(resid**2) < 0.1 * np.mean(x**2)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            burg_lpc(np.zeros(10), 0)
        with pytest.raises(ValueError):
            burg_lpc(np.ones(5), 10)

    def test_rows_match_one_dimensional_calls(self):
        # bitwise: a frame's fit must not depend on the batch it sits in
        rng = np.random.default_rng(6)
        frames = rng.standard_normal((23, 275)) * np.hanning(275)
        frames[5] = 0.0
        batch = burg_lpc(frames, 13)
        assert batch.shape == (23, 14)
        for i, row in enumerate(frames):
            np.testing.assert_array_equal(batch[i], burg_lpc(row, 13))
        np.testing.assert_array_equal(batch[5], np.eye(1, 14)[0])

    def test_order_bounds_on_frames(self):
        with pytest.raises(ValueError):
            burg_lpc(np.ones((3, 10)), 0)
        with pytest.raises(ValueError):
            burg_lpc(np.ones((3, 5)), 5)
        with pytest.raises(ValueError):
            burg_lpc(np.ones((2, 3, 40)), 4)

    @settings(max_examples=150, deadline=None)
    @given(
        order=st.integers(1, 16),
        extra=st.integers(0, 299),
        seed=st.integers(0, 2**32 - 1),
        spike_at=st.floats(0.0, 1.0),
    )
    # frames of order + 1 or + 2 samples whose error sum collapses at an edge
    # while prod(1 - k**2) stays large, as a ratio from k alone would miss
    @example(order=8, extra=1, seed=15700, spike_at=0.5)
    @example(order=16, extra=0, seed=56765, spike_at=0.5)
    def test_matches_the_lattice_oracle(self, order, extra, seed, spike_at):
        n = min(order + 1 + extra, 300)
        edge = order + 1
        rng = np.random.default_rng(seed)
        spread = lambda size: rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
        frames = np.zeros((6, n))
        frames[0] = rng.standard_normal(n)
        frames[1] = spread(n)
        frames[2, :edge] = spread(edge)  # energy only where Burg's sums leave samples out
        frames[3, -edge:] = spread(edge)
        frames[4, :edge] = spread(edge)
        frames[4, -edge:] += spread(edge)
        # a tone in faint noise: from order 2 on its fit mostly leaves too little
        # error for the recursion, and the lattice refits it
        t = np.arange(n)
        tone = np.sin(2 * np.pi * rng.uniform(0.02, 0.45) * t + rng.uniform(0, 6)) + 1e-9 * rng.standard_normal(n)
        spike = np.zeros(n)
        spike[round(spike_at * (n - 1))] = rng.standard_normal()
        frames = np.vstack([frames, tone, spike])

        got = burg_lpc(frames, order)
        fast, ratio = resynth._burg_recursion(frames, order)
        for i, x in enumerate(frames):
            roots = np.roots(got[i])
            assert roots.size == 0 or np.max(np.abs(roots)) <= 1.0 + 1e-8
            if ratio[i] < BURG_MIN_ERROR_RATIO:
                np.testing.assert_array_equal(got[i], resynth._burg_lattice(x[None], order)[0])
            else:
                # the recursion's relative error grows as the inverse of the error ratio
                np.testing.assert_array_equal(got[i], fast[i])
                want = burg_lpc_oracle(x, order)
                assert np.max(np.abs(got[i] - want)) <= 1e-9 * max(1.0, np.max(np.abs(want))) / ratio[i]
        # a single spike has no correlation at any lag, so every k is exactly 0
        np.testing.assert_array_equal(got[-1], np.eye(1, order + 1)[0])

    def test_lattice_refits_tone_and_dc_frames_and_no_benchmark_frame(self, bench_utterances):
        def ratios(w):
            y, fs, _, fl, hp = _formant_band(w)
            frames = frame_signal(y, fl, hp) * np.hanning(fl)
            return resynth._burg_recursion(frames[np.any(frames, axis=1)], _lpc_order(fs))[1]

        for name in ("pure_tone", "dc"):
            assert np.any(ratios(ORACLE_INPUTS[name]()) < BURG_MIN_ERROR_RATIO), name
        for uid, w, _ in bench_utterances:
            assert np.min(ratios(w)) >= BURG_MIN_ERROR_RATIO, uid


# ------------------------------------------------------------------ epochs


class TestEpochs:
    def test_spacing_follows_pitch_period(self):
        fs = 16000
        f0 = 125.0
        w = make_test_vowel(f0, duration=1.0, seed=2)
        t = extract_interp(w)
        ep = detect_epochs(w, t)
        d = np.diff(ep.positions[ep.voiced])
        d = d[d < int(0.02 * fs)]  # spacing within voiced runs only
        period = fs / f0
        assert abs(np.median(d) - period) < 0.1 * period

    def test_unvoiced_anchors_at_ten_ms(self):
        w = Waveform(np.zeros(16000), 16000)
        t = F0Trajectory(np.arange(100) * 0.01, np.full(100, np.nan), np.zeros(100, bool))
        ep = detect_epochs(w, t)
        assert not np.any(ep.voiced)
        np.testing.assert_array_equal(np.diff(ep.positions), 160)

    def test_positions_strictly_increasing(self):
        w = make_test_vowel(140.0, duration=0.6, seed=3)
        ep = detect_epochs(w, extract_interp(w))
        assert np.all(np.diff(ep.positions) > 0)

    @pytest.mark.parametrize("fs", [2000, 8000, 16000, 44100])
    def test_lowpass_is_designed_once_per_rate_and_read_only(self, fs):
        sos = resynth._epoch_lowpass(fs)
        assert sos is resynth._epoch_lowpass(fs)
        assert np.array_equal(sos, butter(4, min(1000.0, 0.45 * fs) / (fs / 2), output="sos"))
        with pytest.raises(ValueError, match="read-only"):
            sos[0, 0] = 1.0

    def test_sequence_validation(self):
        with pytest.raises(ValueError):
            EpochSequence(np.array([5, 3]), np.array([True, True]))
        with pytest.raises(ValueError):
            EpochSequence(np.array([-1, 3]), np.array([True, True]))


# ------------------------------------------------------------------ psola


class TestPsola:
    def test_identity_resynthesis(self):
        w = make_test_vowel(130.0, duration=0.8, seed=4)
        t = extract_interp(w)
        out = psola_modify(w, t, t)
        assert out.samples.size == w.samples.size
        assert stoi(w, out) >= 0.95
        back = extract_f0(out, PITCH_CFG)
        med_in = np.median(t.values[t.voiced])
        med_out = np.median(back.values[back.voiced])
        assert abs(med_out - med_in) / med_in < 0.02

    def test_upshift_hits_target(self):
        w = make_test_vowel(150.0, duration=0.8, seed=5)
        t = extract_interp(w)
        target = scaled(t, 1.15)
        out = psola_modify(w, t, target)
        back = extract_f0(out, PITCH_CFG)
        med = np.median(back.values[back.voiced])
        want = 1.15 * np.median(t.values[t.voiced])
        assert abs(med - want) / want < 0.03

    def test_downshift_hits_target(self):
        w = make_test_vowel(160.0, duration=0.8, seed=6)
        t = extract_interp(w)
        target = scaled(t, 0.8)
        out = psola_modify(w, t, target)
        back = extract_f0(out, PITCH_CFG)
        med = np.median(back.values[back.voiced])
        want = 0.8 * np.median(t.values[t.voiced])
        assert abs(med - want) / want < 0.03

    def test_energy_within_three_db(self):
        w = make_test_vowel(120.0, duration=0.8, seed=7)
        t = extract_interp(w)
        for factor in (1.0, 1.15, 0.85):
            out = psola_modify(w, t, scaled(t, factor))
            r = np.sqrt(np.mean(out.samples**2) / np.mean(w.samples**2))
            assert abs(20 * np.log10(r)) < 3.0

    def test_length_preserved(self):
        w = make_test_vowel(140.0, duration=0.537, seed=8)
        t = extract_interp(w)
        out = psola_modify(w, t, scaled(t, 1.2))
        assert out.samples.size == w.samples.size

    def test_unvoiced_signal_passes_through(self):
        rng = np.random.default_rng(9)
        w = Waveform(0.1 * rng.standard_normal(8000), 16000)
        frames = 48
        t = F0Trajectory(np.arange(frames) * 0.01, np.full(frames, np.nan), np.zeros(frames, bool))
        out = psola_modify(w, t, t)
        assert out.samples.size == w.samples.size
        # unvoiced grains are copied at their source positions
        mid = slice(400, 7600)
        assert np.corrcoef(out.samples[mid], w.samples[mid])[0, 1] > 0.95

    @pytest.mark.parametrize("fs", [8000, 16000])
    def test_target_must_lie_within_twenty_hz_and_a_quarter_of_the_rate(self, fs):
        # the one check of the f0 bound on the anonymize path: one voiced frame outside it fails the call
        w = make_test_vowel(130.0, duration=0.4, fs=fs, seed=4)
        t = extract_interp(w)
        k = np.flatnonzero(t.voiced)[t.n_voiced // 2]

        def one_frame_at(hz):
            values = t.values.copy()
            values[k] = hz
            return F0Trajectory(t.times, values, t.voiced)

        for hz in (fs / 4 + 0.5, 19.9):
            with pytest.raises(ValueError, match=r"^target f0 must lie within \[20 Hz, sample_rate/4\]$"):
                psola_modify(w, t, one_frame_at(hz))
        for hz in (fs / 4, resynth.PSOLA_F0_MIN):  # both bounds are inclusive
            assert psola_modify(w, t, one_frame_at(hz)).samples.size == w.samples.size


# ------------------------------------------------------------------ formants


class TestTrackFormants:
    def test_single_resonance_within_20_hz(self):
        # bare resonator at 1000 Hz / bandwidth 80 on a pulse train; lowest
        # legal order keeps spare poles from bending toward harmonics
        fs = 16000
        n = int(0.8 * fs)
        rng = np.random.default_rng(1)
        pulses = synth.pulse_train(np.full(n, 100.0), fs, rng)
        y = synth.resonator_cascade(pulses, [1000.0], (80.0,), fs)
        w = Waveform(0.3 * y / np.max(np.abs(y)), fs)
        frames = track_formants(w, 8)
        first = [fr[0][0] for fr in frames if fr]
        assert len(first) > 30
        assert abs(np.median(first) - 1000.0) <= 20.0

    def test_single_resonance_noise_excited(self):
        # same resonator driven by white noise: no harmonic pulling at all
        fs = 16000
        rng = np.random.default_rng(2)
        y = synth.resonator_cascade(rng.standard_normal(int(0.8 * fs)), [1000.0], (80.0,), fs)
        w = Waveform(0.3 * y / np.max(np.abs(y)), fs)
        frames = track_formants(w, 8)
        first = [fr[0][0] for fr in frames if fr]
        assert abs(np.median(first) - 1000.0) <= 20.0

    def test_three_resonance_vowel(self):
        w = make_test_vowel(120.0, duration=0.8, seed=2)
        med = median_formants(w)
        for got, want in zip(med, (700.0, 1200.0, 2600.0)):
            assert abs(got - want) / want < 0.05

    def test_bandwidth_estimate_reasonable(self):
        w = synth.make_vowel(0.8, 120.0, [1000.0], bandwidths=(80.0,), seed=3)
        frames = track_formants(w, 8)
        bws = [fr[0][1] for fr in frames if fr]
        assert 20.0 < np.median(bws) < 200.0

    def test_order_floor_enforced(self):
        w = make_test_vowel(120.0)
        with pytest.raises(ValueError):
            track_formants(w, 6)


class TestShiftFormants:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FormantShiftConfig(factor=0.0)
        with pytest.raises(ValueError):
            FormantShiftConfig(factor=1.2, n_formants=0)

    def test_default_order_rule(self):
        assert _lpc_order(11000) == 13
        assert _lpc_order(16000) == 18

    def test_factor_one_is_exact_identity(self):
        w = make_test_vowel(130.0, duration=0.5, seed=4)
        out = shift_formants_detailed(w, FormantShiftConfig(factor=1.0)).waveform
        np.testing.assert_array_equal(out.samples, w.samples)
        assert out.sample_rate == w.sample_rate

    def test_twenty_percent_shift_lands_on_target(self):
        # f0 values whose harmonics bracket the shifted F1 tightly; at higher
        # f0 the tracker itself quantizes toward harmonics and the reading
        # (not the shift) drifts past tolerance
        for f0, seed in [(100.0, 5), (120.0, 6), (140.0, 7)]:
            w = make_test_vowel(f0, duration=0.8, seed=seed)
            out = shift_formants_detailed(w, FormantShiftConfig(factor=1.2)).waveform
            med = median_formants(out)
            for got, want in zip(med, (840.0, 1440.0, 3120.0)):
                assert abs(got - want) / want < 0.05, (f0, med)

    def test_ten_percent_shift_lands_on_target(self):
        w = make_test_vowel(120.0, duration=0.8, seed=8)
        out = shift_formants_detailed(w, FormantShiftConfig(factor=1.1)).waveform
        med = median_formants(out)
        for got, want in zip(med, (770.0, 1320.0, 2860.0)):
            assert abs(got - want) / want < 0.05

    def test_length_and_rate_preserved(self):
        w = make_test_vowel(140.0, duration=0.613, seed=9)
        out = shift_formants_detailed(w, FormantShiftConfig(factor=1.2)).waveform
        assert out.samples.size == w.samples.size
        assert out.sample_rate == w.sample_rate

    def test_energy_within_three_db(self):
        for factor in (1.1, 1.2):
            w = make_test_vowel(120.0, duration=0.8, seed=10)
            out = shift_formants_detailed(w, FormantShiftConfig(factor=factor)).waveform
            r = np.sqrt(np.mean(out.samples**2) / np.mean(w.samples**2))
            assert abs(20 * np.log10(r)) < 3.0

    def test_envelope_change_below_one_db_at_factor_one(self):
        w = make_test_vowel(120.0, duration=0.8, seed=11)
        out = shift_formants_detailed(w, FormantShiftConfig(factor=1.0)).waveform
        f, pxx_in = welch(w.samples, fs=w.sample_rate, nperseg=512)
        _, pxx_out = welch(out.samples, fs=w.sample_rate, nperseg=512)
        band = (f > 200) & (f < 5000)
        diff_db = 10 * np.log10(pxx_out[band] / pxx_in[band])
        assert np.sqrt(np.mean(diff_db**2)) < 1.0

    def test_clamp_count_reported(self):
        w = make_test_vowel(120.0, duration=0.4, seed=12)
        detail = shift_formants_detailed(w, FormantShiftConfig(factor=1.2))
        assert detail.clamped_poles >= 0
        assert detail.waveform.samples.size == w.samples.size

    def test_skipped_poles_counted_when_angle_guard_fires(self):
        # analysis runs at 11 kHz, where the guard sits at 0.475 * 11 kHz:
        # F3 = 3000 Hz doubled to 6 kHz is past it, scaled by 1.2 it is not
        w = make_test_vowel(120.0, formants=(700.0, 1200.0, 3000.0), duration=0.4, seed=13)
        assert shift_formants_detailed(w, FormantShiftConfig(factor=1.2)).skipped_poles == 0
        assert shift_formants_detailed(w, FormantShiftConfig(factor=2.0)).skipped_poles > 0


def _click_11k() -> Waveform:
    # after pre-emphasis the click is two samples; at offset 273 of the
    # frame starting at 220 the second falls on the window's zero endpoint,
    # so Burg sees one nonzero sample and returns all-zero reflection
    # coefficients: every root is zero and the frame must pass unchanged
    x = np.zeros(5500)
    x[493] = 0.5
    return Waveform(x, 11000)


def _clipped_sine() -> Waveform:
    t = np.arange(8000) / 16000
    return Waveform(np.clip(1.5 * np.sin(2 * np.pi * 220.0 * t), -1.0, 1.0), 16000)


ORACLE_INPUTS = {
    "vowel_16k": lambda: make_test_vowel(120.0, duration=0.5, seed=14),
    "vowel_11k": lambda: make_test_vowel(130.0, duration=0.5, fs=11000, seed=15),
    "noise_22k": lambda: make_noise(0.4, fs=22050, seed=16),
    "click": _click_11k,
    "silence": lambda: Waveform(np.zeros(8000), 16000),
    "one_frame": lambda: make_noise(0.025, seed=17),
    "dc": lambda: Waveform(np.full(8000, 0.3), 16000),
    "clipped_sine": _clipped_sine,
    "pure_tone": lambda: make_tone(440.0, 0.5),
}


@pytest.mark.parametrize("n_formants", [1, 3, 5])
@pytest.mark.parametrize("factor", [0.8, 1.2])
@pytest.mark.parametrize("name", list(ORACLE_INPUTS))
def test_batched_shift_matches_per_frame_oracle(name, factor, n_formants):
    w = ORACLE_INPUTS[name]()
    cfg = FormantShiftConfig(factor=factor, n_formants=n_formants)
    got = shift_formants_detailed(w, cfg)
    want = shift_formants_oracle(w, cfg)
    # a bound, not bitwise: the oracle fits Burg with BLAS dot products and
    # takes roots and polynomials frame by frame, which round differently
    peak = np.max(np.abs(want.waveform.samples))
    assert got.waveform.sample_rate == want.waveform.sample_rate
    assert np.max(np.abs(got.waveform.samples - want.waveform.samples)) <= 1e-8 * peak
    assert got.clamped_poles == want.clamped_poles
    assert got.skipped_poles == want.skipped_poles


# ------------------------------------------------- loop-free resynthesis oracles


@pytest.fixture(scope="module")
def bench_utterances(tmp_path_factory):
    """The session-2 utterances of a seed-1234 corpus of the benchmark's anonymize shape, with f0."""
    manifest = synth.generate_corpus(
        tmp_path_factory.mktemp("bench_corpus"), seed=1234, n_per_group=3, n_modal=2, n_disguised=0
    )
    m = pipeline.load_manifest(manifest)
    cfg = pipeline.load_config(Path(pipeline.__file__).parent / "presets" / "f0_S-F1-3_20.json")
    out = []
    for r in sorted(m.filter(sessions=("2",)), key=lambda r: r.utterance_id):
        w = read_wav(m.resolve(r))
        out.append((r.utterance_id, w, extract_f0(w, cfg.pitch_config(r.group))))
    return out


def assert_bitwise(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_psola_matches_oracle(w, source, target):
    assert_bitwise(psola_modify(w, source, target).samples, psola_modify_oracle(w, source, target).samples)


def fixed_epochs(monkeypatch, positions, voiced):
    """Make both PSOLA implementations use the given epochs."""
    epochs = EpochSequence(np.asarray(positions), np.asarray(voiced))
    monkeypatch.setattr(resynth, "detect_epochs", lambda w, f0: epochs)
    monkeypatch.setattr(psola_oracle, "detect_epochs_oracle", lambda w, f0: epochs)


def flat_track(f0: float, frames: int, voiced=True) -> F0Trajectory:
    v = np.full(frames, voiced)
    return F0Trajectory(np.arange(frames) * 0.01, np.where(v, f0, np.nan), v)


def irregular_track(frames, f0: float) -> F0Trajectory:
    """Frames given as (step in s, voiced): times 0.01 s plus the running sum of the steps."""
    steps, voiced = (np.asarray(c) for c in zip(*frames))
    times = 0.01 + np.cumsum(steps)
    wobble = 1.0 + 0.1 * np.sin(np.arange(times.size) / 3.0)
    return F0Trajectory(times, np.where(voiced, f0 * wobble, np.nan), voiced.astype(bool))


def assert_epochs_match_oracle(w, f0):
    got, want = detect_epochs(w, f0), detect_epochs_oracle(w, f0)
    np.testing.assert_array_equal(got.positions, want.positions)
    np.testing.assert_array_equal(got.voiced, want.voiced)


# at the 20 ms median step, the voiced runs on either side of the 1 ms
# steps are 2 ms apart, so their half-hop-padded spans overlap by 18 ms
OVERLAPPING_FRAMES = [(0.02, True)] * 5 + [(0.001, False), (0.001, True)] + [(0.02, True)] * 4


class TestPsolaOracle:
    @pytest.mark.parametrize("ratio", [0.8, 1.0, 1.15, 1.3])
    def test_benchmark_utterances(self, bench_utterances, ratio):
        for _, w, traj in bench_utterances:
            assert_psola_matches_oracle(w, traj, scaled(traj, ratio))

    def test_epochs_of_benchmark_utterances(self, bench_utterances):
        for _, w, traj in bench_utterances:
            assert_epochs_match_oracle(w, interpolate_unvoiced(traj))

    def test_mark_midway_between_two_epochs_takes_the_earlier(self, monkeypatch):
        # 100-sample spacing at half the period: the second mark lands on 1050
        w = make_noise(0.25, seed=18)
        epochs = EpochSequence(np.arange(1000, 3001, 100), np.ones(21, bool))
        ks, centres = resynth._synthesis_marks(epochs, np.full(21, 100.0), lambda s: 0.5, 32.0, 800.0)
        assert centres[1] == 1050 and ks[1] == 0
        fixed_epochs(monkeypatch, epochs.positions, epochs.voiced)
        assert_psola_matches_oracle(w, flat_track(100.0, 25), flat_track(200.0, 25))

    def test_grains_cut_at_both_signal_ends(self, monkeypatch):
        # long periods at both ends push grains past the first and last sample,
        # on the source side and on the output side
        w = make_noise(0.2, seed=19)
        n = w.samples.size
        fixed_epochs(monkeypatch, [2, 700, 1600, n - 700, n - 3], [True] * 5)
        source = flat_track(100.0, 20)
        for ratio in (0.8, 1.0, 1.3):
            assert_psola_matches_oracle(w, source, scaled(source, 1 / ratio))

    def test_unvoiced_grains_cut_at_both_signal_ends(self, monkeypatch):
        w = make_noise(0.1, seed=20)
        n = w.samples.size
        fixed_epochs(monkeypatch, [0, 500, n - 300, n - 1], [False, False, False, False])
        source = flat_track(0.0, 10, voiced=False)
        assert_psola_matches_oracle(w, source, source)

    @pytest.mark.parametrize("voiced", [True, False])
    def test_one_epoch(self, monkeypatch, voiced):
        w = make_noise(0.05, seed=21)
        fixed_epochs(monkeypatch, [300], [voiced])
        source = flat_track(100.0, 5)
        assert_psola_matches_oracle(w, source, scaled(source, 1.2))

    def test_one_epoch_from_a_short_unvoiced_signal(self):
        w = make_noise(0.008, seed=22)  # shorter than one 10 ms anchor hop
        source = flat_track(0.0, 1, voiced=False)
        assert len(detect_epochs(w, source)) == 1
        assert_psola_matches_oracle(w, source, source)

    def test_all_unvoiced_signal(self):
        w = make_noise(0.5, seed=23)
        source = flat_track(0.0, 50, voiced=False)
        assert_psola_matches_oracle(w, source, source)
        ep, want = detect_epochs(w, source), detect_epochs_oracle(w, source)
        np.testing.assert_array_equal(ep.positions, want.positions)

    @settings(max_examples=25, deadline=None)
    @given(
        voicing=st.lists(st.booleans(), min_size=1, max_size=40),
        f0=st.floats(70.0, 300.0),
        ratio=st.floats(0.8, 1.3),
        seed=st.integers(0, 2**16),
    )
    def test_voicing_patterns_and_ratios(self, voicing, f0, ratio, seed):
        frames = len(voicing)
        w = make_test_vowel(f0, duration=frames * 0.01 + 0.02, seed=seed)
        v = np.asarray(voicing)
        wobble = 1.0 + 0.1 * np.sin(np.arange(frames) / 3.0)
        source = F0Trajectory(np.arange(frames) * 0.01 + 0.01, np.where(v, f0 * wobble, np.nan), v)
        target = F0Trajectory(source.times, source.values * ratio, v)
        assert_psola_matches_oracle(w, source, target)
        if source.n_voiced:
            assert_epochs_match_oracle(w, interpolate_unvoiced(source))

    @settings(max_examples=25, deadline=None)
    @given(
        frames=st.lists(st.tuples(st.sampled_from([0.001, 0.01, 0.02]), st.booleans()), min_size=1, max_size=40),
        f0=st.floats(70.0, 300.0),
        seed=st.integers(0, 2**16),
    )
    @example(frames=OVERLAPPING_FRAMES, f0=120.0, seed=5)
    def test_epochs_of_irregular_frame_times(self, frames, f0, seed):
        source = irregular_track(frames, f0)
        w = make_test_vowel(f0, duration=source.times[-1] + 0.02, seed=seed)
        assert_epochs_match_oracle(w, interpolate_unvoiced(source) if source.n_voiced else source)

    def test_pinned_irregular_example_has_overlapping_voiced_spans(self):
        source = irregular_track(OVERLAPPING_FRAMES, 120.0)
        (_, end), (start, _) = resynth._voiced_sample_spans(source, 16000, 16000)
        assert start < end


def test_interpolator_matches_np_interp():
    xp = np.array([0.0, 0.01, 0.02, 0.035, 0.05])
    fp = np.array([100.0, 103.3, 97.1, 97.1, 250.0])
    at = resynth._interpolator(xp, fp)
    xs = np.concatenate([xp, xp + 1e-17, xp - 1e-17, [-1.0, 0.7, 0.0049, 0.0271]])
    for x in xs.tolist():
        assert at(x) == float(np.interp(x, xp, fp)), x
    assert resynth._interpolator(xp[:1], fp[:1])(0.3) == 100.0


@pytest.mark.parametrize("fl,hp", [(275, 110), (400, 160), (8, 8), (9, 4)])
def test_overlap_add_matches_frame_loop(fl, hp):
    rng = np.random.default_rng(fl)
    frames = rng.standard_normal((13, fl))
    frames[4] = 0.0
    want = np.zeros((13 - 1) * hp + fl)
    for k, row in enumerate(frames):
        want[k * hp : k * hp + fl] += row
    got = overlap_add(frames, hp)
    assert_bitwise(got[: want.size], want)
    assert not np.any(got[want.size :])


def oracle_frames_shift(monkeypatch, w, cfg):
    with monkeypatch.context() as m:
        m.setattr(resynth, "_resynthesize_frames", resynthesize_frames_oracle)
        return shift_formants_detailed(w, cfg)


@pytest.mark.parametrize("n_formants", [1, 3])
@pytest.mark.parametrize("factor", [0.8, 1.2])
@pytest.mark.parametrize("name", list(ORACLE_INPUTS))
def test_frame_resynthesis_matches_frame_loop(monkeypatch, name, factor, n_formants):
    w = ORACLE_INPUTS[name]()
    cfg = FormantShiftConfig(factor=factor, n_formants=n_formants)
    got, want = shift_formants_detailed(w, cfg), oracle_frames_shift(monkeypatch, w, cfg)
    assert_bitwise(got.waveform.samples, want.waveform.samples)
    assert (got.clamped_poles, got.skipped_poles) == (want.clamped_poles, want.skipped_poles)


@pytest.mark.parametrize("factor", [1.1, 1.2])
def test_frame_resynthesis_of_benchmark_utterances(monkeypatch, bench_utterances, factor):
    cfg = FormantShiftConfig(factor=factor)
    for _, w, traj in bench_utterances:
        shifted = psola_modify(w, traj, scaled(traj, 1.15))
        got, want = shift_formants_detailed(shifted, cfg), oracle_frames_shift(monkeypatch, shifted, cfg)
        assert_bitwise(got.waveform.samples, want.waveform.samples)
        assert (got.clamped_poles, got.skipped_poles) == (want.clamped_poles, want.skipped_poles)


def test_120_second_formant_shift_memory(long_pair):
    """The shifter's tracemalloc peak on 120 s of speech is at most 11 input signals of float64.

    This ratchet covers what the shifter holds whole today: every frame of the
    formant band, its fits and poles, and the overlap-add. Blocking the shifter
    over frames will replace it with a bound tied to the block size.
    """
    w = long_pair[0]
    _, peak = traced_peak(shift_formants_detailed, w, FormantShiftConfig(factor=1.2))
    assert peak <= 11 * w.samples.nbytes, peak / w.samples.nbytes
