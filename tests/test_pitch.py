"""Autocorrelation pitch tracking and trajectory transforms."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxmask import pipeline, pitch, synth
from voxmask.audio import Waveform, num_frames, read_wav, write_wav
from voxmask.pitch import (
    FFT_BLOCK_FRAMES,
    HOP_S,
    PEAK_BLOCK_FRAMES,
    SILENCE_THRESHOLD,
    VOICING_THRESHOLD,
    WINDOW_PERIODS,
    F0Trajectory,
    PitchConfig,
    extract_f0,
    interpolate_unvoiced,
)

from conftest import make_tone, make_test_vowel
from pitch_oracle import extract_f0_scalar, frame_candidates_scalar


def traj(values, voiced=None, hop=0.01):
    values = np.asarray(values, dtype=np.float64)
    if voiced is None:
        voiced = np.isfinite(values)
    times = np.arange(values.size) * hop
    return F0Trajectory(times, values, np.asarray(voiced, bool))


class TestConfig:
    def test_floor_must_be_below_ceiling(self):
        with pytest.raises(ValueError):
            PitchConfig(floor=300, ceiling=200)

    def test_defaults_are_sane(self):
        assert HOP_S == pytest.approx(0.010)
        assert 0 < VOICING_THRESHOLD < 1


class TestExtract:
    def test_pure_tone_within_one_percent(self):
        w = make_tone(200.0, 2.0)
        t = extract_f0(w, PitchConfig(floor=65, ceiling=380))
        vals = t.values[t.voiced]
        assert vals.size > 100
        # interior frames: drop the first and last few (onset/offset windows)
        inner = vals[5:-5]
        assert np.all(np.abs(inner - 200.0) / 200.0 < 0.01)

    def test_silence_is_fully_unvoiced(self):
        w = Waveform(np.zeros(16000), 16000)
        t = extract_f0(w, PitchConfig(floor=65, ceiling=380))
        assert not np.any(t.voiced)
        assert np.all(np.isnan(t.values))

    def test_above_ceiling_tone_rejected(self):
        # 520 Hz with a 380 Hz ceiling: no candidate in band, frames unvoiced
        w = make_tone(520.0, 1.0)
        t = extract_f0(w, PitchConfig(floor=65, ceiling=380))
        assert not np.any(t.voiced)

    def test_vowel_median_error_below_one_percent(self):
        w = make_test_vowel(140.0)
        t = extract_f0(w, PitchConfig(floor=65, ceiling=380))
        med = np.median(t.values[t.voiced])
        assert abs(med - 140.0) / 140.0 < 0.01

    def test_voiced_values_respect_search_band(self):
        w = make_test_vowel(120.0)
        cfg = PitchConfig(floor=65, ceiling=380)
        t = extract_f0(w, cfg)
        v = t.values[t.voiced]
        assert np.all((v >= cfg.floor) & (v <= cfg.ceiling))

    def test_too_short_input_raises(self):
        w = Waveform(np.zeros(100), 16000)  # shorter than one 3/65 s window
        with pytest.raises(ValueError):
            extract_f0(w, PitchConfig(floor=65, ceiling=380))

    def test_deterministic(self):
        w = make_test_vowel(150.0, seed=5)
        cfg = PitchConfig(floor=65, ceiling=380)
        a = extract_f0(w, cfg)
        b = extract_f0(w, cfg)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.voiced, b.voiced)


RANGES = {"low": PitchConfig(65, 380), "high": PitchConfig(140, 520), "wide": PitchConfig(75, 600)}
RATES = (8000, 11025, 16000, 22050, 44100)


def assert_matches_oracle(w, cfg):
    """Same candidates as the oracle frame by frame, then the same trajectory bitwise."""
    _, freqs, adjs = pitch._candidates(w, cfg)
    want = frame_candidates_scalar(w, cfg)
    found = np.isfinite(adjs)
    assert found.sum(axis=1).tolist() == [len(c) for c in want]
    assert np.array_equal(freqs[found], [f for c in want for f, _ in c])
    # np.log2 and math.log2 may round the octave cost's log differently by one ulp
    np.testing.assert_array_max_ulp(adjs[found], np.array([a for c in want for _, a in c]), maxulp=1)

    got, want = extract_f0(w, cfg), extract_f0_scalar(w, cfg)
    np.testing.assert_array_equal(got.times, want.times)
    assert np.array_equal(got.voiced, want.voiced)
    assert np.array_equal(got.values, want.values, equal_nan=True)
    return got


def frame_geometry(fs, cfg):
    """(win_n, hop_n): the tracker's window and hop in samples."""
    return int(round(WINDOW_PERIODS / cfg.floor * fs)), int(round(HOP_S * fs))


# frame counts on either side of each block size, and past two peak blocks
BLOCK_EDGE_FRAMES = (
    FFT_BLOCK_FRAMES - 1,
    FFT_BLOCK_FRAMES,
    FFT_BLOCK_FRAMES + 1,
    PEAK_BLOCK_FRAMES - 1,
    PEAK_BLOCK_FRAMES,
    PEAK_BLOCK_FRAMES + 1,
    2 * PEAK_BLOCK_FRAMES + 1,
)


def edge_signals(fs, cfg):
    """Named inputs that stress silence handling, energy checks, peak picking and block edges.

    Each "<n>_frames" input is exactly n frames long: it is cut from a vowel
    made long enough for the largest n.
    """
    win_n, hop_n = frame_geometry(fs, cfg)
    n = int(0.4 * fs)
    rng = np.random.default_rng(fs)
    formants = (700.0, 1200.0, 2600.0)
    vowel = synth.make_vowel(1.0, 150.0, formants, fs=fs, seed=3).samples
    long_n = win_n + (max(BLOCK_EDGE_FRAMES) - 1) * hop_n
    long_vowel = synth.make_vowel(long_n / fs, 150.0, formants, fs=fs, seed=3).samples
    click = np.zeros(n)
    click[n // 2] = 0.8
    t = np.arange(n) / fs
    square = np.clip(1.5 * np.sin(2 * np.pi * 180.0 * t), -1.0, 1.0)  # peak exactly 1.0
    signals = {
        "silence": np.zeros(n),
        "dc": np.full(n, 0.25),
        "click": click,
        "noise": 0.1 * rng.standard_normal(n),
        "clipped_vowel": np.clip(4.0 * vowel, -0.5, 0.5),
        "tone": 0.3 * np.sin(2 * np.pi * 230.0 * t),
        "one_window": vowel[:win_n],
        # a quiet half whose every frame peaks exactly at the silence level
        "at_silence_level": np.concatenate([square, SILENCE_THRESHOLD * square]),
    }
    for frames in BLOCK_EDGE_FRAMES:
        x = long_vowel[: win_n + (frames - 1) * hop_n]
        assert num_frames(x.size, win_n, hop_n) == frames
        signals[f"{frames}_frames"] = x
    return {name: Waveform(x, fs) for name, x in signals.items()}


@pytest.fixture(scope="module")
def corpus_1234(tmp_path_factory):
    manifest = pipeline.load_manifest(
        synth.generate_corpus(
            tmp_path_factory.mktemp("corpus1234"), seed=1234, n_per_group=1, n_modal=1, n_disguised=1
        )
    )
    return [(r, read_wav(manifest.resolve(r))) for r in manifest.rows]


class TestOracle:
    """extract_f0 is the scalar per-frame tracker of tests/pitch_oracle.py, batched: bitwise equal."""

    def test_corpus_utterances(self, corpus_1234):
        assert {r.condition for r, _ in corpus_1234} == {"modal", "disguised"}
        for row, w in corpus_1234:
            for cfg in (RANGES[row.group], RANGES["wide"]):
                assert assert_matches_oracle(w, cfg).n_voiced > 0

    @pytest.mark.parametrize("fs", RATES)
    @pytest.mark.parametrize("name", sorted(RANGES))
    def test_edge_inputs(self, fs, name):
        cfg = RANGES[name]
        tracks = {label: assert_matches_oracle(w, cfg) for label, w in edge_signals(fs, cfg).items()}
        assert tracks["silence"].n_voiced == 0
        assert tracks["tone"].n_voiced > 0
        assert all(tracks[f"{frames}_frames"].n_voiced > 0 for frames in BLOCK_EDGE_FRAMES)
        assert tracks["at_silence_level"].voiced[-1]  # the level itself is not silence

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        fs=st.sampled_from(RATES),
        name=st.sampled_from(sorted(RANGES)),
        f0=st.floats(50.0, 700.0),
        noise=st.floats(0.0, 1.0),
        seconds=st.floats(0.05, 0.6),
    )
    def test_random_tone_in_noise(self, seed, fs, name, f0, noise, seconds):
        cfg = RANGES[name]
        n = max(int(seconds * fs), int(round(WINDOW_PERIODS / cfg.floor * fs)))
        rng = np.random.default_rng(seed)
        x = np.sin(2 * np.pi * f0 * np.arange(n) / fs + rng.uniform(0, 2 * np.pi)) + noise * rng.standard_normal(n)
        assert_matches_oracle(Waveform(0.3 * x, fs), cfg)

    def test_block_boundary_frame_counts(self):
        cfg = RANGES["low"]
        signals = edge_signals(16000, cfg)
        for frames in BLOCK_EDGE_FRAMES:
            w = signals[f"{frames}_frames"]
            assert len(extract_f0(w, cfg)) == num_frames(w.samples.size, *frame_geometry(w.sample_rate, cfg))
        assert len(extract_f0(signals["one_window"], cfg)) == 1

    @pytest.mark.parametrize(
        "w, cfg",
        [
            (Waveform(np.zeros(100), 16000), RANGES["low"]),  # shorter than one window
            (Waveform(np.zeros(16000), 8000), PitchConfig(65, 4000)),  # ceiling at Nyquist
            (Waveform(np.zeros(16000), 8000), PitchConfig(65, 4500)),  # ceiling above Nyquist
        ],
    )
    def test_same_errors(self, w, cfg):
        with pytest.raises(ValueError) as want:
            extract_f0_scalar(w, cfg)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            extract_f0(w, cfg)


def twice_the_window_nfft(fs, cfg):
    """The FFT size the tracker used before it followed the lags read: the power of two >= 2 * win_n."""
    return 1 << int(np.ceil(np.log2(2 * frame_geometry(fs, cfg)[0])))


class TestAcfSize:
    """The ACF FFT is only as long as the lags read need, and wraps around at none of them."""

    @pytest.mark.parametrize("fs", RATES)
    @pytest.mark.parametrize("name", sorted(RANGES))
    def test_no_wrap_around_at_the_lags_read(self, fs, name, monkeypatch):
        cfg = RANGES[name]
        lag_hi = int(np.ceil(fs / cfg.floor))
        acf, seen = pitch._acf, []

        def spy_acf(x, nfft):
            # the window once, then blocks of mean-removed, windowed frames
            r = acf(x, nfft)
            seen.extend(zip(np.atleast_2d(x), np.atleast_2d(r)))
            return r

        monkeypatch.setattr(pitch, "_acf", spy_acf)
        w = edge_signals(fs, cfg)[f"{FFT_BLOCK_FRAMES + 1}_frames"]
        pitch._candidates(w, cfg)
        assert len(seen) == 1 + num_frames(w.samples.size, *frame_geometry(fs, cfg))
        for x, acf in seen:
            linear = np.correlate(x, x, "full")[x.size - 1 : x.size + lag_hi + 1]
            # FFT rounding scales with the whole ACF, so lags near a zero crossing
            # are held to 1e-12 of the lag-0 value rather than of their own
            np.testing.assert_allclose(acf[: lag_hi + 2], linear, rtol=1e-12, atol=1e-12 * linear[0])

    @pytest.mark.parametrize("fs", RATES)
    def test_edge_inputs_match_the_tracker_padded_to_twice_the_window(self, fs):
        for cfg in RANGES.values():
            for w in edge_signals(fs, cfg).values():
                assert_matches_twice_the_window(w, cfg)

    def test_corpus_utterances_match_the_tracker_padded_to_twice_the_window(self, corpus_1234):
        for row, w in corpus_1234:
            for cfg in (RANGES[row.group], RANGES["wide"]):
                assert assert_matches_twice_the_window(w, cfg).n_voiced > 0


def assert_matches_twice_the_window(w, cfg):
    """Same voicing as the oracle padded to 2 * win_n, and f0 values within 1e-12 relative."""
    got = extract_f0(w, cfg)
    want = extract_f0_scalar(w, cfg, twice_the_window_nfft(w.sample_rate, cfg))
    assert np.array_equal(got.voiced, want.voiced)
    np.testing.assert_allclose(got.values[got.voiced], want.values[want.voiced], rtol=1e-12, atol=0)
    return got


# (FFT_BLOCK_FRAMES, PEAK_BLOCK_FRAMES): both at one size, 10**6 being more than
# any input's frame count; FFT blocks that split a peak block unevenly; and FFT
# blocks larger than the peak block
BLOCK_SIZES = [(n, n) for n in (1, 7, 32, 256, 10**6)] + [(7, 256), (256, 7)]


@pytest.fixture(scope="module")
def default_block_tracks(corpus_1234):
    """Inputs with their candidates and tracks at the default block sizes."""
    cases = [(w, cfg) for row, w in corpus_1234 for cfg in (RANGES[row.group], RANGES["wide"])]
    cases += [(w, cfg) for cfg in RANGES.values() for w in edge_signals(16000, cfg).values()]
    return [(w, cfg, pitch._candidates(w, cfg), extract_f0(w, cfg)) for w, cfg in cases]


class TestBlockSizes:
    """FFT_BLOCK_FRAMES and PEAK_BLOCK_FRAMES set the speed only: candidates and tracks are bitwise the same."""

    @pytest.mark.parametrize("fft, peak", BLOCK_SIZES)
    def test_candidates_and_tracks_do_not_depend_on_the_block_sizes(self, default_block_tracks, fft, peak, monkeypatch):
        monkeypatch.setattr(pitch, "FFT_BLOCK_FRAMES", fft)
        monkeypatch.setattr(pitch, "PEAK_BLOCK_FRAMES", peak)
        for w, cfg, (_, freqs, adjs), track in default_block_tracks:
            _, got_freqs, got_adjs = pitch._candidates(w, cfg)
            assert np.array_equal(got_freqs, freqs, equal_nan=True)
            assert np.array_equal(got_adjs, adjs)
            got = extract_f0(w, cfg)
            assert np.array_equal(got.voiced, track.voiced)
            assert np.array_equal(got.values, track.values, equal_nan=True)


def acceptance_corpus_with_truth(tmp_path):
    """(waveform as read back from PCM-16, true per-sample f0, pitch range) for the
    120 utterances generate_corpus makes at seed 1234 and its default sizes."""
    path = tmp_path / "utterance.wav"
    for spk in synth.make_speakers(1234, 5):
        for session in (1, 2):
            cells = [(pipeline.CONDITION_MODAL, k) for k in range(4)]
            cells += [(synth.CONDITION_DISGUISED, k) for k in range(2)]
            for condition, k in cells:
                w, truth = synth._utterance_and_contour(spk, condition, session, k, 1234, synth.SAMPLE_RATE)
                write_wav(path, w, encoding="pcm16")
                yield read_wav(path), truth, RANGES[spk.group]


class TestGroundTruth:
    """The tracker against the contour each acceptance-corpus pulse train was made from.

    A frame's reference is the true f0 at its centre sample, unvoiced in the
    gaps between vowels. The bounds are the counts the greedy path gave when
    they were set (0.48% gross errors, 1.90% voicing errors); a better tracker
    lowers them, and they are never raised.
    """

    MAX_GROSS_ERRORS = 144  # of 30,280 frames voiced in both
    MAX_VOICING_ERRORS = 735  # of 38,643 frames

    def test_gross_pitch_and_voicing_errors(self, tmp_path):
        utterances = frames = both = gross = voicing = 0
        for w, truth, cfg in acceptance_corpus_with_truth(tmp_path):
            track = extract_f0(w, cfg)
            win_n, hop_n = frame_geometry(w.sample_rate, cfg)
            ref = truth[np.arange(len(track)) * hop_n + win_n // 2]
            ref_voiced = np.isfinite(ref)
            scored = ref_voiced & track.voiced
            # gross pitch error: more than 20% off (Rabiner et al., IEEE TASSP 1976)
            gross += np.count_nonzero(np.abs(track.values[scored] - ref[scored]) > 0.2 * ref[scored])
            voicing += np.count_nonzero(ref_voiced != track.voiced)
            both += np.count_nonzero(scored)
            frames += len(track)
            utterances += 1
        assert (utterances, frames) == (120, 38643)
        assert gross <= self.MAX_GROSS_ERRORS
        assert voicing <= self.MAX_VOICING_ERRORS


class TestInterpolate:
    def test_interior_gap_linear(self):
        t = traj([100.0, np.nan, 200.0])
        out = interpolate_unvoiced(t)
        np.testing.assert_allclose(out.values, [100.0, 150.0, 200.0])
        np.testing.assert_array_equal(out.voiced, t.voiced)

    def test_leading_edge_extension(self):
        t = traj([np.nan, np.nan, 120.0, 120.0])
        out = interpolate_unvoiced(t)
        np.testing.assert_allclose(out.values, [120.0, 120.0, 120.0, 120.0])

    def test_all_voiced_identity(self):
        t = traj([100.0, 110.0, 120.0])
        out = interpolate_unvoiced(t)
        np.testing.assert_array_equal(out.values, t.values)

    def test_fully_unvoiced_raises(self):
        t = traj([np.nan, np.nan])
        with pytest.raises(ValueError):
            interpolate_unvoiced(t)

    def test_voiced_values_never_modified(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(80, 300, 50)
        mask = rng.uniform(size=50) < 0.4
        vals[mask] = np.nan
        if np.all(mask):
            mask[0] = False
            vals[0] = 100.0
        t = traj(vals)
        out = interpolate_unvoiced(t)
        np.testing.assert_array_equal(out.values[t.voiced], t.values[t.voiced])
