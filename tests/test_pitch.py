"""Autocorrelation pitch tracking and trajectory transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxmask.audio import Waveform
from voxmask.pitch import (
    HOP_S,
    HZ,
    SEMITONE,
    VOICING_THRESHOLD,
    F0Trajectory,
    PitchConfig,
    extract_f0,
    hz_to_semitones,
    interpolate_unvoiced,
    load_trajectory_csv,
    save_trajectory_csv,
    semitones_to_hz,
)

from conftest import make_tone, make_test_vowel


def traj(values, voiced=None, unit=HZ, hop=0.01):
    values = np.asarray(values, dtype=np.float64)
    if voiced is None:
        voiced = np.isfinite(values)
    times = np.arange(values.size) * hop
    return F0Trajectory(times, values, np.asarray(voiced, bool), unit)


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


class TestSemitones:
    def test_octave_is_twelve(self):
        out = hz_to_semitones(traj([200.0]), ref=100.0)
        assert out.values[0] == pytest.approx(12.0)
        assert out.unit == SEMITONE

    def test_reference_is_zero(self):
        out = hz_to_semitones(traj([100.0]), ref=100.0)
        assert out.values[0] == pytest.approx(0.0)

    def test_semitone_examples(self):
        st_traj = traj([12.0, 0.0, -12.0], voiced=[True] * 3, unit=SEMITONE)
        out = semitones_to_hz(st_traj, ref=100.0)
        np.testing.assert_allclose(out.values, [200.0, 100.0, 50.0])
        assert out.unit == HZ

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError):
            hz_to_semitones(traj([0.0], voiced=[True]), ref=100.0)

    def test_wrong_unit_rejected(self):
        st_traj = traj([1.0], voiced=[True], unit=SEMITONE)
        with pytest.raises(ValueError):
            hz_to_semitones(st_traj)
        with pytest.raises(ValueError):
            semitones_to_hz(traj([100.0]))

    @given(
        st.lists(st.floats(min_value=20.0, max_value=2000.0), min_size=1, max_size=30),
        st.floats(min_value=20.0, max_value=500.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, hz_values, ref):
        t = traj(hz_values)
        back = semitones_to_hz(hz_to_semitones(t, ref), ref)
        np.testing.assert_allclose(back.values, t.values, rtol=1e-9)


class TestCsv:
    def test_round_trip(self, tmp_path):
        t = traj([100.0, np.nan, 150.5])
        p = tmp_path / "t.csv"
        save_trajectory_csv(p, t)
        header = p.read_text().splitlines()[0]
        assert header == "time_s,f0_hz,voiced"
        back = load_trajectory_csv(p)
        np.testing.assert_allclose(back.times, t.times)
        np.testing.assert_array_equal(back.voiced, t.voiced)
        np.testing.assert_allclose(back.values[back.voiced], t.values[t.voiced])
        assert np.all(np.isnan(back.values[~back.voiced]))

    def test_nan_serialized_empty(self, tmp_path):
        t = traj([100.0, np.nan])
        p = tmp_path / "t.csv"
        save_trajectory_csv(p, t)
        lines = p.read_text().splitlines()
        assert lines[2].endswith(",,0") or ",," in lines[2]
