"""Score-replacement anonymization strategies and the component-count rule."""

import dataclasses

import numpy as np
import pytest

from voxmask.deid import (
    DeidStrategy,
    anonymize_scores,
    anonymize_trajectory,
    constant_pitch_shift,
    replacement_first_score,
    select_n_components,
)
from voxmask.fda import CurveLabel, CurveSpace, curve_from_trajectory, fpca_fit
from voxmask.pitch import F0Trajectory, PitchConfig


def hz_traj(values, voiced=None, hop=0.01):
    values = np.asarray(values, dtype=np.float64)
    if voiced is None:
        voiced = np.isfinite(values)
    return F0Trajectory(np.arange(values.size) * hop, values, np.asarray(voiced, bool))


def contour(base: float, n: int = 150, bump: float = 0.06, phase: float = 0.0) -> np.ndarray:
    t = np.linspace(0, 1, n)
    declination = 1.0 - 0.08 * t
    return base * declination * (1.0 + bump * np.sin(2 * np.pi * t + phase))


SPACE = CurveSpace(40, 4, 1e-8, 200, 100.0)
PITCH = PitchConfig(65.0, 380.0)  # the low group's search range in the presets


def fit_two_group_model(n_per_group: int = 6):
    curves, labels = [], []
    rng = np.random.default_rng(77)
    for gi, (group, base) in enumerate([("low", 110.0), ("high", 210.0)]):
        for k in range(n_per_group):
            f0 = contour(base * (1 + 0.04 * rng.standard_normal()), phase=rng.uniform(0, 3))
            curves.append(curve_from_trajectory(hz_traj(f0), SPACE))
            labels.append(CurveLabel(f"{group}{k}", f"spk_{group}{k}", group, "modal"))
    return fpca_fit(curves, labels)


def with_fractions(model, fractions):
    """The model cut to its first len(fractions) components, with those variance fractions."""
    k = len(fractions)
    return dataclasses.replace(
        model,
        components=model.components[:k],
        eigenvalues=model.eigenvalues[:k],
        variance_fraction=np.asarray(fractions, dtype=np.float64),
        training_scores=model.training_scores[:, :k],
    )


@pytest.fixture(scope="module")
def two_group_model():
    return fit_two_group_model()


class TestStrategyValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DeidStrategy(kind="swap_everything")

    def test_shift_must_exceed_minus_100(self):
        with pytest.raises(ValueError):
            DeidStrategy(kind="constant_shift", shift_percent=-100.0)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            DeidStrategy(kind="cross_group", variance_threshold=0.0)
        with pytest.raises(ValueError):
            DeidStrategy(kind="cross_group", variance_threshold=1.5)

    def test_empty_donor_group_allowed_for_later_resolution(self):
        s = DeidStrategy(kind="cross_group", donor_group="")
        assert s.donor_group == ""


class TestSelectNComponents:
    def test_single_component(self, two_group_model):
        model = with_fractions(two_group_model, [1.0])
        assert select_n_components(model, 0.9, 30) == 1

    def test_worked_cumulative_sum(self, two_group_model):
        model = with_fractions(two_group_model, [0.5, 0.3, 0.15, 0.05])
        assert select_n_components(model, 0.9, 30) == 3

    def test_cap_binds(self, two_group_model):
        model = with_fractions(two_group_model, [0.5, 0.3, 0.15, 0.05])
        assert select_n_components(model, 0.9, 2) == 2

    def test_threshold_validation(self, two_group_model):
        with pytest.raises(ValueError):
            select_n_components(two_group_model, 0.0, 30)
        with pytest.raises(ValueError):
            select_n_components(two_group_model, 30, 30)

    def test_never_zero(self, two_group_model):
        model = with_fractions(two_group_model, [0.99, 0.01])
        assert select_n_components(model, 0.5, 30) == 1


class TestReplacementScore:
    def fake_model(self, two_group_model, s1_values, labels):
        scores = np.zeros((len(s1_values), two_group_model.training_scores.shape[1]))
        scores[:, 0] = s1_values
        return dataclasses.replace(two_group_model, training_scores=scores, labels=tuple(labels))

    def test_disguise_model_uses_mean_absolute(self, two_group_model):
        labels = [
            CurveLabel(f"u{k}", "spk_a", "low", "disguised") for k in range(3)
        ]
        model = self.fake_model(two_group_model, [-2.0, 3.0, -4.0], labels)
        s = DeidStrategy(kind="disguise_model")
        assert replacement_first_score(s, model, "spk_a") == pytest.approx(3.0)

    def test_cross_group_uses_plain_mean(self, two_group_model):
        labels = [CurveLabel(f"u{k}", f"s{k}", "high", "modal") for k in range(3)]
        model = self.fake_model(two_group_model, [1.0, 2.0, 3.0], labels)
        s = DeidStrategy(kind="cross_group", donor_group="high")
        assert replacement_first_score(s, model, "anyone") == pytest.approx(2.0)

    def test_speaker_without_disguised_curves_errors(self, two_group_model):
        labels = [CurveLabel("u0", "spk_a", "low", "modal")]
        model = self.fake_model(two_group_model, [1.0], labels)
        with pytest.raises(ValueError):
            replacement_first_score(DeidStrategy(kind="disguise_model"), model, "spk_a")

    def test_unresolved_donor_group_errors(self, two_group_model):
        with pytest.raises(ValueError, match="donor_group"):
            replacement_first_score(
                DeidStrategy(kind="cross_group", donor_group=""), two_group_model, "x"
            )

    def test_unknown_donor_group_errors(self, two_group_model):
        with pytest.raises(ValueError):
            replacement_first_score(
                DeidStrategy(kind="cross_group", donor_group="martian"), two_group_model, "x"
            )


class TestAnonymizeScores:
    def test_worked_example(self):
        original = np.array([5.0, 1.0, 2.0])
        out = anonymize_scores(original, 9.0, 3)
        np.testing.assert_allclose(out, [9.0, 1.0, 2.0])
        np.testing.assert_array_equal(original, [5.0, 1.0, 2.0])  # the input is left alone

    def test_identity_swap_truncates(self):
        out = anonymize_scores(np.array([5.0, 1.0, 2.0, 7.0]), 5.0, 2)
        np.testing.assert_allclose(out, [5.0, 1.0])

    def test_single_component(self):
        out = anonymize_scores(np.array([5.0, 1.0]), -3.5, 1)
        np.testing.assert_allclose(out, [-3.5])

    def test_tail_untouched_exactly(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(10)
        out = anonymize_scores(vals, 99.0, 10)
        np.testing.assert_array_equal(out[1:], vals[1:])

    def test_excessive_n_rejected(self):
        with pytest.raises(ValueError):
            anonymize_scores(np.array([1.0]), 0.0, 2)


class TestConstantShift:
    def test_fifteen_percent(self):
        out = constant_pitch_shift(hz_traj([100.0, 100.0]), 15.0)
        np.testing.assert_allclose(out.values, 115.0)

    def test_zero_is_identity(self):
        t = hz_traj([100.0, 140.0, np.nan])
        out = constant_pitch_shift(t, 0.0)
        np.testing.assert_array_equal(out.values[t.voiced], t.values[t.voiced])
        np.testing.assert_array_equal(out.voiced, t.voiced)

    def test_minus_fifty(self):
        out = constant_pitch_shift(hz_traj([200.0]), -50.0)
        assert out.values[0] == pytest.approx(100.0)


class TestAnonymizeTrajectory:
    def test_constant_shift_dispatch(self):
        t = hz_traj(contour(120.0))
        strategy = DeidStrategy(kind="constant_shift", shift_percent=15.0)
        out = anonymize_trajectory(t, None, strategy, pitch=PITCH)
        ref = constant_pitch_shift(t, 15.0)
        np.testing.assert_array_equal(out.values, ref.values)

    def test_model_required_for_score_swap(self):
        t = hz_traj(contour(120.0))
        with pytest.raises(ValueError):
            anonymize_trajectory(t, None, DeidStrategy(kind="cross_group", donor_group="high"), pitch=PITCH)

    def test_score_swap_takes_its_space_from_the_model(self, two_group_model):
        # a second space argument could only disagree with the model's; there is none
        t = hz_traj(contour(120.0))
        strategy = DeidStrategy(kind="cross_group", donor_group="high")
        with pytest.raises(TypeError, match="space"):
            anonymize_trajectory(t, two_group_model, strategy, space=SPACE, pitch=PITCH)
        moved = dataclasses.replace(two_group_model, space=dataclasses.replace(SPACE, ref_hz=200.0))
        a = anonymize_trajectory(t, two_group_model, strategy, pitch=PITCH)
        b = anonymize_trajectory(t, moved, strategy, pitch=PITCH)
        assert not np.allclose(a.values[t.voiced], b.values[t.voiced])

    def test_frame_geometry_preserved(self, two_group_model):
        f0 = contour(115.0)
        f0[40:55] = np.nan
        t = hz_traj(f0)
        out = anonymize_trajectory(
            t,
            two_group_model,
            DeidStrategy(kind="cross_group", donor_group="high"),
            pitch=PITCH,
        )
        assert len(out) == len(t)
        np.testing.assert_array_equal(out.times, t.times)
        np.testing.assert_array_equal(out.voiced, t.voiced)
        assert np.all(np.isnan(out.values[~out.voiced]))
        assert np.all(np.isfinite(out.values[out.voiced]))

    def test_cross_group_direction(self, two_group_model):
        low = hz_traj(contour(112.0))
        up = anonymize_trajectory(
            low,
            two_group_model,
            DeidStrategy(kind="cross_group", donor_group="high"),
            pitch=PITCH,
        )
        assert np.median(up.values[up.voiced]) > np.median(low.values[low.voiced])

        high = hz_traj(contour(205.0))
        down = anonymize_trajectory(
            high,
            two_group_model,
            DeidStrategy(kind="cross_group", donor_group="low"),
            pitch=PitchConfig(140.0, 520.0),
        )
        assert np.median(down.values[down.voiced]) < np.median(high.values[high.voiced])

    def test_deterministic(self, two_group_model):
        t = hz_traj(contour(118.0))
        strategy = DeidStrategy(kind="cross_group", donor_group="high")
        a = anonymize_trajectory(t, two_group_model, strategy, pitch=PITCH)
        b = anonymize_trajectory(t, two_group_model, strategy, pitch=PITCH)
        np.testing.assert_array_equal(a.values, b.values)

    def test_own_score_replacement_is_near_identity(self):
        # donor group holding a single curve: the cross-group mean IS that
        # curve's own s1, so full reconstruction must return the input
        solo_f0 = contour(118.0, phase=1.2)
        curves, labels = [], []
        curves.append(curve_from_trajectory(hz_traj(solo_f0), SPACE))
        labels.append(CurveLabel("solo0", "solo", "solo", "modal"))
        rng = np.random.default_rng(5)
        for k in range(5):
            f0 = contour(150.0 * (1 + 0.1 * rng.standard_normal()), phase=rng.uniform(0, 3))
            curves.append(curve_from_trajectory(hz_traj(f0), SPACE))
            labels.append(CurveLabel(f"r{k}", f"spk{k}", "rest", "modal"))
        model = fpca_fit(curves, labels)
        strategy = DeidStrategy(
            kind="cross_group", donor_group="solo", variance_threshold=1.0, max_components=99
        )
        t = hz_traj(solo_f0)
        out = anonymize_trajectory(t, model, strategy, pitch=PITCH)
        rel = np.abs(out.values[t.voiced] - t.values[t.voiced]) / t.values[t.voiced]
        assert np.max(rel) < 0.02

    def test_clamps_guard_spline_overshoot(self, two_group_model):
        t = hz_traj(contour(112.0))
        out = anonymize_trajectory(
            t,
            two_group_model,
            DeidStrategy(kind="cross_group", donor_group="high"),
            pitch=PITCH,
        )
        v = out.values[out.voiced]
        assert np.all(v >= 65.0 / 2) and np.all(v <= 2 * 380.0)

    def test_clamp_takes_the_groups_range(self, two_group_model):
        # the low-to-high swap lands near 200 Hz; a range whose doubled ceiling
        # is 120 Hz pins every voiced frame to exactly that
        t = hz_traj(contour(112.0))
        strategy = DeidStrategy(kind="cross_group", donor_group="high")
        free = anonymize_trajectory(t, two_group_model, strategy, pitch=PITCH)
        assert np.min(free.values[t.voiced]) > 120.0
        out = anonymize_trajectory(t, two_group_model, strategy, pitch=PitchConfig(50.0, 60.0))
        np.testing.assert_array_equal(out.values[t.voiced], 120.0)

    def test_range_is_one_required_keyword(self, two_group_model):
        t = hz_traj(contour(112.0))
        strategy = DeidStrategy(kind="cross_group", donor_group="high")
        with pytest.raises(TypeError, match="pitch"):
            anonymize_trajectory(t, two_group_model, strategy)
        for old in ({"pitch_floor": 65.0}, {"pitch_ceiling": 380.0}, {"max_hz": 4000.0}):
            with pytest.raises(TypeError, match=next(iter(old))):
                anonymize_trajectory(t, two_group_model, strategy, pitch=PITCH, **old)

    @pytest.mark.parametrize(
        "strategy",
        [DeidStrategy(kind="constant_shift", shift_percent=15.0), DeidStrategy(kind="cross_group", donor_group="high")],
        ids=["constant_shift", "cross_group"],
    )
    def test_unvoiced_trajectory_rejected(self, strategy, two_group_model):
        t = hz_traj(np.full(150, np.nan))
        with pytest.raises(ValueError, match="^no voiced frames found$"):
            anonymize_trajectory(t, two_group_model, strategy, pitch=PITCH)

    def test_constant_shift_leaves_the_resynthesis_bound_to_psola(self):
        # 3000 Hz at +50% is beyond 16 kHz / 4; psola_modify, not deid, refuses it
        out = anonymize_trajectory(
            hz_traj([3000.0]), None, DeidStrategy(kind="constant_shift", shift_percent=50.0), pitch=PITCH
        )
        assert out.values[0] == pytest.approx(4500.0)
