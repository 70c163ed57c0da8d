"""The three f0 anonymization strategies and the component-count rule.

Strategies operate on a fitted functional PCA model: swap the first score
with a donor statistic and rebuild the curve. The utterance is projected in
the model's own fda.CurveSpace, the one it was fit in, which also maps the
rebuilt curve back to Hz, clamped to the utterance group's PitchConfig range.
The constant-shift strategy bypasses the model entirely and just scales the
trajectory. An utterance with no voiced frame has no f0 to edit, under any
strategy. Whether a target f0 can be resynthesized at all is resynth's call:
psola_modify rejects one outside [20 Hz, sample_rate/4].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fda import FpcaModel, curve_from_trajectory, fpca_project, reconstruct
from .pitch import F0Trajectory, PitchConfig

DISGUISE_MODEL = "disguise_model"
CROSS_GROUP = "cross_group"
CONSTANT_SHIFT = "constant_shift"
STRATEGY_KINDS = (DISGUISE_MODEL, CROSS_GROUP, CONSTANT_SHIFT)


@dataclass(frozen=True)
class DeidStrategy:
    """Which replacement rule to apply, and its parameters.

    shift_percent applies to constant_shift only; donor_group to cross_group
    only. donor_condition names the manifest condition whose curves feed the
    disguise-model statistic.
    """

    kind: str
    shift_percent: float = 0.0
    donor_group: str = ""  # empty = let the pipeline pick the opposite group
    donor_condition: str = "disguised"
    variance_threshold: float = 0.9
    max_components: int = 30

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; expected one of {STRATEGY_KINDS}")
        if self.shift_percent <= -100:
            raise ValueError("shift_percent must exceed -100")
        if not (0 < self.variance_threshold <= 1):
            raise ValueError("variance_threshold must be in (0, 1]")
        if self.max_components < 1:
            raise ValueError("max_components must be at least 1")


def select_n_components(model: FpcaModel, threshold: float = 0.9, cap: int = 30) -> int:
    """Smallest n whose cumulative variance fraction exceeds threshold, capped; never 0."""
    if not (0 < threshold <= 1):
        raise ValueError("threshold must be in (0, 1]")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    cumulative = np.cumsum(model.variance_fraction)
    above = np.nonzero(cumulative > threshold)[0]
    n = int(above[0]) + 1 if above.size else model.n_components
    return max(1, min(cap, n))


def replacement_first_score(strategy: DeidStrategy, model: FpcaModel, speaker: str) -> float:
    """Donor statistic that replaces s1.

    disguise_model: mean of |s1| over the named speaker's donor-condition
    curves, so the replacement is always a positive weighting. cross_group:
    plain mean of s1 over every curve labeled with the donor group.
    """
    s1 = model.training_scores[:, 0]
    if strategy.kind == DISGUISE_MODEL:
        rows = [
            k
            for k, lab in enumerate(model.labels)
            if lab.speaker == speaker and lab.condition == strategy.donor_condition
        ]
        if not rows:
            raise ValueError(
                f"no {strategy.donor_condition!r}-condition training curves for speaker {speaker!r}"
            )
        return float(np.mean(np.abs(s1[rows])))
    if strategy.kind == CROSS_GROUP:
        if not strategy.donor_group:
            raise ValueError("cross_group donor_group is unresolved")
        rows = [k for k, lab in enumerate(model.labels) if lab.group == strategy.donor_group]
        if not rows:
            raise ValueError(f"no training curves labeled group {strategy.donor_group!r}")
        return float(np.mean(s1[rows]))
    raise ValueError(f"strategy {strategy.kind!r} defines no replacement score")


def anonymize_scores(original: np.ndarray, replacement_s1: float, n: int) -> np.ndarray:
    """Swap index 0 for the replacement, keep indices 1..n-1, drop the rest."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > len(original):
        raise ValueError(f"n = {n} exceeds the {len(original)} available scores")
    values = original[:n].copy()
    values[0] = replacement_s1
    return values


def constant_pitch_shift(t: F0Trajectory, percent: float) -> F0Trajectory:
    """Multiply every f0 value by (1 + percent/100); flags and times unchanged."""
    if percent <= -100:
        raise ValueError("percent must exceed -100")
    return F0Trajectory(t.times, t.values * (1.0 + percent / 100.0), t.voiced)


def anonymize_trajectory(
    t: F0Trajectory,
    model: Optional[FpcaModel],
    strategy: DeidStrategy,
    speaker: str = "",
    *,
    pitch: PitchConfig,
) -> F0Trajectory:
    """Full score-replacement pipeline for one trajectory.

    curve_from_trajectory -> project -> swap s1 -> reconstruct, all in
    model.space, the curve space the model was fit in, which then maps the
    curve back to Hz on the input frame times. Frame count, times, and
    voicing flags pass through untouched; unvoiced frames stay NaN.
    Reconstructed values are clamped to [pitch.floor/2, 2*pitch.ceiling], the
    group's search range widened by an octave each way, guarding resynthesis
    against spline overshoot near the curve edges.
    """
    if t.n_voiced == 0:
        raise ValueError("no voiced frames found")
    if strategy.kind == CONSTANT_SHIFT:
        return constant_pitch_shift(t, strategy.shift_percent)
    if model is None:
        raise ValueError(f"strategy {strategy.kind!r} requires a fitted model")

    scores = fpca_project(curve_from_trajectory(t, model.space), model)
    n = select_n_components(model, strategy.variance_threshold, strategy.max_components)
    swapped = anonymize_scores(scores, replacement_first_score(strategy, model, speaker), n)
    hz = model.space.to_hz(reconstruct(model, swapped, n), t.times)
    hz = np.minimum(np.maximum(hz, pitch.floor / 2.0), 2.0 * pitch.ceiling)
    values = np.where(t.voiced, hz, np.nan)
    return F0Trajectory(t.times, values, t.voiced)
