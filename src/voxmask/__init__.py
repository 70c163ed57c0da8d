"""Voice anonymization toolkit: pitch-trajectory remodeling, formant shifting, evaluation."""

from .audio import AudioFormatError, UnsupportedFormatError, Waveform, read_wav, resample, write_wav
from .deid import DeidStrategy, anonymize_scores, anonymize_trajectory, constant_pitch_shift, replacement_first_score, select_n_components
from .evaluation import EvalReport, TrialSet, compute_eer, mfcc_embed, score_trials, stoi
from .fda import (
    BSplineBasis,
    CurveLabel,
    CurveSpace,
    FpcaModel,
    FunctionalCurve,
    ScoreVector,
    build_basis,
    fpca_fit,
    fpca_project,
    gram_matrix,
    load_model,
    penalty_matrix,
    reconstruct,
    save_model,
    smooth_curve,
)
from .pitch import F0Trajectory, PitchConfig, extract_f0, hz_to_semitones, interpolate_unvoiced, semitones_to_hz
from .resynth import EpochSequence, FormantShiftConfig, burg_lpc, detect_epochs, psola_modify, shift_formants_detailed

__version__ = "0.1.0"

__all__ = [
    "AudioFormatError",
    "BSplineBasis",
    "CurveLabel",
    "CurveSpace",
    "DeidStrategy",
    "EpochSequence",
    "EvalReport",
    "F0Trajectory",
    "FormantShiftConfig",
    "FpcaModel",
    "FunctionalCurve",
    "PitchConfig",
    "ScoreVector",
    "TrialSet",
    "UnsupportedFormatError",
    "Waveform",
    "anonymize_scores",
    "anonymize_trajectory",
    "build_basis",
    "burg_lpc",
    "compute_eer",
    "constant_pitch_shift",
    "detect_epochs",
    "extract_f0",
    "fpca_fit",
    "fpca_project",
    "gram_matrix",
    "hz_to_semitones",
    "interpolate_unvoiced",
    "load_model",
    "mfcc_embed",
    "penalty_matrix",
    "psola_modify",
    "read_wav",
    "reconstruct",
    "replacement_first_score",
    "resample",
    "save_model",
    "score_trials",
    "select_n_components",
    "semitones_to_hz",
    "shift_formants_detailed",
    "smooth_curve",
    "stoi",
    "write_wav",
]
