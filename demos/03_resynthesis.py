"""Modify pitch and formants of a vowel while keeping it intelligible.

Shows the two resynthesis primitives on their own: time-domain pitch
modification (PSOLA) and LPC-based formant shifting.
"""

from pathlib import Path

import numpy as np

from voxmask import deid, pitch, resynth, synth
from voxmask.audio import write_wav
from voxmask.evaluation import stoi

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# A 120 Hz vowel with known resonances.
w = synth.make_vowel(duration=0.8, f0=120.0, formants=(700.0, 1200.0, 2600.0), seed=3)
cfg = pitch.PitchConfig(floor=65.0, ceiling=380.0)
traj = pitch.extract_f0(w, cfg)
print(f"input: median f0 {np.median(traj.values[traj.voiced]):.1f} Hz")

# --- pitch: raise every voiced frame by 15% -------------------------------
target = deid.constant_pitch_shift(traj, percent=15.0)
shifted = resynth.psola_modify(w, traj, target)
got = pitch.extract_f0(shifted, cfg)
print(f"after +15% PSOLA: median f0 {np.median(got.values[got.voiced]):.1f} Hz, "
      f"STOI vs input {stoi(w, shifted):.3f}")
write_wav(OUT / "vowel_f0_up15.wav", shifted)

# --- formants: scale the spectral envelope by 1.2 -------------------------
fcfg = resynth.FormantShiftConfig(factor=1.2)
result = resynth.shift_formants_detailed(w, fcfg)
out = result.waveform
print(f"formants x1.2: {result.clamped_poles} pole radii clamped for stability, "
      f"{result.skipped_poles} formant poles left unshifted by the 0.95*pi guard, "
      f"STOI vs input {stoi(w, out):.3f}")
write_wav(OUT / "vowel_formants_up20.wav", out)

# Both at once is what the anonymization pipeline does per utterance.
both = resynth.shift_formants_detailed(shifted, fcfg).waveform
write_wav(OUT / "vowel_both.wav", both)
print(f"combined STOI vs input {stoi(w, both):.3f}")
print(f"wrote 3 wavs under {OUT}")
