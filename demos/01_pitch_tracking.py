"""Track the pitch of a synthetic utterance and work with the trajectory.

Walks through the core f0 workflow: extract a trajectory, bridge unvoiced
gaps, and view it in semitones.
"""

import numpy as np

from voxmask import pipeline, pitch, synth

# A deterministic test speaker saying one "sentence".
speaker = synth.make_speakers(seed=7)[0]
wave = synth.synth_utterance(speaker, pipeline.CONDITION_MODAL, session=1, utt_index=0, seed=7)
print(f"speaker {speaker.speaker_id}: base f0 {speaker.base_f0:.1f} Hz, "
      f"{wave.duration:.2f} s of audio")

# Extract the trajectory. floor/ceiling bound the f0 search range; the
# tracker leaves NaN in unvoiced frames.
cfg = pitch.PitchConfig(floor=65.0, ceiling=380.0)
traj = pitch.extract_f0(wave, cfg)
voiced = traj.values[traj.voiced]
print(f"{traj.times.size} frames, {voiced.size} voiced "
      f"({100.0 * voiced.size / traj.times.size:.0f}%)")
print(f"median f0 {np.median(voiced):.1f} Hz, "
      f"range {voiced.min():.1f} to {voiced.max():.1f} Hz")

# Most downstream processing wants a gap-free curve.
filled = pitch.interpolate_unvoiced(traj)
assert np.all(np.isfinite(filled.values))

# Semitones relative to 100 Hz linearize pitch perception across speakers;
# fda.curve_from_trajectory applies the same mapping with its curve space's reference.
st = 12.0 * np.log2(filled.values / 100.0)
print(f"semitone range {st.min():+.1f} to {st.max():+.1f} st re 100 Hz")
