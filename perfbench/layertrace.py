"""Per-layer tracing of voxmask from outside the program.

Each layer is a module of ``voxmask``. Its public functions are replaced, at
every module binding that refers to them (``pipeline.read_wav`` and
``deid.smooth_curve`` are imported by name, for example), with wrappers that
record a span per call. Spans stay in memory; a layer's self time is its
span's duration minus the time covered by its child spans, so the self times
of all spans plus the root span's self time add up to the root's wall time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, function). resynth.shift_formants is the function the
# pipeline actually calls, shift_formants_detailed.
SPANS = {
    "synth.synth_utterance": ("synth", "synth_utterance"),
    "synth.pulse_train": ("synth", "pulse_train"),
    "audio.read_wav": ("audio", "read_wav"),
    "audio.write_wav": ("audio", "write_wav"),
    "audio.resample": ("audio", "resample"),
    "pitch.extract_f0": ("pitch", "extract_f0"),
    "fda.smooth_curve": ("fda", "smooth_curve"),
    "fda.penalty_matrix": ("fda", "penalty_matrix"),
    "fda.gram_matrix": ("fda", "gram_matrix"),
    "fda.fpca_fit": ("fda", "fpca_fit"),
    "fda.fpca_project": ("fda", "fpca_project"),
    "fda.reconstruct": ("fda", "reconstruct"),
    "fda.load_model": ("fda", "load_model"),
    "deid.anonymize_trajectory": ("deid", "anonymize_trajectory"),
    "resynth.psola_modify": ("resynth", "psola_modify"),
    "resynth.detect_epochs": ("resynth", "detect_epochs"),
    "resynth.shift_formants": ("resynth", "shift_formants_detailed"),
    "resynth.burg_lpc": ("resynth", "burg_lpc"),
    "evaluation.stoi": ("evaluation", "stoi"),
    "evaluation.mfcc_embed": ("evaluation", "mfcc_embed"),
    "evaluation.compute_eer": ("evaluation", "compute_eer"),
    "evaluation.score_trials": ("evaluation", "score_trials"),
}

LAYERS = tuple(dict.fromkeys(name.split(".", 1)[0] for name in SPANS))


def _input_seconds(args, result):
    return args[0].duration


def _output_seconds(args, result):
    return result.duration


# spans that report rtf: self seconds per second of audio passed in
# (synth_utterance makes its audio, so its output is counted instead)
AUDIO_OF = {
    "synth.synth_utterance": _output_seconds,
    "pitch.extract_f0": _input_seconds,
    "resynth.psola_modify": _input_seconds,
    "resynth.shift_formants": _input_seconds,
    "evaluation.stoi": _input_seconds,
    "evaluation.mfcc_embed": _input_seconds,
}


def _count_voiced(counts, result):
    counts["pitch.voiced_frames"] += result.n_voiced
    counts["pitch.frames"] += len(result)


def _count_clamped(counts, result):
    counts["resynth.clamped_poles"] += result.clamped_poles


COUNTERS = {
    "pitch.extract_f0": _count_voiced,
    "resynth.shift_formants": _count_clamped,
}


class Tracer:
    """Collects spans in memory: [name, start, end, parent index, self seconds]."""

    def __init__(self):
        self.spans = []
        self.audio_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.fails = defaultdict(int)
        self._stack = []  # [span index, seconds covered by children]

    def enter(self, name: str) -> int:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append([len(self.spans) - 1, 0.0])
        return len(self.spans) - 1

    def exit(self, index: int) -> None:
        end = time.perf_counter()
        top, children = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        span = self.spans[index]
        duration = end - span[1]
        span[2] = end
        span[4] = duration - children
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield
        finally:
            self.exit(index)

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        audio_of = AUDIO_OF.get(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.fails[layer] += 1
                raise
            finally:
                self.exit(index)
            if audio_of is not None:
                self.audio_s[name] += audio_of(args, result)
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function at every voxmask module binding, then restore them.

    Yields the span names whose function the installed voxmask lacks.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n == "voxmask" or n.startswith("voxmask.")]
    patched = []
    missing = []
    for name, (module_name, attr) in SPANS.items():
        module = sys.modules.get(f"voxmask.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    patched.append((m, key, original))
    try:
        yield missing
    finally:
        for m, key, original in reversed(patched):
            setattr(m, key, original)


def layer_metrics(tracer: Tracer, root: int) -> dict:
    """calls/self_s/rtf per span name, layer fail counts, and the root's own self time."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for name, _start, _end, _parent, own in tracer.spans:
        calls[name] += 1
        self_s[name] += own
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
        if name in AUDIO_OF:
            audio = tracer.audio_s[name]
            out[f"{name}.rtf"] = self_s[name] / audio if audio > 0 else 0.0
    for layer in LAYERS:
        out[f"{layer}.fail"] = tracer.fails[layer]
    frames = tracer.counts["pitch.frames"]
    out["pitch.voiced_ratio"] = tracer.counts["pitch.voiced_frames"] / frames if frames else 0.0
    out["resynth.clamped_poles"] = int(tracer.counts["resynth.clamped_poles"])
    out["pipeline.self_s"] = tracer.spans[root][4]
    return out


def self_time_gap(tracer: Tracer, root: int) -> float:
    """Root wall time minus the self times of all spans, root included (0 up to rounding).

    Assumes every span recorded by the tracer ran inside the root span.
    """
    start, end = tracer.spans[root][1], tracer.spans[root][2]
    return (end - start) - sum(s[4] for s in tracer.spans)
