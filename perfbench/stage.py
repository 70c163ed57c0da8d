"""The process that runs one workload's stage calls; run.py starts it once per run.

Usage: python3 perfbench/stage.py SPEC.json

SPEC names the workload, the set-up directory, a scratch directory, the
seconds to measure, the seed and whether to trace. The stage runs in its own
process so that its peak memory excludes set-up. It writes raw facts (per-call
wall and CPU times, failures, output digests, spans) to SPEC's result path;
run.py turns them into metrics and checks.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import envinfo
import layertrace
import workloads

MIN_CALLS = 3


def timed_call(pipeline, w, inputs: Path, out: Path, workers: int, attempted: int, tracer=None):
    """One stage call; failures are counted from outside and never retried."""
    workloads.prepare_call(w, inputs, out)
    before = os.times()
    start = time.perf_counter()
    report, error = None, None
    try:
        if tracer is None:
            report = workloads.run_stage(pipeline, w, inputs, out, workers)
        else:
            with tracer.span("stage"):
                report = workloads.run_stage(pipeline, w, inputs, out, workers)
    except Exception as exc:  # a stage that raises fails every utterance it was given
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    after = os.times()
    cpu = sum(getattr(after, f) - getattr(before, f) for f in ("user", "system", "children_user", "children_system"))
    call = {
        "wall_s": wall,
        "cpu_s": cpu,
        "workers": workers,
        "error": error,
        "failed": attempted if error else workloads.failed_utterances(w, out, attempted),
        "digest": None if error else workloads.tree_digest(out),
    }
    if report is not None:
        call["eer_pct"] = report.rows[0].eer_percent
        call["stoi_mean"] = report.rows[0].stoi_mean
    shutil.rmtree(out, ignore_errors=True)
    workloads.model_copy(out).unlink(missing_ok=True)
    return call


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    w = workloads.WORKLOADS[spec["workload"]]
    inputs, work = Path(spec["inputs"]), Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    pipeline, synth = workloads.load_voxmask()

    attempted, audio_s = workloads.stage_input(w, inputs)
    # after voxmask is imported, so numpy's and scipy's BLAS libraries are loaded
    result = {"env": envinfo.record(workloads.ROOT), "attempted_per_call": attempted, "audio_s_per_call": audio_s}

    calls = []
    start = time.perf_counter()
    while len(calls) < MIN_CALLS or time.perf_counter() - start < spec["seconds"]:
        calls.append(timed_call(pipeline, w, inputs, work / f"call{len(calls)}", w.workers, attempted))
        if calls[-1]["error"]:
            break
    result["calls"] = calls
    result["peak_rss_mb"] = peak_rss_mb()

    # the same preset at one worker: its output must match the pool's byte for byte
    if w.workers > 1:
        result["reference"] = timed_call(pipeline, w, inputs, work / "reference", 1, attempted)

    if w.stage == "evaluate":
        corpus = inputs / "corpus"
        baseline = pipeline.cmd_evaluate(
            corpus / "manifest.csv", workloads.preset(workloads.BASELINE_PRESET),
            corpus / "wav", corpus / "trials.csv", work / "baseline",
        )
        result["baseline_eer_pct"] = baseline.rows[0].eer_percent

    if spec["trace"]:
        tracer = layertrace.Tracer()
        with layertrace.installed(tracer) as missing:
            traced = timed_call(pipeline, w, inputs, work / "traced", 1, attempted, tracer)
        setup_tracer = layertrace.Tracer()
        with layertrace.installed(setup_tracer):
            with setup_tracer.span("setup"):
                synth.generate_corpus(work / "traced_corpus", seed=spec["seed"], **w.corpus)
        traced["corpus_digest"] = workloads.tree_digest(work / "traced_corpus")
        metrics = layertrace.layer_metrics(tracer, 0)
        metrics.update({k: v for k, v in layertrace.layer_metrics(setup_tracer, 0).items() if k.startswith("synth.")})
        traced["metrics"] = metrics
        traced["self_time_gap_s"] = layertrace.self_time_gap(tracer, 0)
        traced["unwrapped"] = missing
        traced["spans"] = tracer.spans
        result["traced"] = traced

    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
