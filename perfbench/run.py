"""voxmask benchmark: stage throughput on fit / anonymize / evaluate, with a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload anon_formant --seed 1234 --seconds 10 --trace 0
    python3 perfbench/run.py                 # every workload, untraced then traced

Each run builds the workload's inputs from the seed several times (set-up),
then starts one stage process that calls the stage again and again for
--seconds, at least three times, and checks the outputs outside the timed
region. With --trace 0 the last stdout line holds the end-to-end metrics;
with --trace 1 it holds the per-layer metrics of one traced stage call made
after the untraced ones. Human-readable lines and the environment record come
before it, and the full record of the run is written under .perfbench/results/.
Threading is left at the library defaults; the BLAS thread settings in force
are part of the environment record.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import envinfo
import workloads

SETUP_REPS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
STATE = workloads.ROOT / ".perfbench"


def build(pipeline, synth, w, work: Path, seed: int):
    """Set up SETUP_REPS times; returns (seconds per set-up, digest per set-up, corpus digest).

    The first set-up's files stay in work/setup0 as the stage's inputs.
    """
    times, digests = [], []
    for i in range(SETUP_REPS):
        root = work / f"setup{i}"
        start = time.perf_counter()
        workloads.build_inputs(pipeline, synth, w, root, seed)
        times.append(time.perf_counter() - start)
        digests.append(workloads.tree_digest(root))
        if i == 0:
            corpus_digest = workloads.tree_digest(root / "corpus")
        else:
            shutil.rmtree(root)
    return times, digests, corpus_digest


def run_stage_process(spec: dict, work: Path, deadline: float) -> dict:
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    here = Path(__file__).resolve().parent
    # stdout is kept for the result line, so the stage process writes to stderr
    proc = subprocess.Popen(
        [sys.executable, str(here / "stage.py"), str(spec_path)],
        stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("stage process ran out of time") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise RuntimeError(f"stage process exited with code {code}")
    return json.loads(Path(spec["result"]).read_text())


def checks(w, stage: dict, setup_digests: list, corpus_digest: str) -> dict:
    """Correctness of the outputs, all judged outside the timed region."""
    calls = stage["calls"]
    extra = [c for c in (stage.get("reference"), stage.get("traced")) if c]
    out = {
        "no_failed_utterances": all(c["failed"] == 0 and not c["error"] for c in calls + extra),
        "repeat_identical": len({c["digest"] for c in calls}) == 1,
        "setup_identical": len(set(setup_digests)) == 1,
    }
    if "reference" in stage:
        out["workers_identical"] = stage["reference"]["digest"] == calls[0]["digest"]
    if w.stage == "evaluate":
        eer, stoi = calls[0].get("eer_pct", math.nan), calls[0].get("stoi_mean", math.nan)
        out["eer_stoi_valid"] = math.isfinite(eer) and math.isfinite(stoi) and 0.0 < stoi <= 1.0
        out["eer_above_baseline"] = eer > stage["baseline_eer_pct"]
    traced = stage.get("traced")
    if traced:
        m = traced["metrics"]
        out["traced_identical"] = traced["digest"] == calls[0]["digest"]
        out["bypassed_layers_not_called"] = all(
            m[k] == 0 for k in m if k.endswith(".calls") and k.startswith(w.bypassed)
        )
        out["self_times_add_up"] = abs(traced["self_time_gap_s"]) <= 1e-6 * traced["wall_s"] + 1e-9
        out["traced_corpus_identical"] = traced["corpus_digest"] == corpus_digest
    return out


def end_to_end(stage: dict, setup_times: list) -> dict:
    walls = [c["wall_s"] for c in stage["calls"]]
    wall = statistics.median(walls)
    attempted = stage["attempted_per_call"] * len(walls)
    return {
        "wall_s": wall,
        "audio_s_per_s": stage["audio_s_per_call"] / wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": stage["peak_rss_mb"],
        "fail_ratio": sum(c["failed"] for c in stage["calls"]) / attempted,
    }


def per_layer(w, stage: dict) -> dict:
    traced = stage["traced"]
    calls = stage["calls"]
    # the traced call runs at one worker, so compare it with an untraced one-worker call
    base = statistics.median(c["wall_s"] for c in calls) if w.workers == 1 else stage["reference"]["wall_s"]
    metrics = dict(traced["metrics"])
    metrics["pipeline.cpu_util"] = sum(c["cpu_s"] for c in calls) / sum(c["wall_s"] * c["workers"] for c in calls)
    metrics["pipeline.failed"] = traced["failed"]
    metrics["trace_overhead_ratio"] = traced["wall_s"] / base
    return metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def report(w, trace: int, stage: dict, e2e: dict, setup_times: list, checked: dict, layers: dict, units: dict):
    name = w.name
    walls = [c["wall_s"] for c in stage["calls"]]
    q1, q3 = quartiles(walls)
    n_att = stage["attempted_per_call"] * len(walls)
    print(f"{name} env {json.dumps(stage['env'], sort_keys=True)}")
    print(f"{name} wall_s {e2e['wall_s']:.4f} s (median of {len(walls)} calls, quartiles {q1:.4f} .. {q3:.4f})")
    print(f"{name} audio_s_per_s {e2e['audio_s_per_s']:.3f} s/s")
    print(f"{name} setup_s {e2e['setup_s']:.4f} s (median of {len(setup_times)} set-ups)")
    print(f"{name} peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"{name} fail_ratio {e2e['fail_ratio']:g} ratio ({n_att} utterances attempted)")
    if w.stage == "evaluate":
        print(f"{name} eer_pct {stage['calls'][0].get('eer_pct')} % (preset none on the corpus: {stage['baseline_eer_pct']} %)")
        print(f"{name} stoi_mean {stage['calls'][0].get('stoi_mean')} ratio")
    if trace:
        for key, value in layers.items():
            print(f"{name} {key} {value:.6g} {units.get(key, '')}")
        unwrapped = stage["traced"]["unwrapped"]
        if unwrapped:
            print(f"{name} not traced, function missing: {', '.join(unwrapped)}")
    for key, ok in checked.items():
        print(f"{name} check {key}: {'ok' if ok else 'FAILED'}")


def run_one(bench: dict, w, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    pipeline, synth = workloads.load_voxmask()
    tag = f"{w.name}-s{seed}-t{trace}"
    work = STATE / "work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_times, setup_digests, corpus_digest = build(pipeline, synth, w, work, seed)
        spec = {
            "workload": w.name, "inputs": str(work / "setup0"), "work": str(work / "stage"),
            "seconds": seconds, "seed": seed, "trace": trace, "result": str(work / "stage.json"),
        }
        stage = run_stage_process(spec, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stage["env"].update(
        git_sha=envinfo.git_sha(workloads.ROOT), seed=seed, workload=w.name, corpus=w.corpus,
        utterances_per_call=stage["attempted_per_call"], audio_s_per_call=stage["audio_s_per_call"],
    )
    checked = checks(w, stage, setup_digests, corpus_digest)
    e2e = end_to_end(stage, setup_times)
    layers = per_layer(w, stage) if trace else {}
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    values = layers if trace else e2e
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    report(w, trace, stage, e2e, setup_times, checked, layers, units)

    result = {
        "correct": all(checked.values()),
        "attempted": stage["attempted_per_call"] * len(stage["calls"]),
        "failed": sum(c["failed"] for c in stage["calls"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    results_dir = STATE / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_s_each": setup_times, "checks": checked, "end_to_end": e2e, "per_layer": layers,
        "result": result, "stage": stage,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record))
    return result


def main(argv=None) -> int:
    bench_path = workloads.ROOT / "BENCHMARK.json"
    bench = json.loads(bench_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; default both")
    args = parser.parse_args(argv)
    if not (workloads.SRC / "voxmask" / "__init__.py").is_file():
        print(f"no voxmask sources under {workloads.SRC}; run from the root of a voxmask checkout",
              file=sys.stderr)
        return 2

    # temporary files, the process pools' included, stay inside the checkout
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else [0, 1]
    results = {
        (name, trace): run_one(bench, workloads.WORKLOADS[name], args.seed, args.seconds, trace)
        for name in names
        for trace in traces
    }
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for (name, _trace), r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
