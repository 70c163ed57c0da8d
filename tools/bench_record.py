"""Write a committed benchmark record from perfbench's result files.

Usage, from the root of a checkout, after ``python3 perfbench/run.py`` has
run every workload untraced and traced:

    python3 tools/bench_record.py [--seed 1234] [--tier1 | --tier1-seconds S --tier1-passed N] [--traced-only]

Reads .perfbench/results/<workload>-s<seed>-t0.json and -t1.json for every
workload named in BENCHMARK.json and writes records/BENCH_<short-sha>.json:
per workload, the median and quartiles of each end-to-end metric over the
untraced calls, the per-layer metrics of the traced run and every check;
once, the environment record the runs share (BLAS thread counts and thread
variables included), the git SHA and source digest the results name, and
the Tier-1 wall time and pass count when given, else null. With --tier1
it runs the Tier-1 suite itself, in a subprocess from the root of the
checkout (``PYTHONPATH=src python -m pytest -q --continue-on-collection-errors``,
as ROADMAP.md gives it), and records the subprocess's wall time and the pass
count from pytest's summary line. With
--traced-only it reads the -t1 files alone, for a run made with --trace 1,
and takes the end-to-end figures from the untraced calls of those runs.

It refuses to write when a result is not correct, when a file is missing,
when the files name more than one source digest or git SHA, which is how
stale results from another tree show, or when the Tier-1 run it made failed
or ended without a summary line. It reads perfbench's output files only,
and changes nothing under perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD_FORMAT = 1
TIER1_COMMAND = (sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors")


class RecordError(Exception):
    """The result files cannot make one trustworthy record."""


def spread(values: list) -> dict:
    """Median and quartiles, with the quartile method perfbench prints."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(result: dict) -> dict:
    """Each end-to-end metric over the untraced calls of one run; CPU seconds per call too."""
    stage = result["stage"]
    calls = stage["calls"]
    return {
        "wall_s": spread([c["wall_s"] for c in calls]),
        "audio_s_per_s": spread([stage["audio_s_per_call"] / c["wall_s"] for c in calls]),
        "setup_s": spread(result["setup_s_each"]),
        "peak_rss_mb": stage["peak_rss_mb"],
        "cpu_s": spread([c["cpu_s"] for c in calls]),
    }


def load_results(results: Path, workloads: list, seed: int, traces: tuple) -> dict:
    """(workload, trace) -> result file contents; RecordError on anything missing or wrong."""
    out = {}
    for name in workloads:
        for trace in traces:
            path = results / f"{name}-s{seed}-t{trace}.json"
            if not path.is_file():
                raise RecordError(f"missing {path}; run python3 perfbench/run.py first")
            data = json.loads(path.read_text())
            if data["result"]["correct"] is not True:
                failed = sorted(k for k, ok in data["checks"].items() if not ok)
                raise RecordError(f"{path.name} is not correct: failed checks {failed}")
            out[name, trace] = data
    for key in ("voxmask_source_sha256", "git_sha"):
        seen = {data["stage"]["env"].get(key) for data in out.values()}
        if len(seen) != 1:
            raise RecordError(f"the result files name {len(seen)} values of {key}: {sorted(map(str, seen))}")
    return out


def run_tier1(root: Path) -> tuple:
    """(wall seconds, tests passed) of one Tier-1 run in a subprocess, with root/src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(TIER1_COMMAND, cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = [line for line in proc.stdout.splitlines() if re.search(r" in [0-9.]+s\b", line)]
    if not summary:
        raise RecordError(f"the Tier-1 run (exit {proc.returncode}) printed no pytest summary line")
    counts = {word.rstrip("s"): int(n) for n, word in re.findall(r"(\d+) ([a-z]+)", summary[-1])}
    if proc.returncode != 0 or counts.get("failed") or counts.get("error"):
        raise RecordError(f"the Tier-1 run failed (exit {proc.returncode}): {summary[-1].strip(' =')}")
    return wall, counts.get("passed", 0)


def build_record(results: dict, workloads: list, seed: int, tier1_seconds, tier1_passed) -> dict:
    untraced = 0 if (workloads[0], 0) in results else 1
    envs = [data["stage"]["env"] for data in results.values()]
    # keys that differ between workloads (name, corpus, audio per call) stay with the workload
    shared_env = {k: v for k, v in envs[0].items() if all(e.get(k) == v for e in envs)}
    return {
        "format": RECORD_FORMAT,
        "git_sha": shared_env["git_sha"],
        "source_sha256": shared_env["voxmask_source_sha256"],
        "seed": seed,
        "end_to_end_from_trace": untraced,
        "env": shared_env,
        "tier1": {"wall_s": tier1_seconds, "passed": tier1_passed},
        "workloads": {
            name: {
                "seconds": results[name, 1]["seconds"],
                "end_to_end": end_to_end(results[name, untraced]),
                "per_layer": results[name, 1]["per_layer"],
                "checks": {f"t{trace}": data["checks"] for (w, trace), data in results.items() if w == name},
            }
            for name in workloads
        },
    }


def record_name(record: dict) -> str:
    sha = record["git_sha"]
    return f"BENCH_{sha[:7]}.json" if sha else f"BENCH_src-{record['source_sha256'][:12]}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--results", type=Path, default=ROOT / ".perfbench" / "results")
    parser.add_argument("--out", type=Path, default=ROOT / "records")
    tier1 = parser.add_mutually_exclusive_group()
    tier1.add_argument("--tier1", action="store_true", help="run the Tier-1 suite and record its time and pass count")
    tier1.add_argument("--tier1-seconds", type=float, default=None)
    parser.add_argument("--tier1-passed", type=int, default=None)
    parser.add_argument("--traced-only", action="store_true", help="read the --trace 1 results alone")
    args = parser.parse_args(argv)
    if args.tier1 and args.tier1_passed is not None:
        parser.error("--tier1 measures the pass count itself; drop --tier1-passed")

    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    try:
        results = load_results(args.results, workloads, args.seed, (1,) if args.traced_only else (0, 1))
        if args.tier1:
            args.tier1_seconds, args.tier1_passed = run_tier1(ROOT)
    except RecordError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    record = build_record(results, workloads, args.seed, args.tier1_seconds, args.tier1_passed)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / record_name(record)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
