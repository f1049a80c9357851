"""typespace benchmark: seeded workloads through the real pipeline.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

--workload is one of the workloads in BENCHMARK.json, or `all`.  With
--trace 0 the run is untraced and reports the end-to-end metrics; with
--trace 1 it runs one untraced pass and one traced pass, each in its own
process, and reports the per-layer metrics plus the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  The exit code is
non-zero when a correctness check fails or a stage raises.

Every workload run happens in a fresh interpreter (worker.py) with BLAS and
OpenMP pinned to one thread, so peak RSS and timings are per workload.

End-to-end timings are medians over the run of host-normalized samples.
Every pass of a timed run times each stage once (the five eval tasks as one
stage), brackets it with a fixed reference kernel, and scales its wall time
by REFERENCE_NOMINAL_S over the kernel's time around it (hostspeed.py).  On
a shared host the speed of a core swings by 1.5x within a run and drifts by
more between runs; two codes timed within a fraction of a second of each
other keep their ratio to about 1%, so the scaled samples are steady where
raw wall times are not.  pipeline_s is the median of per-pass sums of
scaled samples.  The human-readable output also prints the raw wall-time
medians.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKER_TIMEOUT_S = 170
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _spawn(mode, workload, seed, seconds, timeout) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} {mode} run exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} {mode} run failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def _checks(runs) -> dict[str, bool]:
    out: dict[str, bool] = {}
    for run in runs:
        for p in run["passes"]:
            for name, ok in p["checks"].items():
                out[name] = out.get(name, True) and ok
        repeats = all(
            p["final_loss"] == run["passes"][0]["final_loss"] and p["eval_values"] == run["passes"][0]["eval_values"]
            for p in run["passes"]
        )
        out["outputs_repeat_exactly"] = out.get("outputs_repeat_exactly", True) and repeats
    return out


def _tally(runs, checks) -> tuple[int, int]:
    """(attempted, failed): stage runs, eval queries and checks; failures
    are eval queries skipped plus checks failed (a stage that raises fails
    the whole run instead)."""
    attempted = failed = 0
    for run in runs:
        passes = len(run["passes"])
        attempted += sum(len(p["samples"]) for p in run["passes"])
        for key, value in run["counts"].items():
            if key.endswith("_queries"):
                attempted += value * passes
            elif key.endswith("_skipped"):
                failed += value * passes
    attempted += len(checks)
    failed += sum(1 for ok in checks.values() if not ok)
    return attempted, failed


def _stage_samples(run) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Per end-to-end timing, its host-normalized samples over the run, and
    the raw wall-time samples."""
    nominal = run["reference_nominal_s"]
    norm = [{k: v * nominal / p["refs"][k] for k, v in p["samples"].items()} for p in run["passes"]]
    raw = [p["samples"] for p in run["passes"]]
    out: tuple[dict, dict] = ({}, {})
    for d, passes in zip(out, (norm, raw)):
        for stage in ("ingest", "train", "save", "load", "eval"):
            d[f"{stage}_s"] = [p[stage] for p in passes]
        d["pipeline_s"] = [sum(p.values()) for p in passes]
    out[0]["setup_s"] = [w * nominal / r for w, r in zip(run["setup_s"], run["setup_ref_s"])]
    out[1]["setup_s"] = run["setup_s"]
    return out


def end_to_end(run) -> tuple[dict[str, float], dict[str, list[float]], dict[str, list[float]]]:
    """Metric values (timings: the median normalized sample), and the
    normalized and raw timing samples."""
    norm, raw = _stage_samples(run)
    out = {name: statistics.median(values) for name, values in norm.items()}
    out["peak_rss_mb"] = run["peak_rss_mb"]
    out["final_loss"] = run["passes"][0]["final_loss"]
    return out, norm, raw


def per_layer(untraced, traced) -> dict[str, float]:
    out = dict(traced["layers"])
    # Each train sample is scaled by the reference kernel around it, so host
    # drift between the two runs cancels (see hostspeed.py).
    scaled = [p["samples"]["train"] / p["refs"]["train"] for p in (traced["passes"][0], untraced["passes"][0])]
    out["trace.train_overhead"] = scaled[0] / scaled[1]
    return out


def run_workload(spec, workload, seed, seconds, trace) -> int:
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m for m in spec[section]}
    if trace:
        untraced = _spawn("single", workload, seed, seconds, WORKER_TIMEOUT_S / 2)
        traced = _spawn("traced", workload, seed, seconds, WORKER_TIMEOUT_S / 2)
        runs = [untraced, traced]
        values = per_layer(untraced, traced)
    else:
        runs = [_spawn("timed", workload, seed, seconds, WORKER_TIMEOUT_S)]
        values, norm, raw = end_to_end(runs[0])
    checks = _checks(runs)
    attempted, failed = _tally(runs, checks)

    env = runs[0]["environment"]
    print(f"# workload={workload} seed={seed} trace={trace} passes={sum(len(r['passes']) for r in runs)}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("# inputs: " + " ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}" for k, v in runs[0]["properties"].items()))
    absent = runs[-1].get("absent", [])
    for name, m in declared.items():
        if name in values:
            print(f"{name:<44} {values[name]:>14.6g} {m['unit']:<8} ({m['better']} is better)")
        else:
            print(f"{name:<44} {'absent':>14}")
    if not trace:
        print(f"# timings above are medians of n samples in reference-host seconds (hostspeed.py); raw wall medians:")
        for name, v in raw.items():
            q = statistics.quantiles(norm[name], n=4) if len(v) > 1 else [v[0]] * 3
            print(f"#   {name:<12} n={len(v):<3} raw {statistics.median(v):.6g} s; normalized q1 {q[0]:.6g} q3 {q[2]:.6g}")
    if trace:
        traced_train = runs[1]["passes"][0]["samples"]["train"]
        share = values["optimize.other_s"] / traced_train
        print(f"# unspanned share of traced train_s (optimize.other_s): {share:.2%} of {traced_train:.3f} s")
        print("# optimize.prox_calls is a span count; optimize.simplex_rows_per_epoch is computed from the inputs")
        if absent:
            print("# absent spans: " + ", ".join(absent))
        print(f"# spans written to {os.path.relpath(runs[1]['spans_file'], ROOT)}")
    print(f"{'failed_ops_frac':<44} {failed / attempted:>14.6g} ratio    ({failed} of {attempted} attempted)")
    for name, ok in checks.items():
        print(f"check {name:<50} {'PASS' if ok else 'FAIL'}")
    correct = all(checks.values())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": m["unit"]} for name, m in declared.items() if name in values},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "typespace")):
        print(f"error: typespace sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(names)} or all", file=sys.stderr)
        return 2
    status = 0
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            status |= run_workload(spec, workload, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
