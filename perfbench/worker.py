"""One benchmark run of one workload, in a fresh interpreter.

Modes:
  timed   set up the inputs and run one untraced pipeline pass, again
          and again (at least MIN_PASSES times) until --seconds is spent;
          every stage and set-up is timed once per pass, against the
          reference kernel (hostspeed.py).  The first pass is checked.
  single  one set-up and one untraced, checked pass: the base for the
          tracing overhead.
  traced  one set-up and one checked pass with the library functions
          wrapped; the per-layer metrics come from its spans.

Prints one JSON object as the last line of standard output.  run.py starts
this file with BLAS threads pinned and typespace on the path.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import warnings

import numpy as np

import inputs
import pipeline
from hostspeed import REFERENCE_NOMINAL_S, HostClock
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")
# Set-up runs SETUP_REPEATS times before the first pass and once more
# before every pass, so its samples spread over the whole run.
SETUP_REPEATS = 3
MIN_PASSES = 3


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _setup(workload: str, seed: int, workdir: str, clock: HostClock, prev=None):
    """Generate the inputs into a fresh directory, removing the previous
    set-up's first.  Returns (inputs, wall seconds, reference seconds)."""
    if prev is not None:
        shutil.rmtree(os.path.dirname(prev.files["corpus"]))
    d = tempfile.mkdtemp(prefix="inputs", dir=workdir)
    clock.reset()
    return clock.measure(lambda: inputs.GENERATORS[workload](d, seed))


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(workload, seed, workdir, seconds):
    """Set-ups and untraced passes until `seconds` is spent; the first pass
    is checked.  Returns (the last inputs, the passes, the set-up times and
    the reference kernel times around them)."""
    clock = HostClock()
    setup_s: list[float] = []
    setup_ref: list[float] = []
    passes = []
    inp = None
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        # Collect the last pass's cyclic garbage now, not at a moment that
        # depends on the host's speed, so peak RSS repeats from run to run.
        gc.collect()
        for _ in range(1 if passes else SETUP_REPEATS):
            inp, wall, ref = _setup(workload, seed, workdir, clock, inp)
            setup_s.append(wall)
            setup_ref.append(ref)
        first = not passes
        model_dir = tempfile.mkdtemp(prefix="models", dir=workdir)
        passes.append(pipeline.run_pass(inp, Tracer(), clock, model_dir, check=first, want_init_loss=first, detail=False))
        shutil.rmtree(model_dir)
        longest = max(longest, time.perf_counter() - t0)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + longest > seconds:
            return inp, passes, setup_s, setup_ref


def _layer_metrics(tracer: Tracer, res) -> tuple[dict, list]:
    """Per-layer metrics from one traced pass.  A metric whose span is
    absent is left out, never reported as zero."""
    summ = tracer.summary()
    absent = set(tracer.absent)
    c = res.counts
    out: dict = {}

    def total(name):
        return summ.get(name, {}).get("total_s", 0.0)

    def put(metric, value, *needs):
        if not any(n in absent for n in needs):
            out[metric] = value

    ingest_s = res.samples["ingest"]
    for step in ("load_corpus", "build_vocab", "count_word_word", "count_entity_word", "load_kb"):
        out[f"ingest.{step}_s"] = total(f"ingest.{step}")
    out["ingest.tokens"] = c["tokens"]
    out["ingest.tokens_per_s"] = c["tokens"] / ingest_s
    out["ingest.text_entries"] = c["text_entries"]
    out["ingest.dropped_rows"] = c["dropped_rows"]

    init_names = ("optimize.init_parameters", "optimize.adagrad_state", "optimize.prepare_text_entries")
    put("optimize.init_s", sum(total(n) for n in init_names), *init_names)
    text_s = total("optimize.text_pass")
    put("optimize.text_pass_s", text_s, "optimize.text_pass")
    if text_s > 0:
        put("optimize.text_entries_per_s", c["text_entries"] * c["epochs"] / text_s, "optimize.text_pass")
    put("optimize.type_pass_s", summ.get("optimize.type_pass", {}).get("self_s", 0.0), "optimize.type_pass")
    put("optimize.rel_dist_pass_s", total("optimize.rel_dist_pass"), "optimize.rel_dist_pass")
    put("optimize.rel_group_pass_s", summ.get("optimize.rel_group_pass", {}).get("self_s", 0.0), "optimize.rel_group_pass")
    put("optimize.prox_s", total("optimize.prox_nuclear"), "optimize.prox_nuclear")
    put("optimize.prox_calls", summ.get("optimize.prox_nuclear", {}).get("count", 0), "optimize.prox_nuclear")
    out["optimize.simplex_rows_per_epoch"] = c["simplex_rows_per_epoch"]
    out["optimize.other_s"] = res.samples["train"] - tracer.children_time("train")

    put("objective.total_objective_s", total("objective.total_objective"), "objective.total_objective")
    put("objective.svd_calls", summ.get("objective.nuclear_norm", {}).get("count", 0), "objective.nuclear_norm")
    put("subspace.rank_trace_s", total("subspace.effective_rank"), "subspace.effective_rank")
    out["subspace.type_rank_mean"] = c["type_rank_mean"]
    out["subspace.group_rank_mean"] = c["group_rank_mean"]
    put("params.clone_s", total("params.clone_params"), "params.clone_params")
    out["params.param_mb"] = c["param_mb"]
    out["params.model_file_mb"] = c["model_file_mb"]

    for task in pipeline.EVAL_TASKS:
        q = c[f"{task}_queries"]
        out[f"evalharness.{task}_queries"] = q
        out[f"evalharness.{task}_skipped"] = c[f"{task}_skipped"]
        out[f"evalharness.{task}_ms_per_query"] = 1000.0 * total(f"eval_{task}") / max(q, 1)
    for name, value in res.eval_values.items():
        out[f"evalharness.{name}"] = value

    checks = []
    if "optimize.prox_nuclear" not in absent:
        checks.append(("traced_prox_calls_match_report", out["optimize.prox_calls"] == c["prox_calls_report"]))
    return out, checks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("timed", "single", "traced"))
    args = ap.parse_args(argv)
    # The library reports skips and drops through warnings; the benchmark
    # counts them from the results instead.
    warnings.simplefilter("ignore")

    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=WORK_DIR)
    try:
        out = {"workload": args.workload, "seed": args.seed, "mode": args.mode, "environment": _environment()}
        if args.mode == "timed":
            inp, passes, out["setup_s"], out["setup_ref_s"] = run_timed(args.workload, args.seed, workdir, args.seconds)
            out["reference_nominal_s"] = REFERENCE_NOMINAL_S
        else:
            clock = HostClock()
            inp, wall, _ = _setup(args.workload, args.seed, workdir, clock)
            out["setup_s"] = [wall]
            tracer = Tracer()
            if args.mode == "traced":
                tracer.wrap_all()
            try:
                res = pipeline.run_pass(
                    inp, tracer, clock, workdir, check=True,
                    want_init_loss=args.mode == "single", detail=args.mode == "traced",
                )
            finally:
                tracer.unwrap_all()
            passes = [res]
            if args.mode == "traced":
                layers, extra_checks = _layer_metrics(tracer, res)
                res.checks.update(extra_checks)
                out["layers"] = layers
                out["absent"] = tracer.absent
                os.makedirs(TRACE_DIR, exist_ok=True)
                out["spans_file"] = os.path.join(TRACE_DIR, f"spans_{args.workload}_seed{args.seed}.json")
                tracer.dump(out["spans_file"])
        out["properties"] = inp.properties
        out["passes"] = [
            {"samples": p.samples, "refs": p.refs, "final_loss": p.final_loss, "eval_values": p.eval_values, "checks": p.checks}
            for p in passes
        ]
        out["counts"] = passes[0].counts
        out["eval_values"] = passes[0].eval_values
        out["peak_rss_mb"] = _peak_rss_mib()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
