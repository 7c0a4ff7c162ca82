"""The repository benchmark: one command, three workloads, checked answers.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pair-serve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke      # every workload at a tiny size

One run generates its inputs from ``--seed`` (an R-MAT graph written to an
edge-list file, the request stream, mutation logs), times set-up in fresh
processes, drives the workload in one more process, audits a seeded sample
of the answers and prints, as its last line, one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs half the seconds untraced (the base
of ``trace.overhead``) and half traced, and reports the per-layer metrics.
The line before the result holds the environment fingerprint and every
metric's sample count.
See ``perfbench/NOTES.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORKLOADS = ("pair-serve", "topk-batch", "ingest-serve")
#: Longest any one process of a run may take before the run fails.
PROCESS_TIMEOUT_S = 150


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _worker(mode: str, spec: dict, workdir: Path, tag: str) -> dict:
    spec_path = workdir / f"spec-{tag}.json"
    out_path = workdir / f"out-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    subprocess.run(
        [sys.executable, str(BENCH / "bench_worker.py"), mode, str(spec_path), str(out_path)],
        check=True,
        cwd=ROOT,
        env=_environment(),
        timeout=PROCESS_TIMEOUT_S,
    )
    return json.loads(out_path.read_text(encoding="utf-8"))


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def _fingerprint(spec: dict) -> dict:
    import numpy as np

    from repro.core.kernels import default_kernel_name, numba_available

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel": default_kernel_name(),
        "numba": numba_available(),
        "graph_vertices": spec["graph_vertices"],
        "graph_arcs": spec["graph_arcs"],
        "workload_seed": spec["seed"],
        "service_seed": spec["service_seed"],
    }


def end_to_end(run: dict, setups: list) -> dict:
    latencies = run["latencies_ms"]
    mutations = run["mutation_ms"]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "throughput_qps": (run["completed"] / run["window_s"], run["completed"]),
        "latency_p50_ms": (_percentile(latencies, 50), len(latencies)),
        "latency_p95_ms": (_percentile(latencies, 95), len(latencies)),
        "mutation_p50_ms": (statistics.median(mutations), len(mutations)),
        "peak_rss_mb": (run["peak_rss_mb"], 1),
    }


def per_layer(run: dict, untraced: dict) -> dict:
    spans = run["spans"]
    layers = run["layers"]
    lookups = layers["bundle_store.lookups"]
    total = layers["topk_index.candidates_total"]
    batches = layers["service.batches"]

    def mean(pair) -> float:
        return pair[1] / pair[0] if pair[0] else 0.0

    late = run["generator_late_ms"]
    metrics = dict(spans)
    metrics.update(
        {
            "bundle_store.hit_rate": layers["bundle_store.hits"] / lookups if lookups else 0.0,
            "bundle_store.bytes": layers["bundle_store.bytes"],
            "bundle_store.evictions": layers["bundle_store.evictions"],
            "bundle_store.invalidations": layers["bundle_store.invalidations"],
            "topk_index.prune_ratio": (
                1.0 - layers["topk_index.candidates_rescored"] / total if total else 0.0
            ),
            "topk_index.bytes": layers["topk_index.bytes"],
            "service.batches": batches,
            "service.batch_size_mean": layers["service.queries"] / batches if batches else 0.0,
            "service.dispatch_wait_ms": mean(layers["service.dispatch_wait"]),
            "service.read_wait_ms": mean(layers["service.read_wait"]),
            "trace.overhead": (run["completed"] / run["window_s"])
            / (untraced["completed"] / untraced["window_s"]),
            "bench.generator_late_ms": statistics.mean(late) if late else 0.0,
        }
    )
    return metrics


def run_once(workload: str, seed: int, seconds: float, trace: bool, scale, workdir: Path):
    """Generate, set up, run, audit; returns (values, failed, attempted, detail)."""
    from bench_audit import audit
    from bench_inputs import SERVICE_SEED, generate

    spec = generate(workload, seed, seconds, scale, workdir)
    spec["service_seed"] = SERVICE_SEED
    inputs = json.loads(Path(spec["inputs"]).read_text(encoding="utf-8"))
    setups = []
    failed = 0
    if trace:
        # Half the seconds untraced (the base of trace.overhead), half traced.
        half = dict(spec, seconds=seconds / 2, min_jobs=1)
        untraced = _worker("run", dict(half, trace=False), workdir, "run")
        run = _worker("run", dict(half, trace=True), workdir, "traced")
        if run.get("responses") != untraced.get("responses"):
            failed += len(run["responses"])  # tracing changed a top-k answer
    else:
        repeats = scale.topk_setup_repeats if workload == "topk-batch" else scale.setup_repeats
        for repeat in range(repeats):
            outcome = _worker("setup", spec, workdir, f"setup{repeat}")
            setups.append(outcome["setup_s"])
            failed += 0 if outcome["ok"] else 1
        run = untraced = _worker("run", dict(spec, trace=False, min_jobs=2), workdir, "run")
    checked = audit(spec, inputs, run)
    failed += run["errors"] + checked["mismatches"]
    attempted = run["attempted"] + checked["checked"] + len(setups)
    if trace:
        values = {name: (value, None) for name, value in per_layer(run, untraced).items()}
    else:
        values = end_to_end(run, setups)
    detail = {
        "workload": workload,
        "trace": trace,
        "fingerprint": _fingerprint(spec),
        "samples": {name: count for name, (_, count) in values.items() if count is not None},
        "audit": checked,
        "errors": run["errors"],
        "jobs": run.get("jobs"),
        "request_pool_wrapped": run.get("wrapped", False),
    }
    return values, failed, attempted, detail


def _declared() -> dict:
    """Metric name -> unit, per kind, exactly as ``BENCHMARK.json`` lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="run every workload, untraced and traced, at a tiny size",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    sys.path[:0] = [str(SRC), str(BENCH)]
    from bench_inputs import FULL, SMOKE

    declared = _declared()
    if args.smoke:
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
        scale, seconds = SMOKE, min(args.seconds, 1.0)
    else:
        plan = [(args.workload, bool(args.trace))]
        scale, seconds = FULL, args.seconds
    work_root = ROOT / ".perfbench_work"
    ok = True
    for workload, trace in plan:
        workdir = work_root / f"{workload}-{args.seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            values, failed, attempted, detail = run_once(
                workload, args.seed, seconds, trace, scale, workdir
            )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        units = declared["per_layer" if trace else "end_to_end"]
        missing = sorted(set(units) - set(values))
        if missing:
            raise RuntimeError(f"run produced no value for {missing}")
        metrics = {
            name: {"value": values[name][0], "unit": unit} for name, unit in units.items()
        }
        print(json.dumps(detail, sort_keys=True))
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": metrics,
                }
            )
        )
        ok = ok and failed == 0
    try:
        work_root.rmdir()
    except OSError:
        pass
    return 0 if ok or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
