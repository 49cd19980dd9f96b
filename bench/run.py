"""Benchmark of skinlab: one workload, timed end to end or traced per module.

    python3 bench/run.py --workload {ensemble,superop,chain,figures}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the repository root is this file's parent's parent.  The
run times cold starts (``setup_s``), then starts one measured process that
runs whole workload passes through ``skinlab.cli.run_experiment`` for about
S seconds (at least two passes), then checks every pass's outputs here, in
this process.  The last line of standard output is one JSON object with
``correct``, ``attempted`` (passes), ``failed`` (passes that raised or failed
a check) and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = ROOT / ".bench_results"
MIN_PASSES = 2
SETUP_PROBES = (3, 2)    # cold starts before and after the measured process
DEADLINE_S = 170.0


def child_env(nproc: int) -> dict:
    """Environment of every child: BLAS pools at nproc threads, set explicitly."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def setup_times(config: Path, env: dict, count: int) -> list[float]:
    """Seconds from starting a fresh interpreter to skinlab imported, config loaded, LAPACK up."""
    times = []
    for _ in range(count):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, str(BENCH / "measure.py"), "--probe", str(ROOT),
                              str(config)], env=env, capture_output=True, text=True, timeout=60,
                             check=True)
        times.append(float(out.stdout.split()[-1]) - t0)
    return times


def check_passes(workload, passes: list, workdir: Path) -> tuple[int, int]:
    """Number of failed passes, and how many of them failed a check."""
    from checks import CheckError, Checker
    checker = Checker()
    failed = wrong = 0
    for record in passes:
        if record["error"] is not None:
            failed += 1
            continue
        pass_dir = workdir / f"pass-{record['index']}"
        try:
            for r in range(workload.rounds):
                for exp in workload.experiments:
                    label = f"r{r}-{exp.label}" if workload.rounds > 1 else exp.label
                    checker.check(exp.config, pass_dir / label, exp.expect)
        except (CheckError, OSError, KeyError, ValueError, IndexError) as exc:
            print(f"pass {record['index']}: check failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failed += 1
            wrong += 1
    return failed, wrong


def end_to_end(passes: list, setup: list[float], peak_rss_mb: float) -> dict:
    return {
        "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
        "cpu_s": {"value": statistics.median(p["cpu_s"] for p in passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(passes: list) -> dict:
    """Median over traced passes of each layer metric, and the traced-minus-untraced wall time."""
    from tracing import layer_units
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics = {name: {"value": statistics.median(p["layers"][name] for p in traced), "unit": unit}
               for name, unit in sorted(layer_units().items())}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main() -> int:
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "skinlab" / "__init__.py").is_file():
        print(f"error: no skinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    seed = args.seed % 2**63
    workload = WORKLOADS[args.workload](seed, ROOT, nproc)

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{seed}-{os.getpid()}"
    try:
        (workdir / "configs").mkdir(parents=True)
        for exp in workload.experiments:
            if exp.shipped is None:
                exp.config_path(ROOT, workdir).write_text(json.dumps(exp.config))
        config_paths = [(e.label, str(e.config_path(ROOT, workdir))) for e in workload.experiments]

        probe_config = Path(config_paths[0][1])
        setup = [] if args.trace else setup_times(probe_config, env, SETUP_PROBES[0])
        plan = {"root": str(ROOT), "workdir": str(workdir), "workload": workload.name,
                "seed": seed, "experiments": config_paths, "rounds": workload.rounds,
                "seconds": args.seconds, "min_passes": MIN_PASSES, "trace": bool(args.trace),
                "result": str(workdir / "result.json"),
                "trace_file": str(RESULTS / f"trace-{workload.name}-seed{seed}.json")}
        (workdir / "plan.json").write_text(json.dumps(plan))
        subprocess.run([sys.executable, str(BENCH / "measure.py"), str(workdir / "plan.json")],
                       env=env, stdout=sys.stderr, check=True,
                       timeout=DEADLINE_S - (time.monotonic() - started))
        measured = json.loads((workdir / "result.json").read_text())
        if not args.trace:
            setup += setup_times(probe_config, env, SETUP_PROBES[1])
        passes = measured["passes"]
        failed, wrong = check_passes(workload, passes, workdir)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        stderr = getattr(exc, "stderr", None)
        if stderr:
            print(stderr, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = per_layer(passes) if args.trace else end_to_end(passes, setup,
                                                              measured["peak_rss_mb"])
    result = {"correct": wrong == 0, "attempted": len(passes), "failed": failed,
              "metrics": metrics}
    print("passes wall_s " + " ".join(f"{p['wall_s']:.3f}" for p in passes)
          + " | setup_s " + " ".join(f"{t:.3f}" for t in setup), file=sys.stderr)
    (RESULTS / f"result-{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
