"""The measured process: runs workload passes through skinlab.cli and times them.

    python3 bench/measure.py PLAN.json            run passes as the plan says
    python3 bench/measure.py --probe ROOT CONFIG  one cold start, prints the
                                                  monotonic clock when ready

``bench/run.py`` writes the plan, starts this process with the BLAS thread
count set, and checks the outputs afterwards, so that neither the checks nor
the set-up probes run inside the measured process.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HARD_LIMIT_S = 120.0    # never start a pass that would end past this


def import_skinlab(root: Path):
    """Import skinlab from ROOT/src and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import skinlab.cli
    if not Path(skinlab.__file__).resolve().is_relative_to(src):
        raise ImportError(f"skinlab imported from {skinlab.__file__}, not from {src}")
    return skinlab.cli


def first_lapack_call() -> None:
    import numpy as np
    np.linalg.eigvals(np.eye(16) + np.diag(np.arange(15.0), 1))


def probe(root: Path, config: Path) -> None:
    cli = import_skinlab(root)
    cli.load_config(config)
    first_lapack_call()
    print(repr(time.monotonic()))


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(cli, plan: dict, outdir: Path) -> None:
    for r in range(plan["rounds"]):
        for label, config in plan["experiments"]:
            cfg = cli.load_config(config)
            cfg.output_dir = str(outdir / (f"r{r}-{label}" if plan["rounds"] > 1 else label))
            cli.run_experiment(cfg)


def main(plan_path: Path) -> None:
    plan = json.loads(plan_path.read_text())
    workdir = Path(plan["workdir"])
    cli = import_skinlab(Path(plan["root"]))
    for _, config in plan["experiments"]:
        cli.load_config(config)
    first_lapack_call()

    tracer = None
    if plan["trace"]:
        from tracing import Tracer
        tracer = Tracer()

    passes, start = [], time.perf_counter()
    while True:
        index = len(passes)
        traced = tracer is not None and index % 2 == 1   # alternate untraced, traced
        if traced:
            tracer.begin_pass(index)
            tracer.install()
        record = {"index": index, "traced": traced, "error": None}
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            run_pass(cli, plan, workdir / f"pass-{index}")
        except Exception:   # a failing pass is counted, and the run goes on
            record["error"] = traceback.format_exc()
            print(record["error"], file=sys.stderr)
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = cpu_seconds() - cpu0
        if traced:
            tracer.uninstall()
            record["layers"] = tracer.pass_metrics(index)
            record["linalg_calls"] = dict(tracer.linalg_calls)
        passes.append(record)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= plan["min_passes"] and elapsed + typical > plan["seconds"]:
            break
        if elapsed + typical > HARD_LIMIT_S:
            break

    result = {"passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    Path(plan["result"]).write_text(json.dumps(result))
    if tracer is not None:
        Path(plan["trace_file"]).write_text(json.dumps(
            {"workload": plan["workload"], "seed": plan["seed"], "passes": passes,
             "spans": tracer.spans}))


if __name__ == "__main__":
    if sys.argv[1] == "--probe":
        probe(Path(sys.argv[2]), Path(sys.argv[3]))
    else:
        main(Path(sys.argv[1]))
