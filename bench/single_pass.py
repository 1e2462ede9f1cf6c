"""One pass of one workload in a fresh, single-threaded process.

    python3 bench/single_pass.py --workload NAME --seed N [--trace] [--tiny] [--setup-only]

Set-up (importing binposet and generating the inputs) is timed from the
moment the parent started this process (``--spawned-at``, a
``time.monotonic()`` reading) to the first task.  Then every task of the
workload runs once, in order, each checked against its reference.  The
last line of stdout is a JSON summary.

Times are reported scaled to a fixed host pace (see pace.py), and raw
under ``raw``.  Untraced passes also sample the pace from an interval
timer while a task runs; traced passes only before each task, so that no
sample falls inside a span.  With ``--trace`` the library's public
functions are wrapped (see tracing.py), the spans are written to
``bench/out/<workload>.spans.json`` and the per-layer metrics are added
to the summary.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PACE_SAMPLES = 5

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
import workloads  # noqa: E402
from pace import Pacer  # noqa: E402


def import_library():
    """binposet from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import binposet
        import binposet.cli
    except ImportError as e:
        raise SystemExit(f"cannot import binposet from {src}: {e}")
    if not Path(binposet.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"binposet was imported from {binposet.__file__}, not {src}")
    return binposet


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_task(lib, task: workloads.Task, tracer: tracing.Tracer | None, pacer: Pacer) -> dict:
    """Run one task and classify its outcome: ok, capped, wrong or error.
    ``seconds`` and ``cpu_s`` are raw, without the pace samples taken
    during the task; ``pace_scale`` scales them (see pace.py)."""
    if tracer is not None:
        tracer.task = task.name
    pacer.sample()
    first, spent0 = len(pacer.samples) - 1, pacer.spent
    t0, cpu0 = time.perf_counter(), cpu_seconds()
    try:
        notes = task.run()
        status = "capped" if notes.pop("capped", False) else "ok"
    except workloads.WrongAnswer as e:
        status, notes = "wrong", {"error": str(e)}
    except lib.CanonicalizationCapError as e:
        status, notes = "capped", {"error": str(e)}
    except Exception as e:  # a task must not end the pass: record it
        status, notes = "error", {"error": "".join(traceback.format_exception(e))}
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - cpu0
    spent = pacer.spent - spent0
    return {"task": task.name, "status": status, "seconds": wall - spent, "cpu_s": cpu - spent,
            "pace_scale": pacer.scale(first), **notes}


def run_pass(workload: str, seed: int, trace: bool, full: bool = True,
             spawned_at: float | None = None, setup_only: bool = False) -> dict:
    """Set up and run every task of one workload once; returns the summary.
    With ``setup_only`` the summary holds only ``setup_s``, scaled and raw."""
    start = STARTED if spawned_at is None else spawned_at
    lib = import_library()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install([lib.classify, lib.search, lib.iso, lib.cli, lib.seqcheck])
    api = tracing.make_api(lib, tracer)
    pacer = Pacer(timer=not trace)
    OUT.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            ctx = workloads.Context(lib, api, random.Random(seed), workdir, full)
            tasks = workloads.SETUP[workload](ctx)
            setup_s = time.monotonic() - start
            for _ in range(SETUP_PACE_SAMPLES):
                pacer.sample()
            raw = {"setup_s": setup_s}
            scaled = {"setup_s": setup_s * pacer.scale(0)}
            if setup_only:
                return {**scaled, "raw": raw}
            with pacer:
                results = [run_task(lib, task, tracer, pacer) for task in tasks]
    finally:
        if tracer is not None:
            tracer.uninstall()
    seconds = [r["seconds"] for r in results]
    raw |= {"solve_s": sum(seconds), "slowest_task_s": max(seconds),
            "cpu_s": sum(r["cpu_s"] for r in results)}
    paced = [r["seconds"] * r["pace_scale"] for r in results]
    scaled |= {"solve_s": sum(paced), "slowest_task_s": max(paced),
               "cpu_s": sum(r["cpu_s"] * r["pace_scale"] for r in results)}
    summary = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        **scaled,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "threads": threading.active_count(),
        "raw": raw,
        "pace_scale": scaled["solve_s"] / raw["solve_s"],
        "pace_samples": len(pacer.samples),
        "tasks": results,
    }
    if tracer is not None:
        tracer.dump(OUT / f"{workload}.spans.json")
        summary["layers"] = tracing.layer_metrics(tracer.spans, ctx.io_bytes)
    return summary


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the tests")
    ap.add_argument("--spawned-at", type=float)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)
    summary = run_pass(args.workload, args.seed, args.trace, not args.tiny, args.spawned_at,
                       args.setup_only)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
