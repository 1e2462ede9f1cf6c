"""The binposet benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload (see workloads.py), each in a fresh
single-threaded process started one after another, until the next pass
would end after ``--seconds`` (at least two passes).  Every pass sets up
from scratch (import and input generation), runs the workload's fixed
task list once and checks every answer.  Set-up-only processes top the
set-up samples up to ``SETUP_SAMPLES``.  ``BINPOSET_WORKERS`` is removed
from each pass's environment, so the process-pool knob cannot change the
numbers.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
medians over the passes, of pace-scaled times (see pace.py); the medians
of the raw times are printed and recorded beside them.  With
``--trace 1`` untraced and traced passes alternate; the per-layer metrics
come from the traced passes' spans and ``trace.overhead_s`` is the traced
minus the untraced median ``solve_s``.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
run conditions, every pass and its tasks are also written to
``bench/out/<workload>-seed<N>-trace<T>.json``.  Exit code 0 means a
result was printed; any other code means none was.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))
from tracing import EXACT, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKERS_ENV = "BINPOSET_WORKERS"
HASH_SEED = "0"
MIN_PASSES = 2
SETUP_SAMPLES = 7
RUN_LIMIT_S = 160  # a run must end well within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("slowest_task_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
    ("conclusive_frac", "ratio"),
)
TIMES = ("seconds", "cpu_s", "pace_scale")  # the fields of a task that vary run to run


class BenchError(Exception):
    """A pass could not run or its summary is unusable."""


def git_commit(root: Path) -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def conditions(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "loadavg_at_start": os.getloadavg(),
        WORKERS_ENV: f"removed (was {os.environ.get(WORKERS_ENV, 'unset')!r})",
        "PYTHONHASHSEED": HASH_SEED,
        "process_model": "one fresh single-threaded process per pass, one pass at a time",
    }


def spawn(args: argparse.Namespace, deadline: float, *flags: str) -> dict:
    """Run one pass in a fresh process and return its summary."""
    env = {k: v for k, v in os.environ.items() if k != WORKERS_ENV}
    env["PYTHONHASHSEED"] = HASH_SEED
    workload = args.workload
    cmd = [sys.executable, str(BENCH / "single_pass.py"), "--workload", workload,
           "--seed", str(args.seed), *flags] + ["--tiny"] * args.tiny
    started = time.monotonic()
    cmd += ["--spawned-at", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {workload} pass ran past the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"a {workload} pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        summary = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"a {workload} pass printed no summary:\n{proc.stderr.strip()}") from None
    summary["wall_s"] = time.monotonic() - started
    return summary


def run_passes(args: argparse.Namespace) -> tuple[list[dict], list[float]]:
    """The run's passes, and its set-up times: one per untraced pass, topped
    up with set-up-only processes to at least SETUP_SAMPLES."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(spawn(args, deadline, *["--trace"] * traced))
        now = time.monotonic()
        longest = max(p["wall_s"] for p in passes)
        if now + longest > deadline:
            break
        if len(passes) >= MIN_PASSES and now - start + longest > args.seconds:
            break
    if args.trace and len(passes) < 2:
        raise BenchError("no time was left for a traced pass")
    setups = [p["setup_s"] for p in passes if not p["traced"]]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, deadline, "--setup-only")["setup_s"])
    return passes, setups


def signature(p: dict) -> list:
    """What must repeat exactly on every pass: each task's status and notes."""
    return [{k: v for k, v in t.items() if k not in TIMES + ("error",)} for t in p["tasks"]]


def aggregate(args: argparse.Namespace, passes: list[dict], setups: list[float]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    statuses = [t["status"] for p in passes for t in p["tasks"]]
    attempted = len(statuses)
    failed = sum(s in ("wrong", "error") for s in statuses)
    capped = statuses.count("capped")
    repeatable = all(signature(p) == signature(passes[0]) for p in passes)

    def median(rows: list[dict], key: str) -> float:
        return statistics.median(r[key] for r in rows)

    metrics: dict[str, dict] = {}
    if args.trace:
        for name, unit, _ in PER_LAYER:
            if name == "trace.overhead_s":
                value = median(traced, "solve_s") - median(plain, "solve_s")
            elif name in EXACT:
                values = {p["layers"][name] for p in traced}
                repeatable &= len(values) == 1
                value = traced[0]["layers"][name]
            else:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        values = {key: median(plain, key) for key, _ in END_TO_END[1:5]}
        values["setup_s"] = statistics.median(setups)
        values["ok_frac"] = 1 - failed / attempted
        values["conclusive_frac"] = 1 - capped / attempted
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return {
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "capped": capped,
        "fail_frac": failed / attempted,
        "capped_frac": capped / attempted,
        "repeatable": repeatable,
        "raw_medians": {key: statistics.median(p["raw"][key] for p in plain)
                        for key in ("setup_s", "solve_s", "slowest_task_s", "cpu_s")},
        "pace_scale": median(plain, "pace_scale"),
        "metrics": metrics,
    }


def report(cond: dict, passes: list[dict], result: dict) -> None:
    print(f"# {cond['workload']} seed={cond['seed']} trace={cond['trace']} passes={len(passes)}")
    print("# conditions " + json.dumps(cond))
    plain = [p for p in passes if not p["traced"]]
    for i, t in enumerate(plain[0]["tasks"]):
        secs = statistics.median(p["tasks"][i]["seconds"] for p in plain)
        notes = {k: v for k, v in t.items() if k not in TIMES + ("task", "status")}
        print(f"# task {t['task']!r} {t['status']} {secs:.4f}s {json.dumps(notes)}")
    for key in ("fail_frac", "capped_frac", "repeatable", "raw_medians", "pace_scale"):
        print(f"# {key} {json.dumps(result[key])}")
    for name, m in result["metrics"].items():
        print(f"{name}\t{m['value']}\t{m['unit']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the tests")
    args = ap.parse_args(argv)
    cond = conditions(args)
    try:
        passes, setups = run_passes(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    result = aggregate(args, passes, setups)
    OUT.mkdir(exist_ok=True)
    record = {"conditions": cond, **result, "setups": setups, "passes": passes}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    report(cond, passes, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
