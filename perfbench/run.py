"""Benchmark for the denjoy-twist CLI: two workloads, timed end to end.

One run of one workload:

    python3 perfbench/run.py --workload verify_portrait --seed 1 --seconds 55 --trace 0

A workload is a session of two CLI commands. Each command runs in a fresh
process (``child.py``) started from here, one at a time, with BLAS/OpenMP
pinned to one thread. With ``--trace 0`` the run is a closed loop with one
client: after one untimed import to warm the caches, sessions follow each
other until the next one would end after ``--seconds``, at least one. The
last line of standard output is a JSON object with the end-to-end metrics,
medians over the run's sessions. With ``--trace 1`` the run makes one
untraced and one traced session and reports the per-layer metrics of the
traced one, with the tracing overhead. Outputs are checked after the timed
region; a session in which a command exits nonzero, fails a report check or
writes a malformed output counts as failed.

All workloads, untraced and traced, with a summary table:

    python3 perfbench/run.py --all [--smoke] [--seed N] [--seconds S]

``--smoke`` shrinks every configuration so the whole path runs in seconds.
``--collect-reference`` merges the output digests logged by earlier runs
into ``reference_digests.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import tracer as tracing
from workloads import (PORTRAIT_ORBITS, PORTRAIT_STEPS, WORKLOADS, check_outputs,
                       digests, overrides, param)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "_work")
DIGEST_LOG = os.path.join(WORK, "digests.jsonl")
REFERENCE = os.path.join(BENCH, "reference_digests.json")
CHILD = os.path.join(BENCH, "child.py")

RUN_DEADLINE_S = 170.0
CHILD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Invocation:
    mode: str                # run | trace | import
    args: list
    dir: str
    wall_s: float
    setup_s: float | None    # process start to built system
    rss_mb: float
    rc: int
    side: dict
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    @property
    def out_dir(self) -> str:
        return os.path.join(self.dir, "out")


@dataclass
class Session:
    """One pass over a workload's commands."""
    mode: str
    calls: list

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def setup_s(self) -> float | None:
        setups = [c.setup_s for c in self.calls]
        return None if None in setups else sum(setups)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.calls)

    @property
    def problems(self) -> list:
        return [p for c in self.calls for p in c.problems]


def invoke(mode: str, args: list, inv_dir: str, deadline: float) -> Invocation:
    """Start one child, wait for it, and time it; killed at ``deadline``."""
    os.makedirs(os.path.join(inv_dir, "out"))
    side_path = os.path.join(inv_dir, "side.json")
    cmd = [sys.executable, CHILD, side_path, mode] + args
    if mode != "import":
        cmd += ["--out", os.path.join(inv_dir, "out")]
    env = dict(os.environ, **CHILD_ENV)
    with open(os.path.join(inv_dir, "log.txt"), "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - t0), _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    side = {}
    if os.path.exists(side_path):
        with open(side_path) as fh:
            side = json.load(fh)
    setup = side["built_at"] - t0 if "built_at" in side else None
    inv = Invocation(mode, args, inv_dir, wall, setup, usage.ru_maxrss / 1024.0,
                     proc.returncode, side)
    label = args[0] if args else mode
    if inv.rc != 0:
        inv.problems.append(f"{label}: exit code {inv.rc}")
    if setup is None and mode != "import":
        inv.problems.append(f"{label}: the system was never built")
    return inv


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def check(calls: list) -> None:
    """Check outputs after the timed region; identical outputs once."""
    verdicts = {}
    for inv in calls:
        if inv.rc not in (0, 1):
            continue
        inv.digests = digests(inv.out_dir)
        key = json.dumps([inv.args, inv.digests], sort_keys=True)
        if key not in verdicts:
            verdicts[key] = check_outputs(inv.args, inv.out_dir)
        inv.problems += verdicts[key]


def output_identical(calls: list):
    """True/False against the recorded reference; None when a command has
    none."""
    ref = _reference()
    produced = [(ref.get(" ".join(inv.args)), inv.digests) for inv in calls
                if inv.digests]
    if not produced or any(r is None for r, _ in produced):
        return None
    return all(r == d for r, d in produced)


def _reference() -> dict:
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE) as fh:
        return json.load(fh)


def log_digests(calls: list) -> None:
    with open(DIGEST_LOG, "a") as fh:
        for inv in calls:
            if inv.digests and not inv.problems:
                fh.write(json.dumps({"args": " ".join(inv.args),
                                     "digests": inv.digests}) + "\n")


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    commands = WORKLOADS[name].args(seed, smoke)
    wdir = os.path.join(WORK, name)
    shutil.rmtree(wdir, ignore_errors=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    warm = invoke("import", [], os.path.join(wdir, "warm-up"), deadline)
    if warm.problems:
        raise RuntimeError(f"the package does not import: see {warm.dir}/log.txt")
    start = time.monotonic()
    sessions = []

    def go(mode):
        sdir = os.path.join(wdir, f"{len(sessions)}-{mode}")
        sessions.append(Session(mode, [
            invoke(mode, args, os.path.join(sdir, f"{i}-{args[0]}"), deadline)
            for i, args in enumerate(commands)]))
        return sessions[-1]

    if trace:
        go("run")
        go("trace")
    else:
        while True:
            go("run")
            typical = statistics.median(s.wall_s for s in sessions)
            now = time.monotonic()
            if now - start + typical > seconds or now + typical > deadline:
                break
    elapsed = time.monotonic() - start

    calls = [c for s in sessions for c in s.calls]
    check(calls)
    log_digests(calls)
    untraced = [s for s in sessions if s.mode == "run"]
    result = {
        "workload": name, "seed": seed, "commands": commands, "trace": trace,
        "elapsed_s": elapsed,
        "attempted": len(sessions), "failed": sum(bool(s.problems) for s in sessions),
        "problems": sorted({p for s in sessions for p in s.problems}),
        "output_identical": output_identical(calls),
        "invocations": [{"session": i, "mode": c.mode, "command": c.args[0],
                         "wall_s": c.wall_s, "setup_s": c.setup_s,
                         "peak_rss_mb": c.rss_mb, "exit": c.rc,
                         "problems": c.problems}
                        for i, s in enumerate(sessions) for c in s.calls],
    }
    samples = {
        "wall_s": [s.wall_s for s in untraced],
        "setup_s": [s.setup_s for s in untraced if s.setup_s is not None],
        "peak_rss_mb": [s.rss_mb for s in untraced],
    }
    portraits = [c for s in untraced for c in s.calls
                 if c.args[0] == "portrait" and c.setup_s is not None]
    if portraits:
        sets = overrides(portraits[0].args)
        steps = (param(sets, "portrait.orbits", PORTRAIT_ORBITS)
                 * param(sets, "portrait.steps", PORTRAIT_STEPS))
        samples["steps_per_s"] = [steps / (c.wall_s - c.setup_s) for c in portraits]
    result["samples"] = samples
    if trace:
        traced = sessions[-1]
        result["spans"] = tracing.merge(c.side.get("spans", []) for c in traced.calls)
        result["metrics"] = layer_metrics(traced, untraced[0], result["spans"])
    else:
        result["metrics"] = {
            m: (statistics.median(samples[m]), unit)
            for m, unit in END_TO_END_UNITS.items() if samples[m]}
    return result


def layer_metrics(traced: Session, untraced: Session, spans: list) -> dict:
    """Per-layer metrics of the traced session, and the tracing cost."""
    steps = []
    for c in traced.calls:
        path = os.path.join(c.dir, "steps.npy")
        if os.path.exists(path):
            steps += np.load(path).tolist()
    out = tracing.layer_metrics(spans, steps)
    roots = sum(s["total_s"] for s in spans if s["parent"] is None)
    checks = []
    out_bytes = 0
    for c in traced.calls:
        for fname in sorted(os.listdir(c.out_dir)):
            path = os.path.join(c.out_dir, fname)
            out_bytes += os.path.getsize(path)
            if fname.endswith(".json"):
                with open(path) as fh:
                    checks += json.load(fh).get("checks", [])
    sides = [c.side for c in traced.calls]
    out.update({
        "circle_map.n_pieces": (max(s.get("n_pieces", 0) for s in sides), "count"),
        "circle_map.local_diffeo_count":
            (max(s.get("local_diffeo_count", 0) for s in sides), "count"),
        "cli.import_s": (sum(s.get("import_s", 0.0) for s in sides), "s"),
        "cli.output_bytes": (out_bytes, "bytes"),
        "cli.checks_total": (len(checks), "count"),
        "cli.checks_failed": (sum(not c["pass"] for c in checks), "count"),
        "trace.wall_s": (traced.wall_s, "s"),
        "trace.untraced_wall_s": (untraced.wall_s, "s"),
        "trace.overhead_s": (traced.wall_s - untraced.wall_s, "s"),
        "trace.outside_span_share": ((traced.wall_s - roots) / traced.wall_s, "ratio"),
    })
    return out


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = "missing"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        info["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        info["git_sha"] = "unknown"
    return info


def describe(result: dict) -> None:
    """Human-readable lines for one run."""
    print(f"workload {result['workload']} (seed {result['seed']}, "
          f"trace {int(result['trace'])}):")
    for args in result["commands"]:
        print(f"  denjoy-twist {' '.join(args)}")
    for inv in result["invocations"]:
        setup = "-" if inv["setup_s"] is None else f"{inv['setup_s']:.4f} s"
        print(f"  {inv['session']} {inv['mode']:5s} {inv['command']:10s} "
              f"wall {inv['wall_s']:.4f} s  setup {setup}  "
              f"rss {inv['peak_rss_mb']:.1f} MB  exit {inv['exit']}  "
              f"{'; '.join(inv['problems']) or 'ok'}")
    if not result["trace"]:
        for m, values in result["samples"].items():
            if values:
                q1, med, q3 = quartiles(values)
                unit = END_TO_END_UNITS.get(m, "steps/s")
                print(f"  {m}: median {med:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, "
                      f"n {len(values)})")
    else:
        print("  spans (name <- parent: calls, total s, self s):")
        for s in result["spans"][:30]:
            print(f"    {s['name']} <- {s['parent']}: {s['calls']}, "
                  f"{s['total_s']:.4f}, {s['self_s']:.4f}")
        for m, (v, unit) in sorted(result["metrics"].items()):
            print(f"  {m}: {v:.6g} {unit}")
    print(f"  fail_share: {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.3g} ratio")
    ident = result["output_identical"]
    print(f"  output_identical: {'no reference' if ident is None else ident}")
    print(f"  correct: {result['failed'] == 0}")


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    """Every workload untraced then traced, and one summary table."""
    info = machine()
    print(f"machine: {json.dumps(info)}")
    results = []
    for name in WORKLOADS:
        for trace in (False, True):
            res = run_workload(name, seed, seconds, trace, smoke)
            describe(res)
            results.append(res)

    def row(name, metric, values, unit, n=None):
        q1, med, q3 = quartiles(values)
        print(f"{name:16s} {metric:26s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{n or len(values):3d}  {unit}")

    print(f"{'workload':16s} {'metric':26s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'n':>3s}  unit")
    for res in results:
        name = res["workload"]
        if res["trace"]:
            for m in ("trace.overhead_s", "trace.outside_span_share"):
                value, unit = res["metrics"][m]
                row(name, m, [value], unit)
            continue
        for m, values in res["samples"].items():
            if values:
                row(name, m, values, END_TO_END_UNITS.get(m, "steps/s"))
        row(name, "fail_share", [res["failed"] / res["attempted"]], "ratio",
            res["attempted"])
    verdicts = {}
    for res in results:
        name = res["workload"]
        verdicts[name] = verdicts.get(name, True) and res["failed"] == 0
    for res in results[::2]:
        name = res["workload"]
        print(f"{name}: {'correct' if verdicts[name] else 'INCORRECT'}, "
              f"output_identical {res['output_identical']}")
    with open(os.path.join(WORK, "results.json"), "w") as fh:
        json.dump({"machine": info, "results": results}, fh, indent=1)
    print(json.dumps({"correct": all(verdicts.values()),
                      "workloads": verdicts}))
    return 0


def collect_reference() -> int:
    """Merge logged digests into the reference file; conflicts are errors."""
    ref = _reference()
    with open(DIGEST_LOG) as fh:
        for line in fh:
            entry = json.loads(line)
            known = ref.setdefault(entry["args"], entry["digests"])
            if known != entry["digests"]:
                print(f"error: different outputs for {entry['args']}", file=sys.stderr)
                return 1
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(ref)} reference entries")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--collect-reference", action="store_true")
    opts = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "denjoy_twist", "cli.py")):
        print("error: src/denjoy_twist is missing; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if opts.collect_reference:
        return collect_reference()
    os.makedirs(WORK, exist_ok=True)
    if opts.all:
        return run_all(opts.seed, opts.seconds, opts.smoke)
    if opts.workload is None:
        ap.error("--workload, --all or --collect-reference is required")

    print(f"machine: {json.dumps(machine())}")
    res = run_workload(opts.workload, opts.seed, opts.seconds, bool(opts.trace),
                       opts.smoke)
    describe(res)
    metrics = {m: {"value": v, "unit": unit} for m, (v, unit) in res["metrics"].items()}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
