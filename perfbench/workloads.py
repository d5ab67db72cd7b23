"""The benchmark's workloads and the checks on their outputs.

A workload is a session of two ``denjoy-twist`` CLI commands, run one after
the other, each in a fresh process. ``args`` builds each command's argument
list from the seed; the smoke variants shrink the configuration so that the
whole pipeline, checks and tracer included, runs in seconds.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the CLI defaults, spelled out
PORTRAIT_STEPS = 10000
PORTRAIT_ORBITS = 20
CURVE_SAMPLES = 512
RESTEP_ROWS = 64


@dataclass(frozen=True)
class Command:
    command: str
    sets: tuple              # --set overrides, without the seed
    seeded: bool             # whether params.seed changes the outputs
    smoke_sets: tuple = field(default=())

    def args(self, seed: int, smoke: bool) -> list:
        sets = list(self.sets) + (list(self.smoke_sets) if smoke else [])
        if self.seeded:
            sets.append(f"params.seed={seed}")
        out = [self.command]
        for s in sets:
            out += ["--set", s]
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple          # run in this order, one process each

    def args(self, seed: int, smoke: bool) -> list:
        return [c.args(seed, smoke) for c in self.commands]


# Each command is sized to take a few seconds, so that a run holds five or
# six sessions: the same command varies by up to 40% between back-to-back
# invocations on a shared machine, and the median over a run absorbs it. Why each workload is here: see README.md and BENCHMARK.json.
VERIFY = Command("verify", ("verify.rotation_n=10000", "verify.invariance_samples=1000",
                            "verify.roundtrip_samples=1000",
                            "verify.jump_scan_samples=1000", "verify.det_samples=100"),
                 True,
                 smoke_sets=("params.M=32", "verify.rotation_n=2000",
                             "verify.roundtrip_samples=200", "verify.jump_scan_samples=200",
                             "verify.invariance_samples=500", "verify.det_samples=50"))
PORTRAIT = Command("portrait", (f"portrait.orbits={PORTRAIT_ORBITS}", "portrait.steps=500",
                                f"portrait.curve_samples={CURVE_SAMPLES}"), True,
                   smoke_sets=("params.M=32", "portrait.steps=100", "portrait.orbits=4"))
BUILD = Command("build", ("params.M=4000", "output.write_csv=true"), False,
                smoke_sets=("params.M=64",))
REGULARITY = Command("regularity", ("params.M=125",), False,
                     smoke_sets=("params.M=32", "regularity.grid=32"))

WORKLOADS = {w.name: w for w in (
    Workload("verify_portrait", (VERIFY, PORTRAIT)),
    Workload("build_regularity", (BUILD, REGULARITY)),
)}


def overrides(args: list) -> list:
    """The ``--set`` values of one command's argument list."""
    return [v for k, v in zip(args, args[1:]) if k == "--set"]


def program():
    """The package under test, imported on first use, after the timed region."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from denjoy_twist import cli, reporting
    return cli, reporting


def param(overrides: list, key: str, default):
    """The value the last override gives ``key``, as ``default``'s type."""
    for s in reversed(overrides):
        k, _, v = s.partition("=")
        if k == key:
            return type(default)(v)
    return default


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _report(out_dir, name) -> list:
    """Problems with a report: missing, failing checks."""
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return [f"{name} missing"]
    with open(path) as fh:
        report = json.load(fh)
    failing = [c["name"] for c in report.get("checks", ()) if not c["pass"]]
    problems = [f"{name}: check {c} failed" for c in failing]
    if not report.get("pass", False):
        problems.append(f"{name}: overall pass is false")
    return problems


def check_outputs(args: list, out_dir: str) -> list:
    """Every problem found in one invocation's outputs; empty when correct."""
    command, sets = args[0], overrides(args)
    if command in ("verify", "regularity"):
        return _report(out_dir, f"{command}.json")
    if command == "build":
        return _check_build(out_dir, param(sets, "params.M", 500))
    return _check_portrait(out_dir, sets)


def _check_build(out_dir, M) -> list:
    problems = _report(out_dir, "build.json")
    try:
        with open(os.path.join(out_dir, "estimates.json")) as fh:
            if json.load(fh).get("pass") is not True:
                problems.append("estimates.json: pass is not true")
        for name in ("sequences.csv", "gaps.csv"):
            rows = len(read_csv(os.path.join(out_dir, name))) - 1
            if rows != 2 * M + 1:
                problems.append(f"{name}: {rows} data rows, expected {2 * M + 1}")
    except OSError as exc:
        problems.append(f"missing output: {exc}")
    return problems


def _check_portrait(out_dir, sets) -> list:
    """Shape, finiteness, and sampled rows re-stepped through the public
    ``TwistSystem.forward``, which must match bitwise."""
    path = os.path.join(out_dir, "portrait.csv")
    if not os.path.exists(path):
        return ["portrait.csv missing"]
    rows = read_csv(path)
    orbits = param(sets, "portrait.orbits", PORTRAIT_ORBITS)
    steps = param(sets, "portrait.steps", PORTRAIT_STEPS)
    curve = param(sets, "portrait.curve_samples", CURVE_SAMPLES)
    expected = 1 + curve + orbits * (steps + 1)
    if len(rows) != expected:
        return [f"portrait.csv: {len(rows)} rows, expected {expected}"]
    if rows[0] != ["orbit", "step", "theta", "r"]:
        return [f"portrait.csv: header {rows[0]}"]
    data = [(int(o), int(s), float(th), float(r)) for o, s, th, r in rows[1:]]
    if not all(math.isfinite(th) and math.isfinite(r) for _, _, th, r in data):
        return ["portrait.csv: non-finite values"]

    cli, _ = program()
    system = cli.BuiltSystem(cli.load_config(None, sets)).system
    rng = random.Random(0)
    problems = []
    for i in sorted(rng.sample(range(curve), min(8, curve))):
        o, s, th, r = data[i]
        if (o, s) != (0, i) or float(system.curve_height(th)) != r:
            problems.append(f"portrait.csv: curve row {i + 1} does not match")
    stepped = [i for i in range(curve, len(data)) if data[i][1] < steps]
    for i in sorted(rng.sample(stepped, min(RESTEP_ROWS, len(stepped)))):
        o, s, th, r = data[i]
        if data[i + 1][:2] != (o, s + 1) or system.forward(th, r) != data[i + 1][2:]:
            problems.append(f"portrait.csv: row {i + 2} is not f(row {i + 1})")
    return problems


def digests(out_dir: str) -> dict:
    """sha256 per output file; reports without their timings.

    Reports go through the program's own ``deterministic_dump``, so what
    counts as deterministic follows the program.
    """
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name.endswith(".json"):
            report = json.loads(data)
            if "timings" in report:
                data = program()[1].deterministic_dump(report).encode()
        out[name] = hashlib.sha256(data).hexdigest()
    return out
