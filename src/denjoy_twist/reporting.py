"""Machine-readable run reports.

A report is a plain dict with a fixed schema: config echo, construction
summary, one entry per check (name, measured value, tolerance, pass flag),
and an overall flag. Timings live in a separate top-level key excluded from
determinism comparisons; everything else is byte-identical across runs of
the same config.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

SCHEMA_VERSION = 1


class ReportBuilder:
    def __init__(self, config_echo: dict):
        self.checks = []
        self.report = {
            "schema_version": SCHEMA_VERSION,
            "config": config_echo,
            "summary": {},
            "checks": self.checks,
            "pass": True,
        }
        self.timings = {}

    def add_check(self, name: str, measured, tolerance, passed: bool,
                  detail=None) -> bool:
        entry = {"name": name, "measured": measured, "tolerance": tolerance,
                 "pass": bool(passed)}
        if detail is not None:
            entry["detail"] = detail
        self.checks.append(entry)
        if not passed:
            self.report["pass"] = False
        return bool(passed)

    def check_leq(self, name: str, measured: float, tolerance: float,
                  detail=None) -> bool:
        return self.add_check(name, measured, tolerance,
                              measured <= tolerance, detail)

    def check_geq(self, name: str, measured: float, floor: float,
                  detail=None) -> bool:
        return self.add_check(name, measured, floor, measured >= floor, detail)

    def check_true(self, name: str, flag: bool, detail=None) -> bool:
        return self.add_check(name, bool(flag), True, bool(flag), detail)

    def set_summary(self, **kv) -> None:
        self.report["summary"].update(kv)

    @contextmanager
    def timed(self, name: str):
        """Record the wall time of the with-block under timings[name]."""
        t0 = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - t0

    def finish(self) -> dict:
        return {**self.report, "timings": self.timings}


def deterministic_dump(report: dict) -> str:
    """JSON without the timing key, for byte-comparable determinism."""
    stripped = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(stripped, indent=2, sort_keys=True)


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
