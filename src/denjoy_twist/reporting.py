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


@contextmanager
def timed(timings: dict, name: str):
    """Record the wall time of the with-block under timings[name]."""
    t0 = time.perf_counter()
    yield
    timings[name] = time.perf_counter() - t0


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

    def timed(self, name: str):
        """Record the wall time of the with-block under timings[name]."""
        return timed(self.timings, name)

    def finish(self) -> dict:
        return {**self.report, "timings": self.timings}


def write_csv(path, header, rows) -> None:
    """A CSV of header and rows (tuples), bytewise what csv.writer writes for
    them: "%s" of a Python float is its repr, as csv writes it, rows end in
    \r\n, and no field the program writes needs quoting."""
    fmt = ",".join(["%s"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(fmt % tuple(header))
        fh.writelines(fmt % row for row in rows)


# rows per block of write_csv_blocks
_CSV_BLOCK = 2**10


def write_csv_blocks(path, header, n, block) -> None:
    """write_csv of n rows made a block at a time: block(lo, hi) gives the
    columns of rows lo to hi - 1 as arrays, converted to Python values
    together, so no whole column is converted at once."""
    def rows():
        for lo in range(0, n, _CSV_BLOCK):
            yield from zip(*(c.tolist() for c in block(lo, min(lo + _CSV_BLOCK, n))))

    write_csv(path, header, rows())


def deterministic_dump(report: dict) -> str:
    """JSON without the timing key, for byte-comparable determinism."""
    stripped = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(stripped, indent=2, sort_keys=True)


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
