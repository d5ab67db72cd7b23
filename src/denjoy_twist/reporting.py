"""Machine-readable run reports and the acceptance bounds they judge by.

A report is a plain dict with a fixed schema: config echo, construction
summary, one entry per check (name, measured value, tolerance, pass flag),
and an overall flag; each tolerance is a row of BOUNDS or computed from one.
Timings live in a separate top-level key excluded from determinism
comparisons; everything else is byte-identical across runs of the same
config.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

SCHEMA_VERSION = 1

# The acceptance bound of every check, by name: the program's, not a run's,
# so no config value can loosen one. Two bounds are computed where they are
# used: beta_scaled_bound's params.B, and phi_mean's residual mass plus
# mean_budget_extra.
BOUNDS = {
    # sequences: the recurrence, its zero-seed oracle, the identities of the
    # estimate chain and the slack windows of its constants at desk scale
    "recurrence_residual": 1e-13, "zero_seed_drift": 1e-12,
    "length_formula": 1e-12, "m_identity": 1e-14, "crossing_identity": 1e-14,
    "ratio_bound_lo": 0.5, "ratio_bound_hi": 5.0,
    "ratio_step_lo": 0.05, "ratio_step_hi": 20.0, "m_slack": 10.0,
    # profiles: the independent check of the two kernel masses
    "kernel_mass": 1e-13,
    # verify on the full map
    "invariance_residual": 1e-10, "rotation_number_gap_times_n": 1.0,
    "roundtrip": 1e-12, "det_df": 1e-9, "twist_fd": 1e-9,
    "vertical_translate_theta": 0.0, "vertical_translate_r": 5e-16,
    "phi_periodicity": 1e-13, "phi_fit_deviation": 1e-11,
    "phi_slope_deviation": 1e-10, "mean_budget_extra": 1e-6,
    "semiconjugacy": 1e-10, "wandering": 1e-10,
    "jump_match": 1e-14, "jump_detect": 1e-6,
    # verify in rigid-rotation mode
    "phi_identically_zero": 1e-15, "rotation_number_exact": 1e-12,
    # verify and manifolds
    "manifold_map": 1e-10, "contraction_ratio": 1e-10, "curve_side": 1e-12,
    "orbit_convergence_rel": 1e-6,
    # regularity
    "regularity_term_rel": 1e-6, "c_comparison_factor_min": 5.0,
}


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
