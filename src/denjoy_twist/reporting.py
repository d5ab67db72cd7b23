"""Machine-readable run reports and the acceptance bounds they judge by.

A report is a plain dict with a fixed schema: config echo, construction
summary, one entry per check (name, measured value, tolerance, pass flag),
and an overall flag; each tolerance is the BOUNDS row of the entry's name,
or computed from a row or a parameter. Timings live in a separate top-level
key excluded from determinism comparisons; everything else is
byte-identical across runs of the same config.

The CSV rows that the commands write are made here, and so is fork_map, the
one way a command body shares its independent parts over the CPUs the
process may use.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
import warnings
from contextlib import contextmanager
from itertools import chain

SCHEMA_VERSION = 1

# The acceptance bound of every check, keyed by the name of the report entry
# it judges: the program's, not a run's, so no config value can loosen one.
# Two tolerances are computed by their callers: beta_scaled_bound's params.B,
# and phi_mean's residual mass plus mean_budget_extra. The rows that name no
# report entry judge the estimate chain and the kernel masses.
BOUNDS = {
    # sequences: the recurrence, its zero-seed oracle, the identities of the
    # estimate chain and the slack windows of its constants at desk scale
    "recurrence_residual": 1e-13, "zero_seed_fixed_point": 1e-12,
    "length_formula": 1e-12, "m_identity": 1e-14, "crossing_identity": 1e-14,
    "ratio_bound_lo": 0.5, "ratio_bound_hi": 5.0,
    "ratio_step_lo": 0.05, "ratio_step_hi": 20.0, "m_slack": 10.0,
    # profiles: the independent check of the two kernel masses
    "kernel_mass": 1e-13,
    # verify on the full map
    "invariance_residual": 1e-10, "invariance_residual_translated": 1e-10,
    "rotation_number_gap_times_n": 1.0,
    "roundtrip": 1e-12, "det_df": 1e-9, "twist_positive": 1e-9,
    "vertical_translate_theta": 0.0, "vertical_translate_r": 5e-16,
    "phi_periodicity": 1e-13, "phi_fit_deviation": 1e-11,
    "phi_local_offset_k1": 1e-11, "phi_slope_deviation": 1e-10,
    "mean_budget_extra": 1e-6, "semiconjugacy_midpoints": 1e-10,
    "wandering_forward": 1e-10, "wandering_backward": 1e-10,
    "jump_match": 1e-14, "jump_no_spurious": 1e-6,
    # verify in rigid-rotation mode
    "phi_identically_zero": 1e-15, "rotation_number_exact": 1e-12,
    # verify and manifolds
    "manifold_image_distance": 1e-10, "manifold_base_orbit": 1e-10,
    "manifold_ratio_error": 1e-10, "curve_side_formula": 1e-12,
    "orbit_convergence_rel": 1e-6,
    # regularity
    "term_sum_vs_fd_rel": 1e-6, "c_comparison_off_crossing": 5.0,
}

# The difference steps of det_df and twist_positive, and of the regularity
# scan relative to ell_k: the program's, as the bounds are
FD_STEP = 1e-6
FD_STEP_REL = 1e-4


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

    def check_leq(self, name: str, measured: float, tolerance=None,
                  detail=None) -> bool:
        """measured <= BOUNDS[name], or <= tolerance where it is computed."""
        if tolerance is None:
            tolerance = BOUNDS[name]
        return self.add_check(name, measured, tolerance,
                              measured <= tolerance, detail)

    def check_geq(self, name: str, measured: float, detail=None) -> bool:
        """measured >= BOUNDS[name], a floor."""
        floor = BOUNDS[name]
        return self.add_check(name, measured, floor, measured >= floor, detail)

    def check_true(self, name: str, flag: bool, detail=None) -> bool:
        return self.add_check(name, bool(flag), True, bool(flag), detail)

    def set_summary(self, **kv) -> None:
        self.report["summary"].update(kv)

    def finish(self) -> dict:
        return {**self.report, "timings": self.timings}


def csv_lines(rows, width):
    """The CSV line of each row (a tuple of width fields), bytewise what
    csv.writer writes for it: "%s" of a Python float is its repr, as csv
    writes it, rows end in \r\n, and no field the program writes needs
    quoting."""
    fmt = ",".join(["%s"] * width) + "\r\n"
    return (fmt % row for row in rows)


def write_csv(path, header, rows, texts=()) -> None:
    """A CSV of header and rows (tuples), then texts: strings of lines that
    csv_lines made."""
    with open(path, "w", newline="") as fh:
        fh.writelines(csv_lines(chain([tuple(header)], rows), len(header)))
        fh.writelines(texts)


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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity mask on this platform
        return 1


def _run_share(fn, share, fd, parents_fds) -> None:
    """In a child: close the parent's pipe ends, write the pickled results of
    share, or the exception that stopped it, to fd, and leave without running
    any exit handler (a child that cannot pickle either leaves without
    writing)."""
    try:
        for parents_fd in parents_fds:
            os.close(parents_fd)
        try:
            payload = pickle.dumps((True, [fn(x) for x in share]), -1)
        except BaseException as exc:   # the parent re-raises it
            payload = pickle.dumps((False, exc), -1)
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
    finally:
        os._exit(0)


def fork_map(fn, items) -> list:
    """[fn(x) for x in items], one contiguous share of items per CPU.

    The items are cut into one share per CPU of the process's affinity mask.
    The parent computes the first share; each other share runs in a child of
    os.fork, which inherits everything fn reads, so fn need not be
    picklable, and returns its pickled results, or its exception, through a
    pipe. The results are the same objects bit for bit as one process makes,
    so a caller's outputs do not depend on how many CPUs ran it. With one
    CPU or one item, or without os.fork, it is the list comprehension. No
    setting chooses between the two.

    The package starts no thread of its own, and no share calls BLAS, whose
    idle pool is the only other thread, so no child inherits a lock that
    another thread held at the fork. That pool is why Python 3.12 and later
    warn at each fork (a DeprecationWarning about forking a multi-threaded
    process); the warning is ignored around os.fork for that reason.
    """
    items = list(items)
    n = min(len(items), _cpus())
    if n < 2 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    cuts = [len(items) * i // n for i in range(n + 1)]
    sys.stdout.flush()
    sys.stderr.flush()
    children = []   # (pid, read end of its pipe)
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            r, w = os.pipe()
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _run_share(fn, items[lo:hi], w, [r] + [fd for _, fd in children])
                children.append((pid, r))
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
        results = [fn(x) for x in items[:cuts[1]]]
        for _, fd in children:
            # unpickled as read, so the pickle's bytes are never held whole
            with os.fdopen(fd, "rb", closefd=False) as fh:
                try:
                    ok, value = pickle.load(fh)
                except EOFError:
                    raise ChildProcessError("fork_map: a child left without "
                                            "a result") from None
            if not ok:
                raise value
            results += value
        return results
    finally:
        # closing the read ends first lets a child still writing a result
        # that fills its pipe leave, so reaping it cannot wait forever
        for _, fd in children:
            os.close(fd)
        for pid, _ in children:
            os.waitpid(pid, 0)


def deterministic_dump(report: dict) -> str:
    """JSON without the timing key, for byte-comparable determinism."""
    stripped = {k: v for k, v in report.items() if k != "timings"}
    return json.dumps(stripped, indent=2, sort_keys=True)


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
