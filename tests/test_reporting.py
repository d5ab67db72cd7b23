import csv
import io
import sys

import numpy as np
import pytest

from denjoy_twist.layout import dump_gap_table_csv
from denjoy_twist.reporting import write_csv, write_csv_blocks
from denjoy_twist.sequences import dump_sequences_csv
from denjoy_twist.twist_map import RegularityReport

# every identifier the program writes into a CSV: headers, profile kinds,
# segment kinds and markers
IDENTIFIERS = (
    "k", "ell", "K", "m", "alpha", "beta", "lambda", "mu", "J_lo", "J_hi",
    "profile", "t", "value", "d1", "d2", "antiderivative", "eta", "gamma_plus",
    "gamma_minus", *RegularityReport.CSV_COLUMNS, "kind", "marker", "x", "r",
    "stable", "unstable", "lo", "mid", "hi", "orbit", "step", "theta")
FLOATS = (float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1e16,
          1e-5, 0.1, 1.0 / 3.0, -2.5e-300, 1.7976931348623157e308)
INTS = (0, -7, 2**53 + 1, -(2**63), 10**30, sys.maxsize)


def _csv_writer_bytes(header, rows):
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


def test_write_csv_bytes_equal_csv_writer(tmp_path):
    rows = [(i, kind, x, y) for i, kind in zip(INTS * 6, IDENTIFIERS)
            for x, y in zip(FLOATS, FLOATS[::-1])]
    header = ("k", "kind", "x", "r")
    write_csv(tmp_path / "a.csv", header, iter(rows))
    assert (tmp_path / "a.csv").read_bytes() == _csv_writer_bytes(header, rows)


def test_write_csv_header_only_and_one_column(tmp_path):
    write_csv(tmp_path / "a.csv", ("k",), [])
    assert (tmp_path / "a.csv").read_bytes() == _csv_writer_bytes(("k",), [])
    rows = [(x,) for x in FLOATS + INTS]
    write_csv(tmp_path / "b.csv", ("x",), rows)
    assert (tmp_path / "b.csv").read_bytes() == _csv_writer_bytes(("x",), rows)


def test_write_csv_blocks_equals_write_csv(tmp_path):
    # row counts below, at and past one block and a block multiple
    rng = np.random.default_rng(0)
    for n in (0, 1, 1023, 1024, 1025, 3 * 1024):
        k, x = np.arange(n) - n // 2, rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        write_csv(tmp_path / "a.csv", ("k", "x"), zip(k.tolist(), x.tolist()))
        write_csv_blocks(tmp_path / "b.csv", ("k", "x"), n,
                         lambda lo, hi: (k[lo:hi], x[lo:hi]))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize("writer", ["sequences", "gaps", "regularity"])
def test_csv_writer_working_set(bench_build, traced_peak, tmp_path, writer):
    # 8001 rows (7999 for regularity.csv) are converted a block of rows at a
    # time: converting whole columns peaked at 1.9 MB (2.3 MB for the nine
    # columns of regularity.csv)
    path = tmp_path / f"{writer}.csv"
    if writer == "sequences":
        peak = traced_peak(dump_sequences_csv, bench_build.seqs, path)
    elif writer == "gaps":
        peak = traced_peak(dump_gap_table_csv, bench_build.table, path)
    else:
        rng = np.random.default_rng(1)
        M = bench_build.seqs.M
        report = RegularityReport(np.arange(-M + 1, M),
                                  *rng.random((9, 2 * M - 1)))
        peak = traced_peak(report.to_csv, path)
    assert peak <= 2**19
