import csv
import io
import sys

from denjoy_twist.reporting import write_csv
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
