import dataclasses
import math

import numpy as np
import pytest

from denjoy_twist.layout import (SemiConjugacy, build_gap_table,
                                 dump_gap_table_csv,
                                 order_orbit_points)
from denjoy_twist.sequences import SeqParams, build_sequences

# frozen placement value for the default configuration (M = 500); the scan
# oracle below recomputes it independently
LAMBDA1_REFERENCE = 0.6180563238973487


def test_order_small_case():
    omega = (math.sqrt(5.0) - 1.0) / 2.0
    perm = order_orbit_points(2, omega)
    pts = {k: (k * omega) % 1.0 for k in range(-2, 3)}
    expected = sorted(pts, key=pts.get)
    assert list(perm) == expected


def test_order_zero_is_minimum(desk):
    assert int(desk.table.sorted_to_k[0]) == 0
    assert float(desk.table.lam_of(0)) == 0.0


def test_orbit_collision_guard():
    with pytest.raises(ValueError):
        order_orbit_points(3, 0.5)  # rational: frac(k/2) collides


def test_measure_normalization(desk):
    tb = desk.table
    assert abs(float(np.sum(tb.ell)) + tb.residual_mass - 1.0) <= 1e-12
    assert 0.0 < tb.residual_mass < 1.0


def test_placement_against_scan_oracle(desk):
    tb = desk.table
    assert abs(float(tb.lam_of(1)) - LAMBDA1_REFERENCE) <= 1e-15
    rng = np.random.default_rng(21)
    for k in rng.integers(-tb.M, tb.M + 1, size=40):
        t_k = float(tb.t_of(k))
        mask = tb.orbit_t < t_k
        oracle = float(np.sum(tb.ell[mask])) + tb.residual_mass * t_k
        assert abs(oracle - float(tb.lam_of(k))) <= 1e-13


def test_gaps_disjoint(desk):
    tb = desk.table
    order = tb.sorted_to_k + tb.M
    lam = tb.lam[order]
    ends = lam + tb.ell[order]
    assert np.all(ends[:-1] <= lam[1:] + 1e-15)
    assert ends[-1] < 1.0
    assert lam[0] == 0.0   # gap 0 starts at 0: no gap wraps around 0 = 1


def test_order_isomorphism(desk):
    tb = desk.table
    by_lam = np.argsort(tb.lam)
    by_orbit = np.argsort(tb.orbit_t)
    assert np.array_equal(by_lam, by_orbit)


def test_middle_segments(desk):
    tb = desk.table
    for k in (-100, -3, 0, 7, 250):
        lo, hi = tb.J_of(k)
        # two circle-scale roundings in forming the interval bounds
        assert abs((hi - lo) - float(tb.ell_of(k)) / 4.0) <= 5e-16
        assert float(tb.lam_of(k)) < lo and hi < float(tb.lam_of(k)) + float(tb.ell_of(k))


def test_lookup_gap_points(desk):
    tb = desk.table
    i, inside = tb.lookup(float(tb.mu_of(3)))
    assert inside and int(tb.sorted_to_k[i]) == 3
    u = float(tb.mu_of(3)) - float(tb.sorted_lam[i])
    assert abs(u - float(tb.ell_of(3)) / 2.0) <= 1e-15
    i, inside = tb.lookup(float(tb.lam_of(0)))
    assert inside and int(tb.sorted_to_k[i]) == 0
    assert float(tb.lam_of(0)) - float(tb.sorted_lam[i]) == 0.0


def test_lookup_matches_linear_scan(small):
    tb = small.table
    rng = np.random.default_rng(22)
    order = tb.sorted_to_k + tb.M
    lam_sorted = tb.lam[order]
    ends_sorted = lam_sorted + tb.ell[order]
    n = len(lam_sorted)
    for x in rng.random(200):
        i, inside = tb.lookup(x)
        # linear scan oracle
        scan = [j for j in range(n) if lam_sorted[j] <= x <= ends_sorted[j]]
        if scan:
            assert inside and int(tb.sorted_to_k[i]) == int(tb.sorted_to_k[scan[0]])
        else:
            assert not inside
            j = int(np.searchsorted(lam_sorted, x)) - 1
            left = int(tb.sorted_to_k[j % n])
            right = int(tb.sorted_to_k[(j + 1) % n])
            assert int(tb.sorted_to_k[i % n]) == left
            assert int(tb.sorted_to_k[(i + 1) % n]) == right


def test_placement_against_brute_force(desk):
    # the mass of the gaps whose orbit point is at or below t, plus the
    # spread tail, at residual points and at orbit points themselves
    tb = desk.table
    rng = np.random.default_rng(23)
    ts = np.concatenate([rng.random(200), tb.t_of(rng.integers(-tb.M, tb.M + 1, size=20))])
    for t in ts.tolist():
        oracle = float(np.sum(tb.ell[tb.orbit_t <= t])) + tb.residual_mass * t
        assert abs(tb.placement(t) - oracle) <= 1e-13
    for k in (-7, 3, 12):
        # the placement just below an orbit point is the gap's left end
        t = float(tb.t_of(k))
        assert abs(tb.placement(np.nextafter(t, 0.0)) - float(tb.lam_of(k))) <= 1e-13


def test_gap_table_is_frozen(small):
    with pytest.raises(dataclasses.FrozenInstanceError):
        small.table.residual_mass = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        small.table.cum_mass = None


def test_semiconjugacy_on_gaps(desk):
    tb = desk.table
    j = SemiConjugacy(tb)
    for k in (-200, -5, 0, 3, 444):
        x = float(tb.mu_of(k))
        assert abs(j.eval(x) - float(tb.t_of(k))) == 0.0
    assert j.eval(float(tb.lam_of(0))) == 0.0


def test_semiconjugacy_monotone_degree_one(small):
    j = SemiConjugacy(small.table)
    xs = np.linspace(0.0, 1.0, 10001, endpoint=False)
    vals = np.array([j.lift(float(x)) for x in xs])
    assert np.all(np.diff(vals) >= -1e-15)
    for x in (0.1, 0.37, 0.9):
        assert abs(j.lift(x + 1.0) - (j.lift(x) + 1.0)) <= 1e-12


def test_csv_dump(small, tmp_path):
    path = tmp_path / "gaps.csv"
    dump_gap_table_csv(small.table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,lambda,mu,ell,J_lo,J_hi,wrap"
    assert len(lines) == 1 + 2 * small.table.M + 1
    tb = small.table
    for k, line in zip(range(-tb.M, tb.M + 1), lines[1:]):
        vals = (tb.lam_of(k), tb.mu_of(k), tb.ell_of(k), *tb.J_of(k))
        assert line == ",".join([str(k)] + [repr(float(v)) for v in vals] + ["0"])


def test_sequences_table_roundtrip(small):
    # the table is built from the same sequences object
    assert small.table.residual_mass == pytest.approx(small.seqs.residual_mass,
                                                      abs=1e-15)
