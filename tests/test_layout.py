import dataclasses
import math

import numpy as np
import pytest

from denjoy_twist.cli import build_full_system
from denjoy_twist.layout import (_KRONECKER, GapTable, SemiConjugacy, build_gap_table,
                                 circle_delta, dump_gap_table_csv, points)
from denjoy_twist.sequences import SeqParams, build_sequences

# frozen placement value for the default configuration (M = 500); the scan
# oracle below recomputes it independently
LAMBDA1_REFERENCE = 0.6180563238973487


def test_order_small_case():
    omega = (math.sqrt(5.0) - 1.0) / 2.0
    table = build_gap_table(build_sequences(SeqParams(omega=omega, truncation_M=8)))
    pts = {k: (k * omega) % 1.0 for k in range(-8, 9)}
    expected = sorted(pts, key=pts.get)
    assert list(table.sorted_to_k) == expected


def test_order_zero_is_minimum(desk):
    assert int(desk.table.sorted_to_k[0]) == 0
    assert float(desk.table.lam_of(0)) == 0.0


def test_orbit_collision_guard():
    seqs = build_sequences(SeqParams(omega=0.5, truncation_M=8))
    with pytest.raises(ValueError, match="orbit points collide"):
        build_gap_table(seqs)  # rational: frac(k/2) collides


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
        mask = tb.t_of(np.arange(-tb.M, tb.M + 1)) < t_k
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
    by_orbit = np.argsort(tb.t_of(np.arange(-tb.M, tb.M + 1)))
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
    # random points, and the right ends, which count as their gap's
    for x in np.concatenate([rng.random(200), ends_sorted]):
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
    orbit_t = tb.t_of(np.arange(-tb.M, tb.M + 1))
    for t in ts.tolist():
        oracle = float(np.sum(tb.ell[orbit_t <= t])) + tb.residual_mass * t
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


def test_gap_table_stores_each_fact_once():
    # orbit points, midpoints and gap ends are formed from these columns
    assert [f.name for f in dataclasses.fields(GapTable)] == [
        "M", "omega", "lam", "ell", "residual_mass", "sorted_to_k", "sorted_t",
        "sorted_lam", "cum_mass"]


def test_build_retained_per_gap(profiles, traced_retained):
    # what a whole build keeps per stored gap: 25.7 doubles while sequences
    # and table also stored m, beta, the orbit points, the midpoints and the
    # gap ends
    M = 20000
    _, held = traced_retained(build_full_system, SeqParams(truncation_M=M),
                              profiles, False)
    assert held / 8 / (2 * M + 1) <= 21.5


def test_circle_delta_half_rounds_to_even():
    # np.round rounds half to even: a difference of exactly 1/2 can come out
    # as either end of [-1/2, 1/2]
    assert float(circle_delta(0.25, 0.75)) == -0.5
    assert float(circle_delta(0.75, 0.25)) == 0.5


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

    def lift(x):
        n = math.floor(x)
        return n + j.eval(x - n)

    vals = np.array([lift(float(x)) for x in xs])
    assert np.all(np.diff(vals) >= -1e-15)
    for x in (0.1, 0.37, 0.9):
        assert abs(lift(x + 1.0) - (lift(x) + 1.0)) <= 1e-12


def test_csv_dump(small, tmp_path):
    path = tmp_path / "gaps.csv"
    dump_gap_table_csv(small.table, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,lambda,mu,ell,J_lo,J_hi"
    assert len(lines) == 1 + 2 * small.table.M + 1
    tb = small.table
    for k, line in zip(range(-tb.M, tb.M + 1), lines[1:]):
        vals = (tb.lam_of(k), tb.mu_of(k), tb.ell_of(k), *tb.J_of(k))
        assert line == ",".join([str(k)] + [repr(float(v)) for v in vals])


def test_sequences_table_roundtrip(small):
    # the table is built from the same sequences object
    assert small.table.residual_mass == pytest.approx(small.seqs.residual_mass,
                                                      abs=1e-15)


# the seeds the point-set tests use: 0, the CLI's default, and seeds whose
# products with a step pass 2**64 and 2**128 as Python ints
SEEDS = [0, 20260809, 2**64 + 1, 2**70]


@pytest.mark.parametrize("d", [1, 2])
def test_kronecker_steps_are_the_irrationals_in_fixed_point(d):
    # 1/phi for d = 1; 1/p and 1/p**2 with p**3 = p + 1 for d = 2
    if d == 1:
        steps = [(math.sqrt(5.0) - 1.0) / 2.0]
    else:
        p = 1.324717957244746
        steps = [1.0 / p, 1.0 / p**2]
    assert [a / 2**64 for a in _KRONECKER[d]] == pytest.approx(steps, abs=1e-15)


@pytest.mark.parametrize("d", [1, 2])
def test_points_lie_in_the_unit_cube_and_follow_the_seed(d):
    sets = [points(1000, seed, d) for seed in SEEDS]
    for x in sets:
        assert x.shape == ((1000,) if d == 1 else (1000, d)) and x.dtype == np.float64
        assert np.all((0.0 <= x) & (x < 1.0))
    # the shift is frac(seed a) in 64-bit fixed point: seeds distinct modulo
    # 2**64 give distinct sets, and equal ones the same set (2**70 = 0)
    assert len({x.tobytes() for x in sets[:3]}) == 3
    assert np.array_equal(sets[3], sets[0])
    assert np.array_equal(points(50, 2**64 + 1, d), points(50, 1, d))
    # seed s + 1 is the seed-s set moved on by one index, bitwise
    for seed in SEEDS:
        assert np.array_equal(points(999, seed + 1, d), points(1000, seed, d)[1:])
    assert points(0, 2**70, d).size == 0


@pytest.mark.parametrize("seed", SEEDS + [7])
def test_sample_points_take_every_gap_in_turn(m16, seed):
    # a quarter of the samples in gap interiors, a quarter at gap starts:
    # 4 (2M + 1) samples reach every gap in both quarters
    tb = m16.table
    n = 4 * (2 * tb.M + 1)
    x = m16.system.sample_points(n, seed)
    inner, starts = x[n // 2:3 * n // 4], x[3 * n // 4:]
    lo, hi = tb.lam, tb.lam + tb.ell
    assert np.all(((lo[:, None] <= inner) & (inner <= hi[:, None])).any(axis=1))
    assert sorted(starts.tolist()) == sorted(lo.tolist())


@pytest.mark.parametrize("route", ["semiconjugacy", "circle_delta"])
def test_circle_routes_at_inf_give_nan_without_a_warning(small, route):
    # inf % 1.0 and inf - inf are NaN, as on every g, phi and step route: on
    # floats and arrays alike, with no RuntimeWarning (pyproject makes one an
    # error)
    if route == "semiconjugacy":
        f = SemiConjugacy(small.table).eval
    else:
        def f(x):
            return circle_delta(x, 0.25)
    xs = np.array([np.inf, -np.inf, np.nan, 0.3])
    arr, floats = f(xs), np.array([f(x) for x in xs.tolist()])
    assert np.isnan(arr[:3]).all() and np.isnan(floats[:3]).all()
    assert np.isfinite(arr[3]) and arr[3] == floats[3]
