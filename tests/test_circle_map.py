import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from denjoy_twist.circle_map import (_NOT_GAP, CircleHomeo, LocalDiffeo, RigidRotation,
                                     _hull_vertices, derivative_jump_scan,
                                     derivative_jump_table, rotation_number_estimate,
                                     wandering_interval_check)
from denjoy_twist.cli import build_full_system
from denjoy_twist.layout import circle_delta, points
from denjoy_twist.profiles import _TABLE_PANELS, profile_eval
from denjoy_twist.reporting import BOUNDS
from denjoy_twist.sequences import ConstructionError, SeqParams, build_sequences


def columns(g, k):
    """ell, ell_next, K and alpha of gap k, from the h_k family's columns."""
    h, j = g.local, k + g.M
    return float(h.ell[j]), float(h.ell_next[j]), float(h.K[j]), float(h.alpha[j])


def test_one_family_for_all_gaps(small):
    assert isinstance(small.g.local, LocalDiffeo)
    assert len(small.g.local) == 2 * small.g.M


def test_per_gap_columns_are_views_of_the_sequences(small):
    seqs, h, M = small.seqs, small.g.local, small.g.M
    ks = np.arange(-M, M)
    for col, arr, expected in (
            (small.table.ell, seqs.ell_arr, seqs.ell(np.arange(-M, M + 1))),
            (h.ell, seqs.ell_arr, seqs.ell(ks)),
            (h.ell_next, seqs.ell_arr, seqs.ell(ks + 1)),
            (h.K, seqs.K_arr, seqs.K(ks)),
            (h.alpha, seqs.alpha_arr, seqs.alpha(ks))):
        assert np.shares_memory(col, arr)
        assert np.array_equal(col, expected)


def test_local_diffeo_endpoints(small):
    h = small.g.local
    for k in (-30, -1, 0, 1, 17):
        ell, ell_next, _, _ = columns(small.g, k)
        assert h.value(0.0, k) == 0.0
        assert abs(h.value(ell, k) - ell_next) <= 1e-13


def test_local_diffeo_one_sided_midpoint(small):
    h = small.g.local
    for k in (1, 5, 30):
        ell, _, K, alpha = columns(small.g, k)
        u = 0.5 * ell
        assert abs(h.deriv(u, k, side="left") - (1.0 + K)) <= 1e-15
        assert abs(h.deriv(u, k, side="right") - (1.0 + K + alpha)) <= 1e-15
    for k in (0, -4, -30):
        ell, _, K, alpha = columns(small.g, k)
        u = 0.5 * ell
        assert abs(h.deriv(u, k, side="left") - (1.0 + K + alpha)) <= 1e-15
        assert abs(h.deriv(u, k, side="right") - (1.0 + K)) <= 1e-15


def test_exact_linear_pieces(small):
    h = small.g.local
    for k in (1, 9):
        ell, _, K, alpha = columns(small.g, k)
        u = ell * np.linspace(0.375, 0.5, 11)
        assert np.max(np.abs(h.value(u, k) - (1.0 + K) * u)) <= 1e-13
        u = ell * np.linspace(0.5, 0.625, 11)
        expected = (1.0 + K + alpha) * u - alpha * ell / 2.0
        assert np.max(np.abs(h.value(u, k) - expected)) <= 1e-13
    for k in (0, -9):
        ell, _, K, alpha = columns(small.g, k)
        u = ell * np.linspace(0.375, 0.5, 11)
        expected = (1.0 + K + alpha) * u - alpha * ell / 2.0
        assert np.max(np.abs(h.value(u, k) - expected)) <= 1e-13
        u = ell * np.linspace(0.5, 0.625, 11)
        assert np.max(np.abs(h.value(u, k) - (1.0 + K) * u)) <= 1e-13


def test_invert_basics(small):
    h = small.g.local
    ell, ell_next, _, _ = columns(small.g, 3)
    assert h.invert(0.0, 3) == 0.0
    rng = np.random.default_rng(31)
    u = rng.random(1000) * ell
    back = h.invert(h.value(u, 3), 3)
    assert np.max(np.abs(back - u)) <= 1e-13
    # midpoints correspond through the left linear piece
    assert abs(h.invert(ell_next / 2.0, 3) - ell / 2.0) <= 1e-15
    with pytest.raises(ValueError):
        h.invert(ell_next * 1.5, 3)


def test_monotone_increasing(small):
    ell, _, _, _ = columns(small.g, -2)
    u = np.linspace(0.0, ell, 2000)
    assert np.all(np.diff(small.g.local.value(u, -2)) > 0.0)


def test_gap_endpoint_images(small):
    g, tb = small.g, small.table
    for k in range(-tb.M, tb.M):
        assert abs(g.lift(float(tb.lam_of(k))) % 1.0 - float(tb.lam_of(k + 1))) <= 1e-12


@pytest.mark.parametrize("M", [500, 20000])
def test_gap_images_at_layout_positions(profiles, M):
    # g~ takes both ends of every gap to the next gap's ends where the layout
    # puts them, to the rounding of one lift; a running sum of image widths
    # would drift about in proportion to M (1.6e-15 at M=500, 3.9e-14 at
    # M=20000)
    _, tb, g, _ = build_full_system(SeqParams(truncation_M=M), profiles, False)
    ks = np.arange(-M, M)
    for x, y in ((tb.lam_of(ks), tb.lam_of(ks + 1)),
                 (tb.lam_of(ks) + tb.ell_of(ks),
                  tb.lam_of(ks + 1) + tb.ell_of(ks + 1))):
        assert np.max(np.abs(circle_delta(g.lift_many(x), y))) <= 2.2e-16


def _with_successor_moved(bundle, shift):
    """The gap table with the circular successor of gap 0 moved to
    lam_0 + shift ell_0, and the map built on it."""
    tb = bundle.table
    k = int(tb.sorted_to_k[1])
    lam = tb.lam.copy()
    lam[k + tb.M] = tb.lam_of(0) + shift * tb.ell_of(0)
    return CircleHomeo(replace(tb, lam=lam), bundle.seqs, bundle.profiles)


def test_overlapping_gaps_refused(small):
    with pytest.raises(ConstructionError, match="anchor pieces overlap"):
        _with_successor_moved(small, 0.5)


def test_untiled_images_refused(small):
    # the successor starts where gap 0 ends: the transport between them is
    # empty in x, while its image, the residual stretch between I_1 and the
    # successor's image, is not
    with pytest.raises(ConstructionError, match="do not tile the circle"):
        _with_successor_moved(small, 1.0)


def test_midpoints_map_to_midpoints(small):
    g, tb = small.g, small.table
    for k in (-20, -1, 0, 1, 20):
        assert abs(g.lift(float(tb.mu_of(k))) % 1.0 - float(tb.mu_of(k + 1))) <= 1e-13


def test_inverse_roundtrip(small):
    g = small.g
    rng = np.random.default_rng(32)
    xs = rng.random(10000)
    fwd = g.lift_many(xs)
    back = g.inverse_lift_many(fwd)
    assert np.max(np.abs(back - xs)) <= 1e-12
    fwd2 = g.lift_many(g.inverse_lift_many(xs))
    assert np.max(np.abs(fwd2 - xs)) <= 1e-12


def test_monotone_lift(small):
    g = small.g
    rng = np.random.default_rng(33)
    xs = np.sort(rng.random(10000) * 2.0 - 0.5)
    vals = g.lift_many(xs)
    keep = np.diff(xs) > 0
    assert np.all(np.diff(vals)[keep] > 0.0)


def test_lift_periodicity(small):
    g = small.g
    for x in (0.0, 0.123, 0.77):
        assert g.lift(x + 1.0) == g.lift(x) + 1.0
        assert g.lift(x - 2.0) == g.lift(x) - 2.0


def test_scalar_vector_consistency(small):
    g, tb = small.g, small.table
    rng = np.random.default_rng(34)
    # uniform points, plus points on both shoulders of every gap, so one
    # batched call mixes all gaps and both jump profiles
    ks = np.arange(-g.M, g.M)
    shoulders = np.concatenate([rng.uniform(0.26, 0.37, ks.size),
                                rng.uniform(0.63, 0.74, ks.size)])
    xs = np.concatenate([rng.random(64),
                         tb.lam_of(np.tile(ks, 2)) + shoulders * tb.ell_of(np.tile(ks, 2))])
    vec = g.lift_many(xs)
    scal = np.array([g.lift(float(x)) for x in xs])
    assert np.array_equal(vec, scal)
    ys = g.lift_many(xs)
    vec_inv = g.inverse_lift_many(ys)
    scal_inv = np.array([g.inverse_lift(float(y)) for y in ys])
    assert np.array_equal(vec_inv, scal_inv)
    assert np.array_equal(g.inverse_lift_many(xs),
                          np.array([g.inverse_lift(float(x)) for x in xs]))
    # the family's batched derivative against the scalar one, both sides
    i = np.searchsorted(g._x_lo, xs[64:], side="right") - 1
    k = np.tile(ks, 2)
    assert np.array_equal(g._gap_k[i], k)
    for side in ("left", "right"):
        vec_d = g.local.deriv(xs[64:] - g._x_lo[i], k, side=side)
        scal_d = np.array([g.derivative(float(x), side) for x in xs[64:]])
        assert np.array_equal(vec_d, scal_d)
    # the twist steps: the array form equals per-point scalar steps, at
    # residual points, shoulder points and gap endpoints, with r and r + 1
    sysm = small.system
    ends = np.concatenate([tb.lam_of(ks), tb.lam_of(ks) + tb.ell_of(ks)])
    th = np.concatenate([xs, ends])
    r = rng.uniform(-1.5, 1.5, th.size)
    th, r = np.tile(th, 2), np.concatenate([r, r + 1.0])
    for step in (sysm.forward, sysm.backward, sysm.forward_lift, sysm.backward_lift):
        vec_t, vec_r = step(th, r)
        scal = [step(float(a), float(b)) for a, b in zip(th, r)]
        assert all(type(v) is float for pair in scal for v in pair)
        assert np.array_equal(vec_t, [t for t, _ in scal])
        assert np.array_equal(vec_r, [v for _, v in scal])


def test_derivative_array_form(small):
    g, tb = small.g, small.table
    rng = np.random.default_rng(37)
    ks = np.arange(-g.M, g.M)
    shoulders = tb.lam_of(ks) + rng.uniform(0.26, 0.37, ks.size) * tb.ell_of(ks)
    ends = np.concatenate([tb.lam_of(ks), tb.lam_of(ks) + tb.ell_of(ks)])
    xs = np.concatenate([rng.random(200), shoulders, ends, tb.mu_of(ks), g._x_lo])
    for side in ("left", "right"):
        vec = g.derivative(xs, side)
        scal = [g.derivative(float(x), side) for x in xs]
        assert all(type(v) is float for v in scal)
        assert np.array_equal(vec, scal)
    # at a piece's left edge the left limit is the previous piece's slope
    left = g.derivative(g._x_lo, "left")
    prev = np.roll(np.arange(g.n_pieces), 1)
    for i, j in enumerate(prev):
        if g._gap_k[j] == _NOT_GAP:
            assert left[i] == g._slope[j]
        else:
            k = int(g._gap_k[j])
            assert left[i] == g.local.deriv(g.local.ell[k + g.M], k, side="left")
    # the scan is one array call per side, equal to the per-point maximum
    scan = derivative_jump_scan(g, 500, seed=38)
    pts = points(500, 38)
    worst = max(abs(g.derivative(float(x), "right") - g.derivative(float(x), "left"))
                for x in pts)
    assert scan["max_offmid_jump"] == worst


def test_hull_vertices_small_set():
    # duplicates, collinear points on three edges and an interior point
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [2.0, 2.0],
                    [1.0, 1.0], [0.0, 2.0], [0.0, 0.0], [2.0, 2.0], [0.0, 1.0],
                    [0.5, 0.5]])
    assert _hull_vertices(pts).tolist() == [[0.0, 0.0], [2.0, 0.0], [2.0, 2.0],
                                            [0.0, 2.0]]
    assert _hull_vertices(pts[:2]).tolist() == [[0.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("C", [100.0, 20.0])
def test_monotone_check_minima_equal_brute_force(profiles, C):
    h = LocalDiffeo(build_sequences(SeqParams(bigC=C)), profiles)
    s = np.linspace(0.0, 1.0, _TABLE_PANELS + 1)
    eta, gamma = profile_eval(h.eta, s), profile_eval(h.gamma_plus, s)
    brute = np.min(1.0 + h.K[:, None] * eta + h.alpha[:, None] * gamma, axis=1)
    assert np.array_equal(h._check_monotone(), brute)


def test_rotation_rigid_double():
    omega = (math.sqrt(5.0) - 1.0) / 2.0
    rr = RigidRotation(omega)
    for n in (1, 10, 1000):
        assert abs(rotation_number_estimate(rr, 0.2, n) - omega) <= 1e-13


def test_rotation_number_of_built_map(small):
    # classical two-sided bound: the lift displacement stays within one unit
    # of n * rho for every start
    omega = small.params.omega
    n = 20000
    ests = [rotation_number_estimate(small.g, x0, n) for x0 in (0.0, 0.4)]
    for est in ests:
        assert abs(est - omega) < 1.0 / n
    assert abs(ests[0] - ests[1]) < 2.0 / n


def orbit_lift(g, x0: float, n: int) -> np.ndarray:
    """The lift orbit x0, g~(x0), ..., g~^n(x0)."""
    out = np.empty(n + 1)
    out[0] = x = float(x0)
    for i in range(1, n + 1):
        x = g.lift(x)
        out[i] = x
    return out


def test_orbit_displacement_bounded(small):
    # oracle for the rotation-number bound: g~^n(x) - x - n*omega stays in
    # (-1, 1) along the orbit
    omega = small.params.omega
    lifts = orbit_lift(small.g, 0.125, 3000)
    n = np.arange(len(lifts))
    dev = lifts - 0.125 - n * omega
    assert np.max(np.abs(dev)) < 1.0


def test_conjugation_on_midpoints(small):
    from denjoy_twist.layout import SemiConjugacy
    j = SemiConjugacy(small.table)
    omega = small.params.omega
    worst = 0.0
    for k in range(-small.table.M, small.table.M):
        x = float(small.table.mu_of(k))
        d = j.eval(small.g.lift(x) % 1.0) - (j.eval(x) + omega)
        worst = max(worst, abs(d - round(d)))
    assert worst <= 1e-10


def test_one_sided_agreement_off_midpoints(small):
    g = small.g
    rng = np.random.default_rng(35)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(-g.M, g.M))
        s = float(rng.uniform(0.02, 0.98))
        if abs(s - 0.5) < 1e-3:
            continue
        x = float(g.table.lam_of(k)) + s * float(g.table.ell_of(k))
        worst = max(worst, abs(g.derivative(x, "left") - g.derivative(x, "right")))
    assert worst <= 1e-9


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the Kronecker set never falls on a piece edge, so the "
                   "scan reads 0.0 whatever g' does there (CHANGES.md FOUND 52)")
def test_jump_scan_sees_an_injected_jump(profiles):
    # a fresh build, as its slope column is edited in place: one transport
    # piece between two gaps made 1.001 times as steep, a jump of 1e-3 in g'
    # at both its edges
    *_, g, _ = build_full_system(SeqParams(truncation_M=500), profiles, False)
    gap = g._gap_k != _NOT_GAP
    i = int(np.flatnonzero(~gap & np.roll(gap, 1) & np.roll(gap, -1))[0])
    g._slope[i] *= 1.001
    edge = float(g._x_lo[i])
    there = abs(g.derivative(edge, "right") - g.derivative(edge, "left"))
    seen = derivative_jump_scan(g, 10000, seed=20260809 + 2)["max_offmid_jump"]
    # equal truth values: a lost injection passes too, and so fails as XPASS
    bound = BOUNDS["jump_no_spurious"]
    assert (there > bound) == (seen > bound)


def test_derivative_one_at_gap_edges(small):
    h = small.g.local
    for k in (-10, 0, 10):
        ell, _, _, _ = columns(small.g, k)
        assert h.deriv(0.0, k) == 1.0
        assert h.deriv(ell, k) == 1.0


def test_derivative_tends_to_one(small):
    g = small.g
    M = g.M
    grid = np.linspace(0.01, 0.99, 101)

    def gap_sup(k):
        ell, _, _, _ = columns(g, k)
        return float(np.max(np.abs(g.local.deriv(grid * ell, k) - 1.0)))

    inner = max(gap_sup(k) for k in range(-M // 2, M // 2))
    outer = max(gap_sup(k) for k in list(range(-M, -M // 2)) + list(range(M // 2, M)))
    assert outer < inner


def test_wandering_intervals(small):
    rep = wandering_interval_check(small.g, min(50, small.table.M))
    assert rep["max_endpoint_deviation_forward"] <= 1e-10
    assert rep["max_endpoint_deviation_backward"] <= 1e-10
    assert rep["lengths_decreasing"]
    rep0 = wandering_interval_check(small.g, 0)
    assert rep0["max_endpoint_deviation_forward"] == 0.0
    with pytest.raises(ValueError):
        wandering_interval_check(small.g, small.table.M + 1)


def test_jump_table(small):
    g, seqs = small.g, small.seqs
    rows = {k: jump for k, _l, _r, jump in zip(*derivative_jump_table(g))}
    assert abs(rows[3] - float(seqs.alpha(3))) <= 1e-14
    assert rows[3] > 0.0
    assert abs(rows[-2] - (-float(seqs.alpha(-2)))) <= 1e-14
    assert rows[-2] > 0.0


def test_jump_scan_detects_nothing_off_midpoints(small):
    rep = derivative_jump_scan(small.g, 3000, seed=36)
    assert rep["max_offmid_jump"] <= 1e-9


def test_derivative_side_at_global_midpoint(small):
    g, tb, seqs = small.g, small.table, small.seqs
    for k in (2, -3):
        x = float(tb.mu_of(k))
        jump = g.derivative(x, "right") - g.derivative(x, "left")
        expected = float(seqs.alpha(k)) if k >= 1 else -float(seqs.alpha(k))
        assert abs(jump - expected) <= 1e-13


def test_derivative_refuses_an_unknown_side(small):
    # side is None, "left" or "right" at every point: an affine piece, a
    # gap's shoulder and midpoint, floats and arrays, g and the h_k family
    g, h, tb = small.g, small.g.local, small.table
    x_affine = float(tb.lam_of(4) + tb.ell_of(4)) + 1e-9
    for x in (x_affine, float(tb.lam_of(4)) + 0.2 * float(tb.ell_of(4)), float(tb.mu_of(4)),
              np.array([x_affine, float(tb.mu_of(4))])):
        with pytest.raises(ValueError, match="side"):
            g.derivative(x, side="up")
    ell = float(h.ell[4 + g.M])
    for u, k in ((0.2 * ell, 4), (0.5 * ell, 4), (np.array([0.2, 0.9]) * ell, np.array([4, 4]))):
        with pytest.raises(ValueError, match="side"):
            h.deriv(u, k, side="up")
    assert g.derivative(x_affine, side=None) == g.derivative(x_affine, side="right")


def test_swapped_jump_signs(swapped):
    g, seqs = swapped.g, swapped.seqs
    rows = {k: jump for k, _l, _r, jump in zip(*derivative_jump_table(g))}
    assert abs(rows[3] + float(seqs.alpha(3))) <= 1e-14


def test_plateau_region_smooth(small):
    # a sample point inside the plateau region of a gap has zero jump
    g, tb = small.g, small.table
    x = float(tb.lam_of(4)) + 0.44 * float(tb.ell_of(4))
    assert g.derivative(x, "left") == g.derivative(x, "right")


def test_local_diffeo_eval_surface(small):
    h = small.g.local
    ell, _, _, _ = columns(small.g, 2)
    u = 0.3 * ell
    mid = 0.5 * ell
    # one call over several gaps agrees with the one-gap calls
    ks = np.array([2, -5, 7])
    us = np.array([u, 0.3 * columns(small.g, -5)[0], 0.3 * columns(small.g, 7)[0]])
    assert np.array_equal(h.value(us, ks), [h.value(x, k) for x, k in zip(us, ks)])
    assert h.deriv(mid, 2, side="left") != h.deriv(mid, 2, side="right")
    v = h.value(u, 2)
    assert abs(h.invert(v, 2) - u) <= 1e-15



def test_invert_working_set(small):
    # 2**16 shoulder points of mixed gaps: each test and the Newton bracket
    # gather only the breakpoint columns they read (two (n, 5) row gathers
    # of the breakpoint tables put the peak at 26 MB), and the Newton state
    # is compacted one array at a time (the whole state at once: 18.5 MB)
    h = small.g.local
    rng = np.random.default_rng(0)
    n = 2**16
    k = rng.integers(-h.M, h.M, n)
    s = 0.375 * rng.random(n)
    s[::2] = 1.0 - s[::2]
    u = s * h.ell[k + h.M]
    v = h.value(u, k)
    tracemalloc.start()
    try:
        got = h.invert(v, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(got - u) / h.ell[k + h.M]) <= 1e-13
    assert peak <= 16 * 2**20


def test_construction_working_set(bench_build, profiles, traced_peak):
    # the monotone test and the breakpoint images run a block of gaps at a
    # time, and only h_k at 3/8, 1/2, 5/8 and 1 is stored: one pass over
    # all 8000 gaps with the breakpoints stored too peaked at 2.2 MB
    assert traced_peak(LocalDiffeo, bench_build.seqs, profiles) <= 2**20


def test_newton_one_profile_eval_per_profile_per_iteration(small, monkeypatch):
    # each Newton iteration reads eta and gamma_k once each, h_k and h_k'
    # from the one call: so the calls pair up (eta, gamma) at the same
    # points, both ask for both orders, and each pair sees new iterates.
    # Array points read through _read_array, a Python float through _read:
    # both are counted
    import denjoy_twist.circle_map as cm
    calls = []

    def counting(real):
        def counted(p, t, order=0, side=None, reflect=False):
            calls.append((p.kind, np.array(t, dtype=float), order))
            return real(p, t, order, side, reflect)
        return counted

    h = small.g.local
    ks = np.arange(-small.g.M, small.g.M)
    # both shoulders of every gap, plus and minus: one mixed batch, then one
    # point on its own
    u = np.concatenate([0.3 * h.ell, 0.8 * h.ell])
    k = np.tile(ks, 2)
    for v, kk in ((h.value(u, k), k), (float(h.value(0.2 * h.ell[3], 3 - small.g.M)), 3 - small.g.M)):
        with monkeypatch.context() as m:
            for name in ("_read", "_read_array"):
                m.setattr(cm, name, counting(getattr(cm, name)))
            calls.clear()
            h.invert(v, kk)
        assert [c[0] for c in calls] == ["eta", "gamma_plus"] * (len(calls) // 2)
        for (_, s_eta, o_eta), (_, s_gamma, o_gamma) in zip(calls[::2], calls[1::2]):
            assert o_eta == o_gamma == ("antiderivative", 0)
            assert np.array_equal(s_eta, s_gamma)
        iterates = [c[1] for c in calls[::2]]
        assert 2 <= len(iterates) < 20
        assert all(a.shape != b.shape or not np.array_equal(a, b)
                   for a, b in zip(iterates, iterates[1:]))


def test_scalar_lift_bitwise_equals_array_lift_at_piece_edges(small):
    # the scalar lift reads its pieces from Python arrays by bisect; at every
    # piece's left edge, one ulp either side and 1 - ulp, at each integer
    # shift k = -8 .. 8 of 0 and of y_start, one ulp either side, and at NaN
    # and +-inf it agrees bit for bit with the numpy path, gap and affine
    # pieces alike, NaN bits included and with no warning. Just below
    # y_start + k, y - y_start rounds up to k: the inverse must still find
    # the piece and round-trip
    g = small.g

    def around(e):
        return np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf)])

    shifts = np.arange(-8.0, 9.0)
    bad = [np.nan, np.inf, -np.inf]
    xs = np.concatenate([around(g._x_lo), [np.nextafter(1.0, 0.0)], around(shifts), bad])
    assert np.array_equal(g.lift_many(xs).view(np.int64),
                          np.array([g.lift(float(x)) for x in xs]).view(np.int64))
    near = around(g.y_start + shifts)
    ys = np.concatenate([around(g._y_lo), [np.nextafter(g.y_start + 1.0, 0.0)], near, bad])
    back = np.array([g.inverse_lift(float(y)) for y in ys])
    assert np.array_equal(g.inverse_lift_many(ys).view(np.int64), back.view(np.int64))
    assert np.isnan(back[-3:]).all()
    assert np.max(np.abs(g.lift_many(back[:-3]) - ys[:-3])) <= BOUNDS["roundtrip"]
    assert max(abs(g.lift(g.inverse_lift(y)) - y) for y in near.tolist()) <= BOUNDS["roundtrip"]


def test_derivative_of_nan_or_inf_is_nan(m16):
    # searchsorted files NaN after every piece start, so g' must not read
    # the last piece's slope there; inf % 1.0 is NaN too, with no warning
    g = m16.g
    bad = [math.nan, math.inf, -math.inf]
    for side in ("left", "right"):
        assert all(math.isnan(g.derivative(x, side)) for x in bad)
        got = g.derivative(np.array(bad + [0.3]), side)
        assert np.isnan(got[:3]).all() and got[3] == g.derivative(0.3, side)


def _same(a, b):
    """Bit for bit, sign bits included; NaN matches NaN whatever its bits."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(np.isnan(a), np.isnan(b)) and np.array_equal(
        a[~np.isnan(a)].view(np.int64), b[~np.isnan(b)].view(np.int64))


@pytest.mark.parametrize("bundle", ["small", "swapped", "m16"])
def test_float_route_bitwise_equals_array_route(bundle, request):
    # a Python float with an int gap is read on floats: at every gap, value,
    # both one-sided derivatives and the inverse at each breakpoint of h_k
    # +-1 ulp and at 16 seeded points, in u and in v, give the array route's
    # bits, as Python floats; NaN gives NaN. "swapped" reads gamma_minus
    # where the others read gamma_plus
    from denjoy_twist.circle_map import _BREAKS
    h = request.getfixturevalue(bundle).g.local
    M = h.M
    rng = np.random.default_rng(23)
    for k in range(-M, M):
        u = h.ell[k + M] * _BREAKS
        u = np.concatenate([u, np.nextafter(u, -np.inf), np.nextafter(u, np.inf),
                            h.ell[k + M] * rng.random(16), [np.nan]])
        v = np.append(0.0, h._bp_v[k + M])   # h_k(0) is 0.0, not stored
        v = np.concatenate([v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf),
                            h._bp_v[k + M, 3] * rng.random(16), [np.nan]])
        ks = np.full(u.size, k)
        for f, x, kw in ((h.value, u, {}), (h.deriv, u, {}), (h.deriv, u, {"side": "left"}),
                         (h.deriv, u, {"side": "right"}), (h.invert, v, {})):
            got = [f(xx, k, **kw) for xx in x.tolist()]
            assert all(type(g) is float for g in got)
            assert _same(got, f(x, ks, **kw)), (k, f.__name__, kw)
            assert np.isnan(got[-1])
