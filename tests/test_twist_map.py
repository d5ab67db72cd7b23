import math
import os
import tracemalloc

import numpy as np
import pytest

from denjoy_twist import twist_map
from denjoy_twist.circle_map import _INVERT_REL_TOL, RigidRotation
from denjoy_twist.cli import build_full_system
from denjoy_twist.config import ConfigError, load_config
from denjoy_twist.layout import circle_delta, points
from denjoy_twist.reporting import FD_STEP_REL
from denjoy_twist.twist_map import (base_segments, build_twist_system,
                                    curve_side_check, diffusion_probe,
                                    dump_phase_portrait_csv, dump_segments_csv,
                                    manifold_iterate_check,
                                    orbit_convergence_check)
from denjoy_twist.sequences import SeqParams


@pytest.fixture(scope="module")
def rigid():
    return build_twist_system(RigidRotation((math.sqrt(5.0) - 1.0) / 2.0))


# -- the generating function -------------------------------------------------

def test_phi_zero_for_rotation(rigid):
    xs = np.linspace(0.0, 2.0, 101)
    assert np.max(np.abs(rigid.phi(xs))) <= 1e-15


def test_phi_midpoint_values(small):
    # on each middle segment phi(mu_k) is the circle-consistent second
    # difference of the midpoints
    tb = small.table
    for k in (-20, -2, 0, 2, 20):
        mu = float(tb.mu_of(k))
        expected = (float(circle_delta(tb.mu_of(k + 1), mu))
                    + float(circle_delta(tb.mu_of(k - 1), mu)))
        assert abs(small.system.phi(mu) - expected) <= 1e-11


def test_phi_against_bisection_oracle(small):
    # independent inverse: bisect the lift to machine tightness
    g = small.g
    tb = small.table
    rng = np.random.default_rng(41)
    for k in (7, -7):
        x = float(tb.lam_of(k)) + rng.uniform(0.1, 0.9) * float(tb.ell_of(k))
        lo, hi = x - 1.0, x + 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if g.lift(mid) < x:
                lo = mid
            else:
                hi = mid
        ginv = 0.5 * (lo + hi)
        oracle = (g.lift(x) - x) + (ginv - x)
        assert abs(small.system.phi(x) - oracle) <= 1e-12


def test_phi_one_sided_derivatives(small):
    # at the gap midpoints the derivative jumps of g and g^{-1} cancel
    # exactly through the recurrence, leaving phi affine with slope m_k - 2
    # across the midpoint: the fit on J_k spans it, so an uncancelled jump
    # would read about alpha_k ell_k (3.5e-6 here) as fit deviation, as would
    # any curvature, and a wrong side's slope as slope deviation
    rep, seqs = small.system.phi_linearity_check(), small.seqs
    for k in (3, -3):
        i = rep["k"].tolist().index(k)
        assert abs(float(seqs.alpha(k))) * float(seqs.ell(k)) > 1e-6
        assert rep["slope_deviation"][i] <= 1e-10
        assert rep["fit_deviation"][i] <= 1e-12 * float(seqs.ell(k))


def test_phi_periodic(small):
    assert small.system.periodicity_check() <= 1e-13


def _shear_samples():
    """theta on [-4, 4) and r on [-3, 3) from a Kronecker set, then the
    signed zeros, an ulp below 1, a negative theta and |r| ~ 1e6."""
    th, v = points(512, 11, 2).T
    edge = [(0.0, -0.0), (-0.0, 0.0), (math.nextafter(1.0, 0.0), -1.0),
            (-3.7, -0.4), (0.61, 1e6 + 0.3), (0.12, -1e6 - 0.7)]
    return (np.append(8.0 * th - 4.0, [t for t, _ in edge]),
            np.append(6.0 * v - 3.0, [r for _, r in edge]))


def _bits(*xs):
    return [np.asarray(x, dtype=float).view(np.int64).tolist() for x in xs]


def test_phi_reads_the_fractional_part(small):
    # phi(x) == phi(x % 1.0) bitwise, as phi reads x % 1.0 first, on floats
    # and arrays; which is why phi_periodicity reads only rounding
    phi = small.system.phi
    th, r = _shear_samples()
    xs = np.concatenate([th, r, th + 1e6])
    assert _bits(phi(xs)) == _bits(phi(xs % 1.0))
    for x in xs.tolist():
        assert _bits(phi(x)) == _bits(phi(x % 1.0)), x
    # below an integer by under half an ulp of 1, x % 1.0 rounds up to 1.0,
    # and phi reads the fractional part 0.0 there (the test below)
    tiny = -1e-20
    assert tiny % 1.0 == 1.0
    assert abs(phi(tiny) - phi(0.0)) <= 2.0**-52


# below zero by under half an ulp of 1: x % 1.0 rounds each up to 1.0
_JUST_BELOW_ZERO = [-1e-20, -2.0**-54, -5e-324]


@pytest.mark.parametrize("route", [float, lambda x: np.array([x])],
                         ids=["float", "array"])
def test_fractional_part_just_below_an_integer(small, route):
    # the twist layer's fractional part reads 0.0 where x % 1.0 rounds up
    # to 1.0: phi reads g at 0, not at 1; theta' commutes bitwise with the
    # integer translation of r; and backward's theta stays in [0, 1)
    sysm = small.system
    phi0 = sysm.phi(0.0)
    for x in _JUST_BELOW_ZERO:
        assert x % 1.0 == 1.0
        assert _bits(sysm.phi(route(x))) == _bits(route(phi0))
        theta1 = sysm.forward(route(0.3), route(x))[0]
        assert _bits(theta1) == _bits(sysm.forward(route(0.3), route(1.0 + x))[0])
        assert _bits(theta1) == _bits(route(0.3))
    # w = phi(0) - r is below zero by an ulp of phi(0), far under half an
    # ulp of 1
    theta, _ = sysm.backward(route(0.0), route(math.nextafter(phi0, 1.0)))
    assert _bits(theta) == _bits(route(0.0))


def test_phi_mean_within_budget(small):
    assert abs(small.system.mean_check()) <= small.seqs.residual_mass + 1e-6


# -- the map -------------------------------------------------------------------

def test_forward_rigid(rigid):
    th, r = rigid.forward(0.2, 0.35)
    assert abs(th - 0.55) <= 1e-15 and r == 0.35


def test_roundtrip(small):
    assert small.system.roundtrip_check(3000, seed=42) <= 1e-12


def test_nan_sample_fails_the_check(small, monkeypatch):
    # one NaN phi value must surface in the reduction, not be dropped by it
    sysm = small.system
    clean = sysm.phi

    def with_nan(xs):
        out = clean(xs)
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(sysm, "phi", with_nan)
    assert math.isnan(sysm.roundtrip_check(50, seed=42))
    assert math.isnan(sysm.det_check(50, seed=44))


def test_scalar_and_array_steps_agree_bitwise(small):
    # one rule picks the scalar or the array lifts; fractional parts are
    # x % 1.0 on both paths, so floats and arrays give the same bits at
    # negative, integer and signed-zero r, theta an ulp below 1 or negative,
    # and |r| ~ 1e6
    sysm = small.system
    one_ulp_below = math.nextafter(1.0, 0.0)
    points = [(0.3, -0.25), (0.3, -2.0), (0.7, 3.0), (0.45, 0.0), (0.45, -0.0),
              (one_ulp_below, 0.01), (one_ulp_below, -1.0), (-0.2, 0.1),
              (-3.7, -0.4), (0.61, 1e6 + 0.3), (0.12, -1e6 - 0.7), (0.0, 0.0)]
    th = np.array([t for t, _ in points])
    r = np.array([v for _, v in points])
    for step in (sysm.forward, sysm.backward, sysm.forward_lift, sysm.backward_lift):
        arr_t, arr_r = step(th, r)
        for i, (t, v) in enumerate(points):
            ft, fr = step(t, v)
            assert type(ft) is float and type(fr) is float
            assert np.array_equal(np.array([ft, fr]).view(np.int64),
                                  np.array([arr_t[i], arr_r[i]]).view(np.int64)), (step, t, v)


def test_lifts_are_the_shear_form(small):
    # f~ is two shears, whatever phi is: forward_lift(theta, r) is
    # (theta + r, r + phi(theta + r)) and backward_lift(theta, r) is
    # (theta - r + phi(theta), r - phi(theta)), bitwise on floats and arrays;
    # which is why det_df and twist_positive, differenced over forward_lift,
    # read only rounding
    sysm, phi = small.system, small.system.phi
    th, r = _shear_samples()
    assert _bits(*sysm.forward_lift(th, r)) == _bits(th + r, r + phi(th + r))
    assert _bits(*sysm.backward_lift(th, r)) == _bits(th - r + phi(th), r - phi(th))
    for t, v in zip(th.tolist(), r.tolist()):
        assert _bits(*sysm.forward_lift(t, v)) == _bits(t + v, v + phi(t + v))
        assert _bits(*sysm.backward_lift(t, v)) == _bits(t - v + phi(t), v - phi(t))


def test_phi_of_nan_or_inf_is_the_float_routes_nan(small):
    # x % 1.0 at +-inf is NaN on floats; the array route gives the same
    # bits, with no warning
    sysm = small.system
    xs = np.array([np.nan, np.inf, -np.inf])
    for f in (sysm.phi, sysm.curve_height):
        floats = np.array([f(x) for x in xs.tolist()])
        assert np.isnan(floats).all()
        assert np.array_equal(f(xs).view(np.int64), floats.view(np.int64))


def test_steps_at_nan_or_inf_give_the_float_routes_nan(small):
    # every (theta, r) pair of NaN, +-inf and a finite value: each step's
    # array route gives NaN where the float route does, with no warning, and
    # the float route's bits elsewhere. A NaN's sign bit is not compared: it
    # follows which operand an add propagates, which numpy's loops and
    # Python's float ops pick differently.
    sysm = small.system
    values = [np.nan, np.inf, -np.inf, 0.3]
    th, r = (np.array(a) for a in zip(*[(t, v) for t in values for v in values]))
    for step in (sysm.forward, sysm.backward, sysm.forward_lift, sysm.backward_lift):
        arr = np.stack(step(th, r), axis=1)
        floats = np.array([step(t, v) for t, v in zip(th.tolist(), r.tolist())])
        nan = np.isnan(floats)
        assert np.array_equal(np.isnan(arr), nan), step
        assert np.array_equal(arr[~nan].view(np.int64), floats[~nan].view(np.int64)), step


def test_vertical_translation(small):
    rep = small.system.vertical_translation_check(seed=43)
    assert rep["max_theta_dev"] == 0.0
    assert rep["max_r_dev"] <= 5e-16


def test_det_and_twist(small):
    assert small.system.det_check(400, seed=44) <= 1e-9
    assert small.system.twist_check(seed=45)["max_fd_dev"] <= 1e-9


def test_invariant_curve(small):
    rep = small.system.verify_invariant_curve(4000, seed=46)
    assert rep["max_residual"] <= 1e-11


def test_invariant_curve_translated(small):
    rep = small.system.verify_invariant_curve(2000, seed=47)
    assert rep["max_residual_translated"] <= 1e-11


@pytest.mark.parametrize("omega", [
    1e-9,
    pytest.param(0.999999999, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the translated residual stays at 2.5e-10 for omega "
        "near 1 (CHANGES.md FOUND 26, ROADMAP item 3)")),
])
def test_invariant_curve_translated_near_rational(profiles, omega):
    # the verify check at the CLI's default seed and sample count: stepping
    # with a step formula of its own read 1.58e-10 at omega = 1e-9
    params = SeqParams(truncation_M=16, omega=omega)
    *_, system = build_full_system(params, profiles, False)
    rep = system.verify_invariant_curve(10000, seed=20260809)
    assert rep["max_residual_translated"] <= 1e-10


@pytest.mark.parametrize("omega", [
    SeqParams().omega,
    1e-9,
    pytest.param(0.999999999, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="g~^{-1}(g~(x)) misses x by 8.1e-11 for omega near 1 "
        "(CHANGES.md FOUND 47)")),
    pytest.param(0.500000001, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="g~^{-1}(g~(x)) misses x by 2.1e-11 for omega near 1/2 "
        "(CHANGES.md FOUND 47)")),
])
def test_lift_roundtrip_near_rational(profiles, omega):
    # the invariance check's samples at M=16: the translated residual near
    # rational omega is the map's own round trip, not its measurement
    params = SeqParams(truncation_M=16, omega=omega)
    *_, g, system = build_full_system(params, profiles, False)
    x = system.sample_points(10000, seed=20260809) % 1.0
    assert np.max(np.abs(g.inverse_lift_many(g.lift_many(x)) - x)) <= 1e-12


def test_invariant_curve_rigid(rigid):
    rep = rigid.verify_invariant_curve(500, seed=48)
    assert rep["max_residual"] <= 1e-14


# -- linearity and regularity ---------------------------------------------------

def test_phi_linearity(small):
    rep = small.system.phi_linearity_check()
    assert rep["max_fit_deviation"] <= 1e-11
    assert rep["max_slope_deviation"] <= 1e-10
    assert rep["max_const_deviation"] <= 1e-10
    assert rep["local_offset_dev_k1"] <= 1e-11
    idx5 = rep["k"].tolist().index(5)
    assert rep["fit_deviation"][idx5] <= 1e-11


@pytest.mark.parametrize("params", [
    SeqParams(delta=0.01),
    SeqParams(bigC=1e4, truncation_M=16),
    SeqParams(truncation_M=32000),
], ids=["delta0.01", "C1e4_M16", "M32000"])
def test_phi_slope_sound_maps(profiles, params):
    # fitting global phi read 4.04e-10, 1.07e-10 and 2.71e-9 here, the float
    # floor of O(1) values differenced over ell_k/4; zeta_k in gap-local
    # coordinates reads about 1e-15
    *_, system = build_full_system(params, profiles, False)
    assert system.phi_linearity_check()["max_slope_deviation"] <= 1e-10


def test_phi_linearity_catches_band_violation(profiles):
    # h_{k-1}^{-1}(J_k) leaves the linear middle of gap k-1 here, so phi is
    # not affine on J_k (ROADMAP item 6): the gap-local fit still sees it
    params = SeqParams(omega=0.7071067811865476, delta=1.0, bigC=20.0,
                       truncation_M=64)
    *_, system = build_full_system(params, profiles, False)
    assert system.phi_linearity_check()["max_slope_deviation"] > 1e-10


def test_phi_linearity_working_set_is_blocked(profiles):
    # the gaps are fitted a block at a time: the peak stays at a few MB
    # however many gaps there are (a one-pass evaluation took 61 MB here)
    *_, system = build_full_system(SeqParams(truncation_M=2000), profiles, False)
    tracemalloc.start()
    try:
        rep = system.phi_linearity_check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep["k"]) == 3999
    assert peak <= 8 * 2**20


def test_regularity_scan_working_set(profiles, traced_peak, one_cpu):
    # each block's terms are reduced to their sups as they are formed and
    # freed with the block: the one-block peak of 7.1 MB at M=125 (249
    # gaps, four blocks) came from keeping every term and the last block's
    # arrays alive. On one CPU, so that every block runs in the process that
    # measures
    *_, system = build_full_system(SeqParams(truncation_M=125), profiles, False)
    assert traced_peak(system.second_derivative_scan) <= 5 * 2**20


def test_phi_linear_fit_rigid(rigid):
    xs = np.linspace(0.1, 0.2, 64)
    vals = rigid.phi(xs)
    slope = np.polyfit(xs, vals, 1)[0]
    assert abs(slope) <= 1e-12


def test_regularity_scan(small):
    rep = small.system.second_derivative_scan()
    summ = rep.summary()
    assert summ["tail_below_head"]
    assert summ["max_rel_fd_dev"] <= 1e-6
    assert summ["max_abs_analytic_dev"] <= 1e-9 * max(rep.sup_d2)
    # inside the middle segments zeta is affine, so the terms vanish
    ks = np.asarray(rep.k)
    assert max(rep.sup_zeta) < 1.0


def test_regularity_scan_inverts_each_point_once(small, monkeypatch, one_cpu):
    # M=64 gives two 64-gap blocks; each inverts its grid once, and its
    # finite-difference stencil is taken about that inversion, in
    # h_{k-1}^{-1} coordinates, with no inversion of its own. The count is
    # per block whichever process runs it: on one CPU no block runs in a
    # child, where these counters cannot see it
    h, calls = small.g.local, []
    invert = h.invert
    monkeypatch.setattr(h, "invert", lambda v, k: calls.append(k) or invert(v, k))
    small.system.second_derivative_scan()
    assert len(calls) == 2 * 1


def test_regularity_fd_check_not_floored_by_inversion(profiles):
    # a stencil point inverted to Newton's tolerance carries a relative error
    # up to _INVERT_REL_TOL / fd_step_rel into the difference: 4.37e-8 here
    # when each point was inverted; about one inversion it reads 1.1e-9
    *_, system = build_full_system(SeqParams(truncation_M=125), profiles, False)
    rep = system.second_derivative_scan(fd_step_rel=1e-6)
    assert rep.summary()["max_rel_fd_dev"] <= _INVERT_REL_TOL / 1e-6


@pytest.mark.parametrize("swap", [False, True])
def test_regularity_stencil_stays_in_its_half_gap(profiles, swap):
    # the scan's stencil is v + c delta, c in {+-1, +-2}, about
    # v = h_{k-1}^{-1}(u) with delta = hstep / h_{k-1}'(v). At the largest
    # grid the config accepts, 2498 (4 grid FD_STEP_REL < 1), its ends lie
    # strictly inside v's half of gap k-1, and h_{k-1} takes them strictly
    # inside u's half of gap k: where h_{k-1} is affine, 2 (1/(4 grid) -
    # FD_STEP_REL) ell = 1.6e-7 ell inside. A step hstep not divided by
    # h_{k-1}'(v) overshoots by 2.5e-6 ell
    n_grid = 2498
    load_config(overrides=[f"regularity.grid={n_grid}"])
    with pytest.raises(ConfigError, match="regularity.grid"):
        load_config(overrides=[f"regularity.grid={n_grid + 2}"])
    M = 125
    *_, system = build_full_system(SeqParams(truncation_M=M), profiles, swap)
    h, eps = system.g.local, np.finfo(float).eps
    k = np.arange(-M + 1, M)[:, None]
    ell_k, ell_km1 = h.ell[k + M], h.ell[k - 1 + M]
    u = (np.arange(n_grid) + 0.5) / n_grid * ell_k
    v = h.invert(u, k - 1)
    delta = FD_STEP_REL * ell_k / h.deriv(v, k - 1)

    def outside_half(x, at, ell):
        """How far x lies outside the half of [0, ell] that holds at, in
        units of eps ell."""
        lo = np.where(at < ell / 2, 0.0, ell / 2)
        return np.maximum(lo - x, x - (lo + ell / 2)) / (eps * ell)

    for c in (-2.0, 2.0):
        w = v + c * delta
        assert np.max(outside_half(w, v, ell_km1)) < 0.0
        assert np.max(outside_half(h.value(w, k - 1), u, ell_k)) < 0.0


def test_regularity_scan_evaluates_profiles_at_st_once(small, monkeypatch, one_cpu):
    # three s-grid calls, then per block: psi_k and psi_{k-1} (two calls
    # each) at each of the four finite-difference stencil points, psi_k at
    # the grid, and one two-order call per profile at st, where psi_{k-1} is
    # read from (22 per block when dzeta evaluated it again); on one CPU, so
    # that every block is counted in this process
    calls = []
    real = twist_map.profile_eval
    monkeypatch.setattr(twist_map, "profile_eval",
                        lambda *a, **kw: calls.append(a[2]) or real(*a, **kw))
    small.system.second_derivative_scan()
    assert len(calls) == 3 + 2 * 20
    assert calls.count((1, 0)) == 2 * 2


def test_zeta_affine_on_middle_segment(small):
    # direct check on one gap: D2 zeta == 0 on the interior of J_k
    h = small.g.local
    k = 4
    ell_k = h.ell[k + small.g.M]
    u = ell_k * np.linspace(0.39, 0.61, 41)
    u = u[np.abs(u / ell_k - 0.5) > 5e-3]
    v = h.invert(u, k - 1)
    zeta = h.value(u, k) + v - 2.0 * u
    slope = (zeta[-1] - zeta[0]) / (u[-1] - u[0])
    dev = zeta - (zeta[0] + slope * (u - u[0]))
    assert np.max(np.abs(dev)) <= 1e-11 * ell_k


# -- segments ------------------------------------------------------------------

def _segment(system, k):
    """Base point, slope and half-width of base segment k, as floats."""
    return tuple(float(a[0]) for a in base_segments(system, [k]))


def _markers(system, k):
    """(x, r) at the left end, midpoint and right end of base segment k."""
    mu, base_r, slope, hw = _segment(system, k)
    xs = mu + hw * np.array([-1.0, 0.0, 1.0])
    return np.column_stack([xs, base_r + slope * (xs - mu)])


def _collinearity(markers):
    """Vertical deviation of the middle marker from the chord."""
    (x0, r0), (x1, r1), (x2, r2) = markers
    return abs(float(r1 - (r0 + (r2 - r0) * (x1 - x0) / (x2 - x0))))


def test_segment_endpoints_formula(small):
    tb, seqs = small.table, small.seqs
    markers = _markers(small.system, 1)
    slope = _segment(small.system, 1)[2]
    mu1, ell1 = float(tb.mu_of(1)), float(tb.ell_of(1))
    assert abs(markers[0, 0] - (mu1 - ell1 / 8.0)) <= 1e-15
    assert abs(markers[2, 0] - (mu1 + ell1 / 8.0)) <= 1e-15
    assert abs(slope - float(seqs.K(1))) == 0.0
    # height increments follow the slope exactly
    d = markers[2, 1] - markers[0, 1]
    assert abs(d - slope * (ell1 / 4.0)) <= 1e-15


def test_stable_half_on_curve(small):
    # the half left of mu_k lies on the curve for stable segments (k >= 1),
    # the half right of it for unstable ones (k <= 0)
    sysm = small.system
    for k, lo, hi in ((2, -1.0, 0.0), (-2, 0.0, 1.0)):
        mu, base_r, slope, hw = _segment(sysm, k)
        xs = mu + np.linspace(lo * hw, hi * hw, 33)
        dev = np.abs(sysm.curve_height(xs) - (base_r + slope * (xs - mu)))
        assert np.max(dev) <= 1e-11


def test_manifold_iteration(small):
    rep = manifold_iterate_check(small.system, min(50, small.table.M - 2))
    assert rep["max_image_distance"] <= 1e-10
    assert rep["max_ratio_error"] <= 1e-10
    assert rep["max_base_orbit_error"] <= 1e-10


def test_contraction_ratio_value(small):
    seqs = small.seqs
    sysm = small.system
    (xa, ra), _, (xb, rb) = _markers(sysm, 3)
    x0, _ = sysm.forward_lift(float(xa), float(ra))
    x1, _ = sysm.forward_lift(float(xb), float(rb))
    ratio = (x1 - x0) / (xb - xa)
    assert abs(ratio - float(seqs.ell(4)) / float(seqs.ell(3))) <= 1e-10


def test_extension_matches_direct_pullback(small):
    # f^{-1}(S_1) and f(U_0) stay straight: the markers start inside J_1 and
    # J_0, where the map is affine; the array step equals marker-by-marker
    # scalar steps bitwise
    sysm, tb = small.system, small.table
    for k, step in ((1, sysm.backward_lift), (0, sysm.forward_lift)):
        markers = _markers(sysm, k)
        lo, hi = tb.J_of(k)
        xs = markers[:, 0] % 1.0
        assert np.all((xs >= lo - 1e-15) & (xs <= hi + 1e-15))
        image = np.column_stack(step(markers[:, 0], markers[:, 1]))
        expected = np.array([step(float(x), float(r)) for x, r in markers])
        assert np.max(np.abs(image - expected)) == 0.0
        assert _collinearity(image) <= 1e-13


def test_family_commutation(small):
    # f applied to the k-th stable markers gives the (k+1)-th markers
    sysm = small.system
    for k in (1, 2, 5):
        a, b = _markers(sysm, k), _markers(sysm, k + 1)
        img = np.array([sysm.forward_lift(x, r) for x, r in a])
        assert np.max(np.abs(img[:, 0] % 1.0 - b[:, 0] % 1.0)) <= 1e-10
        assert np.max(np.abs(img[:, 1] - b[:, 1])) <= 1e-10


def test_curve_side(small):
    tb, seqs = small.table, small.seqs
    rep = curve_side_check(small.system)
    assert rep["zone_below_curve"] and rep["strict_sign_ok"]
    assert rep["max_formula_dev"] <= 1e-12
    # explicit value at mu_1 + ell_1/16
    mu, base_r, slope, _ = _segment(small.system, 1)
    x = float(tb.mu_of(1)) + float(tb.ell_of(1)) / 16.0
    gap = float(small.system.curve_height(x)) - (base_r + slope * (x - mu))
    assert abs(gap - float(seqs.alpha(1)) * float(tb.ell_of(1)) / 16.0) <= 1e-12
    assert gap > 0.0
    # the segment touches the curve at the base point
    assert abs(float(small.system.curve_height(mu)) - base_r) <= 1e-15


def test_curve_side_swapped(swapped):
    rep = curve_side_check(swapped.system)
    assert not rep["zone_below_curve"]
    assert rep["strict_sign_ok"]
    assert rep["max_gap"] < 0.0


def test_orbit_convergence(small):
    sysm = small.system
    seqs = small.seqs
    d0 = float(small.table.ell_of(1)) / 16.0
    rep = orbit_convergence_check(sysm, d0, 20)
    assert rep["max_rel_ratio_error"] <= 1e-6
    assert abs(rep["d_x"][1] / rep["d_x"][0]
               - float(seqs.ell(2)) / float(seqs.ell(1))) <= 1e-10
    base_rep = orbit_convergence_check(sysm, 0.0, 5)
    assert max(base_rep["d_x"]) == 0.0


# -- diffusion probe -------------------------------------------------------------

def test_diffusion_on_curve(small):
    rep = diffusion_probe(small.system, 0.3, 0.0, 500)
    assert rep["max_excursion"] <= 1e-11


def test_diffusion_off_curve_reports(small):
    tb = small.table
    theta0 = float(tb.mu_of(1)) + float(tb.ell_of(1)) / 16.0
    rep = diffusion_probe(small.system, theta0, -1e-3, 5000)
    assert rep["n_steps"] == 5000
    assert rep["max_excursion"] >= 1e-3
    ns, excs = zip(*rep["checkpoints"])
    assert list(excs) == sorted(excs)  # running maxima are monotone
    rep2 = diffusion_probe(small.system, theta0, -1e-3, 5000)
    assert rep == rep2


def test_dumps(small, tmp_path):
    dump_segments_csv(small.system, -3, 3, tmp_path / "seg.csv")
    lines = (tmp_path / "seg.csv").read_text().strip().splitlines()
    assert lines[0] == "k,kind,marker,x,r"
    assert len(lines) == 1 + 3 * 7
    dump_phase_portrait_csv(small.system, [(0.2, 0.6)], 10,
                            tmp_path / "portrait.csv", curve_samples=16)
    lines = (tmp_path / "portrait.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 16 + 11


def test_portrait_streams_an_orbit_longer_than_a_call(small, tmp_path, monkeypatch,
                                                      traced_peak):
    # an orbit of more than _PORTRAIT_ROWS rows is written as it is stepped,
    # in this process: its 20001 rows (about 2.9 MB of text) are never held
    monkeypatch.setattr(twist_map, "_PORTRAIT_ROWS", 1000)
    monkeypatch.setattr(os, "fork", _refuse_fork)
    path = tmp_path / "portrait.csv"
    peak = traced_peak(dump_phase_portrait_csv, small.system,
                       [(0.2, 0.6), (0.7, 0.4)], 20000, path, 16)
    assert path.read_text().count("\n") == 1 + 16 + 2 * 20001
    assert peak <= 2**20


def _refuse_fork():
    raise AssertionError("os.fork called")


def test_diffusion_reads_the_height_its_step_computed(small):
    # the probe takes gamma(theta_n) from the step, not from a second lift:
    # the same report as stepping with forward and re-reading curve_height
    system = small.system
    tb = small.table
    theta0 = float(tb.mu_of(1)) + float(tb.ell_of(1)) / 16.0
    th, r = theta0, float(system.curve_height(theta0)) - 1e-3
    exc = []
    for _ in range(400):
        th1, r1, height = system._step(th, r)
        assert (th1, r1) == system.forward(th, r)
        th, r = system.forward(th, r)
        assert height == float(system.curve_height(th))
        exc.append(abs(r - float(system.curve_height(th))))
    rep = diffusion_probe(system, theta0, -1e-3, 400)
    assert rep["max_excursion"] == max([1e-3] + exc)
