import math

import numpy as np
import pytest

from denjoy_twist.circle_map import RigidRotation
from denjoy_twist.layout import circle_delta
from denjoy_twist.twist_map import (base_segments, build_twist_system,
                                    curve_side_check, diffusion_probe,
                                    dump_phase_portrait_csv, dump_segments_csv,
                                    manifold_iterate_check,
                                    orbit_convergence_check)


@pytest.fixture(scope="module")
def rigid():
    return build_twist_system(RigidRotation((math.sqrt(5.0) - 1.0) / 2.0))


# -- the generating function -------------------------------------------------

def test_phi_zero_for_rotation(rigid):
    xs = np.linspace(0.0, 2.0, 101)
    assert np.max(np.abs(rigid.phi.eval(xs))) <= 1e-15


def test_phi_midpoint_values(small):
    # on each middle segment phi(mu_k) is the circle-consistent second
    # difference of the midpoints
    tb = small.table
    for k in (-20, -2, 0, 2, 20):
        mu = float(tb.mu_of(k))
        expected = (float(circle_delta(tb.mu_of(k + 1), mu))
                    + float(circle_delta(tb.mu_of(k - 1), mu)))
        assert abs(small.system.phi.eval(mu) - expected) <= 1e-11


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
        assert abs(small.system.phi.eval(x) - oracle) <= 1e-12


def test_phi_one_sided_derivatives(small):
    # at the gap midpoints the derivative jumps of g and g^{-1} cancel
    # exactly through the recurrence, leaving phi affine with slope m_k - 2
    tb, seqs, phi = small.table, small.seqs, small.system.phi
    for k in (3, -3):
        x = float(tb.mu_of(k))
        dl = phi.deriv(x, side="left")
        dr = phi.deriv(x, side="right")
        assert abs(dr - dl) <= 1e-12
        assert abs(dl - (float(seqs.m(k)) - 2.0)) <= 1e-10
        assert abs(phi.second_deriv(x, side="left")) <= 1e-9
        assert abs(phi.second_deriv(x, side="right")) <= 1e-9
    # away from midpoints the sides agree too
    x = float(tb.lam_of(3)) + 0.3 * float(tb.ell_of(3))
    assert abs(phi.deriv(x, side="left") - phi.deriv(x, side="right")) <= 1e-12


def test_phi_periodic(small):
    assert small.system.periodicity_check() <= 1e-13


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
    phi = small.system.phi
    clean = phi.eval

    def with_nan(xs):
        out = clean(xs)
        out.flat[0] = np.nan
        return out

    monkeypatch.setattr(phi, "eval", with_nan)
    assert math.isnan(small.system.roundtrip_check(50, seed=42))
    assert math.isnan(small.system.det_check(50, seed=44))


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
    rep = small.system.verify_invariant_curve(2000, seed=47, translate=1)
    assert rep["max_residual"] <= 1e-11


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
    idx5 = rep["k"].index(5)
    assert rep["fit_deviation"][idx5] <= 1e-11


def test_phi_linear_fit_rigid(rigid):
    xs = np.linspace(0.1, 0.2, 64)
    vals = rigid.phi.eval(xs)
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
    assert lines[0] == "k,kind,marker,x,r,in_linear_band"
    assert len(lines) == 1 + 3 * 7
    dump_phase_portrait_csv(small.system, [(0.2, 0.6)], 10,
                            tmp_path / "portrait.csv", curve_samples=16)
    lines = (tmp_path / "portrait.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 16 + 11


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
