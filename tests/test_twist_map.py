import math

import numpy as np
import pytest

from denjoy_twist.circle_map import RigidRotation
from denjoy_twist.layout import circle_delta, frac_part
from denjoy_twist.twist_map import (build_twist_system, curve_side_check,
                                    diffusion_probe, dump_phase_portrait_csv,
                                    dump_segments_csv, extend_family,
                                    manifold_iterate_check, manifold_segment,
                                    marker_collinearity,
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

def test_segment_endpoints_formula(small):
    tb, seqs = small.table, small.seqs
    seg = manifold_segment(small.system, 1, "stable")
    mu1, ell1 = float(tb.mu_of(1)), float(tb.ell_of(1))
    assert abs(seg.markers[0, 0] - (mu1 - ell1 / 8.0)) <= 1e-15
    assert abs(seg.markers[2, 0] - (mu1 + ell1 / 8.0)) <= 1e-15
    assert abs(seg.slope - float(seqs.K(1))) == 0.0
    # height increments follow the slope exactly
    d = seg.markers[2, 1] - seg.markers[0, 1]
    assert abs(d - seg.slope * (ell1 / 4.0)) <= 1e-15


def test_stable_half_on_curve(small):
    sysm = small.system
    seg = manifold_segment(sysm, 2, "stable")
    xs = seg.base[0] + np.linspace(-seg.x_half_width, 0.0, 33)
    dev = np.abs(np.asarray(sysm.curve_height(xs)) - np.asarray(seg.height(xs)))
    assert np.max(dev) <= 1e-11
    seg = manifold_segment(sysm, -2, "unstable")
    xs = seg.base[0] + np.linspace(0.0, seg.x_half_width, 33)
    dev = np.abs(np.asarray(sysm.curve_height(xs)) - np.asarray(seg.height(xs)))
    assert np.max(dev) <= 1e-11


def test_segment_validation(small):
    with pytest.raises(ValueError):
        manifold_segment(small.system, 1, "diagonal")


def test_manifold_iteration(small):
    rep = manifold_iterate_check(small.system, min(50, small.table.M - 2))
    assert rep["max_image_distance"] <= 1e-10
    assert rep["max_ratio_error"] <= 1e-10
    assert rep["max_base_orbit_error"] <= 1e-10


def test_contraction_ratio_value(small):
    seqs = small.seqs
    sysm = small.system
    seg = manifold_segment(sysm, 3, "stable")
    xs = (seg.base[0] - seg.x_half_width, seg.base[0] + seg.x_half_width)
    x0, _ = sysm.forward_lift(xs[0], float(seg.height(xs[0])))
    x1, _ = sysm.forward_lift(xs[1], float(seg.height(xs[1])))
    ratio = (x1 - x0) / (xs[1] - xs[0])
    assert abs(ratio - float(seqs.ell(4)) / float(seqs.ell(3))) <= 1e-10


def test_extension_matches_direct_pullback(small):
    sysm = small.system
    seg1 = manifold_segment(sysm, 1, "stable")
    expected = np.array([sysm.backward_lift(x, r) for x, r in seg1.markers])
    seg0 = manifold_segment(sysm, 0, "stable")
    assert np.max(np.abs(seg0.markers - expected)) == 0.0
    assert marker_collinearity(seg0.markers) <= 1e-13
    assert seg0.in_linear_band
    # forward extension of the unstable segment
    seg_u1 = extend_family(sysm, "unstable", 1)[-1]
    assert seg_u1.in_linear_band
    assert marker_collinearity(seg_u1.markers) <= 1e-13


def test_family_commutation(small):
    # f applied to the k-th stable markers gives the (k+1)-th markers
    sysm = small.system
    for k in (1, 2, 5):
        a = manifold_segment(sysm, k, "stable")
        b = manifold_segment(sysm, k + 1, "stable")
        img = np.array([sysm.forward_lift(x, r) for x, r in a.markers])
        assert np.max(np.abs(np.asarray(frac_part(img[:, 0]))
                             - np.asarray(frac_part(b.markers[:, 0])))) <= 1e-10
        assert np.max(np.abs(img[:, 1] - b.markers[:, 1])) <= 1e-10


def test_curve_side(small):
    tb, seqs = small.table, small.seqs
    rep = curve_side_check(small.system)
    assert rep["zone_below_curve"] and rep["strict_sign_ok"]
    assert rep["max_formula_dev"] <= 1e-12
    # explicit value at mu_1 + ell_1/16
    seg = manifold_segment(small.system, 1, "stable")
    x = float(tb.mu_of(1)) + float(tb.ell_of(1)) / 16.0
    gap = float(small.system.curve_height(x)) - float(seg.height(x))
    assert abs(gap - float(seqs.alpha(1)) * float(tb.ell_of(1)) / 16.0) <= 1e-12
    assert gap > 0.0
    # the segment touches the curve at the base point
    assert abs(float(small.system.curve_height(seg.base[0])) - seg.base[1]) <= 1e-15


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
    assert rep.max_excursion <= 1e-11


def test_diffusion_off_curve_reports(small):
    tb = small.table
    theta0 = float(tb.mu_of(1)) + float(tb.ell_of(1)) / 16.0
    rep = diffusion_probe(small.system, theta0, -1e-3, 5000)
    assert rep.n_steps == 5000
    assert rep.max_excursion >= 1e-3
    ns, excs = zip(*rep.checkpoints)
    assert list(excs) == sorted(excs)  # running maxima are monotone
    rep2 = diffusion_probe(small.system, theta0, -1e-3, 5000)
    assert rep.as_dict() == rep2.as_dict()


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
    assert rep.max_excursion == max([1e-3] + exc)
