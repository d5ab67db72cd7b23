import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from denjoy_twist.profiles import (CalibrationError, _check_mass, _cumulative_table,
                                   bump, calibrate_profiles, export_profile_csv,
                                   profile_eval, smooth_step, smooth_step_d1)


def test_smooth_step_tails_and_symmetry():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(2.0) == 1.0
    assert smooth_step(0.5) == 0.5
    assert abs(smooth_step(0.3) + smooth_step(0.7) - 1.0) <= 1e-14
    # strictly increasing away from the flat tails (the kernel saturates to
    # the constant within an ulp near the ends)
    s = np.linspace(0.05, 0.95, 91)
    assert np.all(np.diff(smooth_step(s)) > 0)


def test_smooth_step_derivatives_match_fd():
    s = np.linspace(0.05, 0.95, 19)
    h = 1e-6
    fd = (smooth_step(s + h) - smooth_step(s - h)) / (2 * h)
    assert np.max(np.abs(fd - smooth_step_d1(s))) <= 1e-7 * max(
        1.0, np.max(np.abs(smooth_step_d1(s))))


def test_plateau_values(profiles):
    assert profile_eval(profiles.eta, 0.5, 0) == 1.0
    assert profile_eval(profiles.eta, 0.375, 0) == 1.0
    assert profile_eval(profiles.gamma_plus, 0.55, 0) == 1.0
    assert profile_eval(profiles.gamma_plus, 0.3, 0) == 0.0
    assert profile_eval(profiles.gamma_minus, 0.45, 0) == 1.0
    assert profile_eval(profiles.gamma_minus, 0.7, 0) == 0.0


def test_integral_constraints(profiles):
    assert abs(profile_eval(profiles.eta, 1.0, "antiderivative") - 1.0) <= 1e-12
    assert abs(profile_eval(profiles.gamma_plus, 1.0, "antiderivative")) <= 1e-12
    assert abs(profile_eval(profiles.gamma_minus, 1.0, "antiderivative")) <= 1e-12


def test_gamma_plus_negative_lobe_against_quadrature(profiles):
    # the zero-integral constraint forces a negative lobe, carried on
    # (11/16, 15/16); the independent oracle is adaptive quadrature of the
    # raw lobe kernel against the positive mass
    val = profile_eval(profiles.gamma_plus, 0.8, 0)
    assert val < 0.0
    c = profiles.gamma_plus.shoulder_coefficient
    expected = -c * bump(4.0 * (0.8 - 0.6875))
    assert abs(val - expected) <= 1e-15
    # past the lobe the profile is identically zero again
    assert profile_eval(profiles.gamma_plus, 0.95, 0) == 0.0
    lobe_mass, _ = quad(lambda t: c * bump(4.0 * (t - 0.6875)), 0.6875, 0.9375,
                        epsabs=1e-14)
    pos_mass, _ = quad(lambda t: float(profile_eval(profiles.gamma_plus, t, 0)),
                       0.5, 0.6875, epsabs=1e-14, limit=200)
    assert abs(lobe_mass - pos_mass) <= 1e-12


@pytest.mark.parametrize("kernel", [smooth_step, bump])
def test_hermite_table_matches_scipy_spline(kernel):
    # scipy is the oracle: the same nodes, values and slopes give the same
    # floats at the nodes, one ulp either side, the ends, points outside
    # [0, 1] and random points; NaN stays NaN
    table, mass = _cumulative_table(kernel, kernel)
    x = np.append(table._rows[0], 1.0)
    assert np.array_equal(x, np.arange(table.n + 1) / table.n)   # exactly i/n
    y = np.append(table._rows[4], mass)
    d = np.append(table._rows[3], kernel(x[-1]))
    spline = CubicHermiteSpline(x, y, d)
    outside = [-1.0, -1e-3, -5e-324, 1.0 + 2.0**-52, 1.001, 2.5, 1e3]
    pts = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                          [0.0, 1.0], outside, np.random.default_rng(14).random(20000)])
    ours, ref = table(pts), spline(pts)
    assert np.array_equal(ours.view(np.int64), ref.view(np.int64))
    assert table(1.0) == mass
    nan = np.array([np.nan, 0.5, np.nan])
    assert np.array_equal(np.isnan(table(nan)), [True, False, True])
    assert np.array_equal(np.isnan(spline(nan)), [True, False, True])


def test_mass_check_against_quad(profiles):
    for kernel, mass in ((smooth_step, profiles.step_mass),
                         (bump, profiles.bump_mass)):
        q, err = _check_mass(kernel)
        ref, _ = quad(lambda s: float(kernel(s)), 0.0, 1.0, epsabs=1e-15, limit=200)
        assert abs(q - ref) <= 1e-14
        assert abs(q - mass) <= err <= 1e-13
    assert profiles.achieved_error <= 1e-13


def test_calibration_coefficients_positive(profiles):
    # plateau of height 1 on a length-1/4 region contributes 1/4 < 1, so the
    # eta shoulders must carry extra mass; the gamma positive lobe has mass
    # >= 1/8 so the negative lobe scale is positive too
    assert profiles.eta.shoulder_coefficient > 0.0
    assert profiles.gamma_plus.shoulder_coefficient > 0.0


def test_recalibration_consistency(profiles):
    again = calibrate_profiles(1e-10)
    assert abs(again.eta.shoulder_coefficient
               - profiles.eta.shoulder_coefficient) <= 1e-10
    assert again.gamma_plus.shoulder_coefficient == profiles.gamma_plus.shoulder_coefficient


def test_calibration_failure_signalled():
    with pytest.raises(CalibrationError):
        calibrate_profiles(1e-18)
    with pytest.raises(ValueError):
        calibrate_profiles(0.0)


def test_eta_mirror_symmetry_exact(profiles):
    rng = np.random.default_rng(11)
    t = rng.random(1000)
    left = profile_eval(profiles.eta, t, 0)
    right = profile_eval(profiles.eta, 1.0 - t, 0)
    assert np.max(np.abs(left - right)) <= 1e-14


def test_eta_nonnegative_and_supported(profiles):
    t = np.linspace(0.0, 1.0, 10001)
    v = profile_eval(profiles.eta, t, 0)
    assert np.all(v >= 0.0)
    outside = (t < 0.25) | (t > 0.75)
    assert np.all(v[outside] == 0.0)
    assert np.all(profile_eval(profiles.gamma_plus, t[t < 0.5], 0) == 0.0)
    assert np.all(profile_eval(profiles.gamma_minus, t[t > 0.5], 0) == 0.0)


def test_gamma_minus_is_exact_mirror(profiles):
    rng = np.random.default_rng(12)
    t = rng.random(500)
    gm = profile_eval(profiles.gamma_minus, t, 0)
    gp = profile_eval(profiles.gamma_plus, 1.0 - t, 0)
    assert np.all(gm == gp)


@pytest.mark.parametrize("kind", ["eta", "gamma_plus", "gamma_minus"])
def test_derivatives_match_central_differences(profiles, kind):
    p = getattr(profiles, kind)
    # stay on the smooth pieces, away from the jump and branch seams
    rng = np.random.default_rng(13)
    t = rng.random(400)
    t = t[(np.abs(t - 0.5) > 1e-3)]
    h = 1e-5
    v1 = profile_eval(p, t, 1)
    fd1 = (profile_eval(p, t + h, 0) - profile_eval(p, t - h, 0)) / (2 * h)
    scale1 = np.max(np.abs(v1)) + 1.0
    assert np.max(np.abs(fd1 - v1)) / scale1 <= 1e-5
    v2 = profile_eval(p, t, 2)
    fd2 = (profile_eval(p, t + h, 1) - profile_eval(p, t - h, 1)) / (2 * h)
    scale2 = np.max(np.abs(v2)) + 1.0
    assert np.max(np.abs(fd2 - v2)) / scale2 <= 1e-5


@pytest.mark.parametrize("kind", ["eta", "gamma_plus", "gamma_minus"])
def test_antiderivative_recovers_profile(profiles, kind):
    p = getattr(profiles, kind)
    t = np.linspace(0.003, 0.997, 331)
    t = t[np.abs(t - 0.5) > 2e-3]
    h = 1e-6
    fd = (profile_eval(p, t + h, "antiderivative")
          - profile_eval(p, t - h, "antiderivative")) / (2 * h)
    vals = profile_eval(p, t, 0)
    assert np.max(np.abs(fd - vals)) <= 1e-9 * (np.max(np.abs(vals)) + 1.0)


def test_one_sided_values_at_jump(profiles):
    gp = profiles.gamma_plus
    assert profile_eval(gp, 0.5, 0) == 0.0
    assert profile_eval(gp, 0.5, 0, side="right") == 1.0
    assert profile_eval(gp, 0.5, 0, side="left") == 0.0
    gm = profiles.gamma_minus
    assert profile_eval(gm, 0.5, 0) == 0.0
    assert profile_eval(gm, 0.5, 0, side="left") == 1.0
    # derivative limits vanish on both sides of the jump
    assert profile_eval(gp, 0.5, 1, side="left") == 0.0
    assert profile_eval(gp, 0.5, 1, side="right") == 0.0


def test_one_sided_signal_at_jump(profiles):
    from denjoy_twist.profiles import OneSidedLimitRequired
    for p in (profiles.gamma_plus, profiles.gamma_minus):
        for order in (1, 2):
            with pytest.raises(OneSidedLimitRequired):
                profile_eval(p, 0.5, order)
    # eta is smooth there: no signal
    assert profile_eval(profiles.eta, 0.5, 1) == 0.0


def test_order_validation(profiles):
    with pytest.raises(ValueError):
        profile_eval(profiles.eta, 0.3, 3)
    with pytest.raises(ValueError):
        profile_eval(profiles.eta, 0.3, 1, side="up")


def test_csv_export(profiles, tmp_path):
    path = tmp_path / "profiles.csv"
    export_profile_csv(profiles, path, n=101)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "profile,t,value,d1,d2,antiderivative"
    assert len(lines) == 1 + 3 * 101
