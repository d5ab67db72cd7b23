import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from denjoy_twist.profiles import (_TABLE_PANELS, CalibrationError, _check_mass,
                                   _cumulative_table, _gauss_legendre, bump,
                                   calibrate_profiles, export_profile_csv,
                                   profile_eval, smooth_step)


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
    for order in (1, 2):
        fd = (smooth_step(s + h, order - 1) - smooth_step(s - h, order - 1)) / (2 * h)
        exact = smooth_step(s, order)
        assert np.max(np.abs(fd - exact)) <= 1e-7 * max(1.0, np.max(np.abs(exact)))


def test_plateau_values(profiles):
    assert profile_eval(profiles.eta, 0.5, 0) == 1.0
    assert profile_eval(profiles.eta, 0.375, 0) == 1.0
    assert profile_eval(profiles.gamma_plus, 0.55, 0) == 1.0
    assert profile_eval(profiles.gamma_plus, 0.3, 0) == 0.0
    assert profile_eval(profiles.gamma_plus, 0.45, 0, reflect=True) == 1.0
    assert profile_eval(profiles.gamma_plus, 0.7, 0, reflect=True) == 0.0


def test_integral_constraints(profiles):
    assert abs(profile_eval(profiles.eta, 1.0, "antiderivative") - 1.0) <= 1e-12
    assert abs(profile_eval(profiles.gamma_plus, 1.0, "antiderivative")) <= 1e-12
    assert abs(profile_eval(profiles.gamma_plus, 1.0, "antiderivative", reflect=True)) <= 1e-12


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
    table, (mass,) = _cumulative_table((kernel,))
    x = np.arange(table.n + 1) / table.n
    assert np.array_equal(x, np.linspace(0.0, 1.0, table.n + 1))   # nodes exactly i/n
    y = np.append(table.coef[0, 3], mass)
    d = np.append(table.coef[0, 2], kernel(x[-1]))
    spline = CubicHermiteSpline(x, y, d)
    outside = [-1.0, -1e-3, -5e-324, 1.0 + 2.0**-52, 1.001, 2.5, 1e3]
    pts = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                          [0.0, 1.0], outside, np.random.default_rng(14).random(20000)])
    ours, ref = table(pts)[0], spline(pts)
    assert np.array_equal(ours.view(np.int64), ref.view(np.int64))
    assert table(1.0)[0] == mass
    nan = np.array([np.nan, 0.5, np.nan])
    assert np.array_equal(np.isnan(table(nan)[0]), [True, False, True])
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


@pytest.mark.parametrize("order", [12, 20])
def test_gauss_legendre_table_equals_leggauss(order):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    got_nodes, got_weights = _gauss_legendre(order)
    assert got_nodes.tobytes() == nodes.tobytes()
    assert got_weights.tobytes() == weights.tobytes()


def test_calibration_working_set(traced_peak):
    # the quadrature runs 512 panels per kernel call: one call over all
    # 4096 panels of both kernels peaked at 3.9 MB
    assert traced_peak(calibrate_profiles, 1e-13) <= 2**20


def test_calibration_failure_signalled():
    with pytest.raises(CalibrationError):
        calibrate_profiles(1e-18)
    with pytest.raises(ValueError):
        calibrate_profiles(0.0)


def _reader(profiles, kind):
    """profile_eval of one profile by name, gamma_minus being gamma_plus
    read with reflect set."""
    p = profiles.gamma_plus if kind == "gamma_minus" else getattr(profiles, kind)
    return lambda t, order=0, side=None: profile_eval(p, t, order, side=side,
                                                      reflect=kind == "gamma_minus")


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
    assert np.all(profile_eval(profiles.gamma_plus, t[t > 0.5], 0, reflect=True) == 0.0)


def test_gamma_minus_is_exact_mirror(profiles):
    rng = np.random.default_rng(12)
    t = rng.random(500)
    gm = profile_eval(profiles.gamma_plus, t, 0, reflect=True)
    gp = profile_eval(profiles.gamma_plus, 1.0 - t, 0)
    assert np.all(gm == gp)


@pytest.mark.parametrize("kind", ["eta", "gamma_plus", "gamma_minus"])
def test_derivatives_match_central_differences(profiles, kind):
    p = _reader(profiles, kind)
    # stay on the smooth pieces, away from the jump and branch seams
    rng = np.random.default_rng(13)
    t = rng.random(400)
    t = t[(np.abs(t - 0.5) > 1e-3)]
    h = 1e-5
    v1 = p(t, 1)
    fd1 = (p(t + h, 0) - p(t - h, 0)) / (2 * h)
    scale1 = np.max(np.abs(v1)) + 1.0
    assert np.max(np.abs(fd1 - v1)) / scale1 <= 1e-5
    v2 = p(t, 2)
    fd2 = (p(t + h, 1) - p(t - h, 1)) / (2 * h)
    scale2 = np.max(np.abs(v2)) + 1.0
    assert np.max(np.abs(fd2 - v2)) / scale2 <= 1e-5


@pytest.mark.parametrize("kind", ["eta", "gamma_plus", "gamma_minus"])
def test_antiderivative_recovers_profile(profiles, kind):
    p = _reader(profiles, kind)
    t = np.linspace(0.003, 0.997, 331)
    t = t[np.abs(t - 0.5) > 2e-3]
    h = 1e-6
    fd = (p(t + h, "antiderivative") - p(t - h, "antiderivative")) / (2 * h)
    vals = p(t, 0)
    assert np.max(np.abs(fd - vals)) <= 1e-9 * (np.max(np.abs(vals)) + 1.0)


def test_one_sided_values_at_jump(profiles):
    gp = profiles.gamma_plus
    assert profile_eval(gp, 0.5, 0) == 0.0
    assert profile_eval(gp, 0.5, 0, side="right") == 1.0
    assert profile_eval(gp, 0.5, 0, side="left") == 0.0
    assert profile_eval(gp, 0.5, 0, reflect=True) == 0.0
    assert profile_eval(gp, 0.5, 0, side="left", reflect=True) == 1.0
    # derivative limits vanish on both sides of the jump
    assert profile_eval(gp, 0.5, 1, side="left") == 0.0
    assert profile_eval(gp, 0.5, 1, side="right") == 0.0


def test_one_sided_signal_at_jump(profiles):
    from denjoy_twist.profiles import OneSidedLimitRequired
    for reflect in (False, True):
        for order in (1, 2):
            with pytest.raises(OneSidedLimitRequired):
                profile_eval(profiles.gamma_plus, 0.5, order, reflect=reflect)
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


def test_nan_gives_nan(profiles, small):
    for kind in ("eta", "gamma_plus", "gamma_minus"):
        p = _reader(profiles, kind)
        for order in (0, 1, 2, "antiderivative"):
            assert np.isnan(p(np.nan, order))
            v = p(np.array([0.3, np.nan, 0.7]), order)
            assert np.array_equal(np.isnan(v), [False, True, False])
    # so a NaN slope no longer reads as a clean 1
    assert np.isnan(small.g.local.deriv(np.nan, 0))


@pytest.fixture(scope="module")
def kernel_tables():
    # the run path's two-curve table, read one curve per row
    table, (Ms, Mb) = _cumulative_table((smooth_step, bump))
    return (lambda s: table(s)[0], Ms), (lambda s: table(s)[1], Mb)


def _closed_form(profiles, tables, kind, t, order, side):
    """Each profile region by region, as the module docstring states it."""
    (TS, Ms), (TB, Mb) = tables
    anti = order == "antiderivative"
    if kind == "eta":
        c = profiles.eta.shoulder_coefficient
        left = t <= 0.5
        x = np.where(left, t, 1.0 - t)
        s = 8.0 * (x - 0.25)
        regions = [(x > 0.25) & (x < 0.375), x >= 0.375]
        if anti:
            v = np.select(regions, [(TS(s) + c * TB(s)) / 8.0,
                                    (Ms + c * Mb) / 8.0 + (x - 0.375)], 0.0)
            return np.where(left, v, (2.0 * (Ms + c * Mb) / 8.0 + 0.25) - v)
        v = np.select(regions, [8.0**order * (smooth_step(s, order) + c * bump(s, order)),
                                0.0 if order else 1.0], 0.0)
        return np.where(left | (order != 1), v, -v)
    c = profiles.gamma_plus.shoulder_coefficient
    plus = kind == "gamma_plus"
    x = t if plus else 1.0 - t
    right_of_jump = side == ("right" if plus else "left")
    s_desc, s_lobe = 16.0 * (0.6875 - x), 4.0 * (x - 0.6875)
    regions = [((x > 0.5) & (x <= 0.625)) | (right_of_jump & (x == 0.5)),
               (x > 0.625) & (x < 0.6875), (x > 0.6875) & (x < 0.9375)]
    if anti:
        v = np.select(regions, [x - 0.5, 0.125 + (Ms - TS(s_desc)) / 16.0,
                                (0.125 + Ms / 16.0) - (c / 4.0) * TB(s_lobe)], 0.0)
        return v if plus else -0.0 - v
    v = np.select(regions, [0.0 if order else 1.0,
                            (-16.0)**order * smooth_step(s_desc, order),
                            -c * 4.0**order * bump(s_lobe, order)], 0.0)
    return v if plus or order != 1 else -v


_BREAKS = np.array([0.0, 0.0625, 0.25, 0.3125, 0.375, 0.5, 0.625, 0.6875, 0.75,
                    0.9375, 1.0])


@pytest.mark.parametrize("order", [0, 1, 2, "antiderivative"])
@pytest.mark.parametrize("kind", ["eta", "gamma_plus", "gamma_minus"])
def test_piece_table_bitwise_equals_closed_forms(profiles, kernel_tables, kind, order):
    # every breakpoint, every Hermite node of the curved pieces and the
    # kernel edges where exp(-1/s) runs through the subnormals and the order
    # of the products shows, each with its mirror image and its two
    # neighbours; 1/2 from both sides, the export grid and seeded points
    # beyond [0, 1]; equal bits, so signed zeros count. The float route
    # (one Python float at a time) is held to the closed forms too, at every
    # breakpoint and its two neighbours and at 2000 seeded points of the rest
    s = 1.0 / np.linspace(700.0, 750.0, 400)
    s = np.concatenate([s, 1.0 - s, np.arange(_TABLE_PANELS + 1) / _TABLE_PANELS])
    x = np.concatenate([_BREAKS, 0.25 + s / 8.0, 0.6875 - s / 16.0, 0.6875 + s / 4.0])
    x = np.concatenate([x, 1.0 - x])
    t = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                        np.linspace(0.0, 1.0, 2001),
                        np.random.default_rng(16).uniform(-0.5, 1.5, 10**4)])
    bp = np.concatenate([_BREAKS, 1.0 - _BREAKS])
    t_float = np.concatenate([bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
                              np.random.default_rng(28).choice(t, 2000, replace=False)])
    p = _reader(profiles, kind)

    def off_jump(pts):
        # 1 - t rounds to 1/2 one ulp below 1/2 too: no side there is an error
        return pts[(pts != 0.5) & (1.0 - pts != 0.5)]

    for side in ("left", "right", None):
        pts = t if side else off_jump(t)
        ours = p(pts, order, side)
        ref = _closed_form(profiles, kernel_tables, kind, pts, order, side)
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64)), (side, order)
        pts = t_float if side else off_jump(t_float)
        ours = np.array([p(v, order, side) for v in pts.tolist()])
        ref = _closed_form(profiles, kernel_tables, kind, pts, order, side)
        assert np.array_equal(ours.view(np.int64), ref.view(np.int64)), ("float", side, order)


def test_kernels_nan_gives_nan():
    # like profile_eval: a NaN in is a NaN out, not a clean 0 from the tails
    for f in (lambda s: smooth_step(s), lambda s: smooth_step(s, 1),
              lambda s: smooth_step(s, 2), lambda s: bump(s), lambda s: bump(s, 1)):
        assert np.isnan(f(float("nan")))
        v = f(np.array([-1.0, np.nan, 0.5, 2.0]))
        assert np.array_equal(np.isnan(v), [False, True, False, False])


def _bits(v):
    return np.asarray(v, dtype=float).view(np.int64)


def _order_points():
    """Every breakpoint with its mirror image, each +-1 ulp; the export grid;
    NaN; and seeded points beyond [0, 1]."""
    x = np.concatenate([_BREAKS, 1.0 - _BREAKS])
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                           np.linspace(0.0, 1.0, 2001), [np.nan, np.nan],
                           np.random.default_rng(17).uniform(-0.5, 1.5, 2000)])


@pytest.mark.parametrize("kind", ["eta", "gamma_plus", "gamma_minus"])
def test_orders_in_one_call_bitwise_equal_one_order_calls(profiles, kind):
    # each order of a combined call is the one-order call bit for bit, sign
    # bits included, whatever the combination and its order; the one-order
    # calls are pinned to the closed forms by the test above
    import itertools
    p = _reader(profiles, kind)
    t = _order_points()
    orders = (0, 1, 2, "antiderivative")
    for side in (None, "left", "right"):
        pts = t if side else t[(t != 0.5) & (1.0 - t != 0.5)]
        single = {o: p(pts, o, side) for o in orders}
        for n in range(1, 5):
            for combo in itertools.permutations(orders, n):
                got = p(pts, combo, side)
                assert isinstance(got, tuple) and len(got) == n
                for o, v in zip(combo, got):
                    assert np.array_equal(_bits(v), _bits(single[o])), (side, combo, o)
        # one point at a time: floats, and 1/2 from the side asked for
        for x in (0.5, 0.3, 0.7, 0.9, np.nan):
            if side is None and x == 0.5 and kind != "eta":
                continue
            got = p(x, orders, side)
            assert all(type(v) is float for v in got)
            ref = [p(x, o, side) for o in orders]
            assert np.array_equal(_bits(got), _bits(ref))


def test_reflect_per_point_reads_gamma_minus(profiles):
    # gamma_plus reflected at some points is gamma_minus there, bit for bit,
    # in one call: points of plus and minus gaps, both halves of [0, 1], 1/2
    gp = profiles.gamma_plus
    t = _order_points()
    minus = np.random.default_rng(18).random(t.size) < 0.5
    for side in ("left", "right"):
        for o in (0, 1, 2, "antiderivative"):
            plus_o = profile_eval(gp, t, o, side=side)
            minus_o = profile_eval(gp, t, o, side=side, reflect=True)
            for flags in (minus, ~minus):
                ref = np.where(flags, minus_o, plus_o)
                assert np.array_equal(_bits(profile_eval(gp, t, o, side=side, reflect=flags)),
                                      _bits(ref))
    # reflect broadcasts against t: one flag per row of a grid
    grid = np.linspace(0.0, 1.0, 33)[None, :] * np.ones((4, 1))
    rows = np.array([True, False, False, True])[:, None]
    got = profile_eval(gp, grid, ("antiderivative", 0), side="right", reflect=rows)
    for v, o in zip(got, ("antiderivative", 0)):
        ref = np.where(rows, profile_eval(gp, grid, o, side="right", reflect=True),
                       profile_eval(gp, grid, o, side="right"))
        assert v.shape == grid.shape and np.array_equal(_bits(v), _bits(ref))
    # a uniform flag per point reads like the scalar flag
    assert np.array_equal(_bits(profile_eval(gp, t, 1, side="left", reflect=np.ones(t.size, bool))),
                          _bits(profile_eval(gp, t, 1, side="left", reflect=True)))


def test_combined_orders_validate(profiles):
    with pytest.raises(ValueError):
        profile_eval(profiles.eta, 0.3, ())
    with pytest.raises(ValueError):
        profile_eval(profiles.eta, 0.3, (0, 3))
    from denjoy_twist.profiles import OneSidedLimitRequired
    with pytest.raises(OneSidedLimitRequired):
        profile_eval(profiles.gamma_plus, 0.5, ("antiderivative", 1))
    # the value and antiderivative alone need no side at the jump
    assert profile_eval(profiles.gamma_plus, 0.5, (0, "antiderivative")) == (0.0, 0.0)


def _same(a, b):
    """Bit for bit, sign bits included; NaN matches NaN whatever its bits."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.array_equal(np.isnan(a), np.isnan(b)) and np.array_equal(
        _bits(a)[~np.isnan(a)], _bits(b)[~np.isnan(b)])


@pytest.mark.parametrize("kind", ["eta", "gamma_plus"])
@pytest.mark.parametrize("reflect", [False, True])
def test_scalar_route_bitwise_equals_array_route(profiles, kind, reflect):
    # a Python float t with a bool reflect is read on floats; every order and
    # three combined ones, every side, at each row start +-1 ulp, 0, 1/2, 1,
    # NaN, +-inf, 64 seeded points in each row and seeded points beyond
    # [0, 1] give the array route's bits and Python floats
    from denjoy_twist.profiles import OneSidedLimitRequired
    p = getattr(profiles, kind)
    starts = np.array(p.los[1:])
    rng = np.random.default_rng(19)
    rows = np.concatenate([[-0.1], starts, [1.1]])
    t = np.concatenate([starts, np.nextafter(starts, -np.inf), np.nextafter(starts, np.inf),
                        [0.0, 0.5, 1.0, np.nan, np.inf, -np.inf], rng.uniform(-0.1, 1.1, 200),
                        *(rng.uniform(lo, hi, 64) for lo, hi in zip(rows, rows[1:]))])
    t = np.concatenate([t, 1.0 - t]) if reflect else t
    for order in (0, 1, 2, "antiderivative", ("antiderivative",), ("antiderivative", 0),
                  (1, 0)):
        for side in (None, "left", "right"):
            def scalar(x):
                try:
                    return profile_eval(p, x, order, side=side, reflect=reflect)
                except OneSidedLimitRequired:
                    return None
            got = [scalar(x) for x in t.tolist()]
            raised = np.array([g is None for g in got])
            # only a derivative at the jump, with no side, raises
            assert np.array_equal(raised, (side is None) & (p.jump is not None)
                                  & bool({1, 2} & set(np.atleast_1d(order).tolist()))
                                  & ((1.0 - t if reflect else t) == 0.5))
            arr = profile_eval(p, t[~raised], order, side=side, reflect=reflect)
            got = [g for g in got if g is not None]
            if isinstance(order, tuple):
                assert all(type(g) is tuple and len(g) == len(order) for g in got)
                got = list(zip(*got))
            else:
                got, arr = [got], [arr]
            for g, a in zip(got, arr):
                assert all(type(v) is float for v in g)
                assert _same(g, a), (order, side)


@pytest.mark.parametrize("kind", ["eta", "gamma_plus"])
@pytest.mark.parametrize("reflect", [False, True])
def test_scalar_route_bitwise_at_every_hermite_node(profiles, kind, reflect):
    # each row read through a kernel table, at the t of every node i/4096 of
    # the table and one ulp either side: the antiderivative alone and with
    # the value, on floats, are the array route's bits
    from denjoy_twist.profiles import _HermiteTable
    p = getattr(profiles, kind)
    nodes = np.arange(_TABLE_PANELS + 1) / _TABLE_PANELS
    x = np.concatenate([shift + nodes / scale for _, scale, shift, *_, antis, _, _, _ in p.rows
                        if isinstance(antis, _HermiteTable)])
    x = np.concatenate([x, 1.0 - x])   # the mirrored rows too
    x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
    t = 1.0 - x if reflect else x
    for order in ("antiderivative", ("antiderivative", 0)):
        got = [profile_eval(p, v, order, reflect=reflect) for v in t.tolist()]
        arr = profile_eval(p, t, order, reflect=reflect)
        got, arr = (list(zip(*got)), arr) if isinstance(order, tuple) else ([got], [arr])
        for g, a in zip(got, arr):
            assert all(type(v) is float for v in g)
            assert _same(g, a), order


def _neumaier(terms):
    """The compensated running sum of _cumulative_table on Python floats,
    term by term: the oracle of its array form."""
    s = comp = 0.0
    sums = [0.0]
    for term in terms:
        t = s + term
        comp += (s - t) + term if abs(s) >= abs(term) else (term - t) + s
        s = t
        sums.append(s + comp)
    return sums


@pytest.mark.parametrize("kernel", [smooth_step, bump, lambda x: np.sin(50.0 * x) * np.exp(10.0 * x)],
                         ids=["smooth_step", "bump", "signed"])
def test_cumulative_sum_bitwise_equals_python_loop(kernel):
    # every node value and the mass are the Python loop's bits, for the two
    # kernels and for a kernel of both signs whose running sum crosses zero,
    # so both branches of the compensation are taken
    from denjoy_twist.profiles import _GL_ORDER, _panel_integrals
    table, (mass,) = _cumulative_table((kernel,))
    sums = _neumaier(_panel_integrals(kernel, _GL_ORDER, _TABLE_PANELS).tolist())
    assert _same(np.append(table.coef[0, 3], mass), sums)


def test_calibration_retains_one_kernel_table(traced_retained):
    # the calibrated profiles hold the one two-curve kernel table and a few
    # KB of row records (3.5 KB on Python 3.11): no copy of a table, as a
    # list or an array, per profile or per process
    calibrate_profiles()   # imports and caches warmed
    profiles, held = traced_retained(calibrate_profiles)
    table = profiles.eta.rows[1][7].coef   # the rising row's antis
    assert table.nbytes == 2 * 4 * _TABLE_PANELS * 8
    assert held - table.nbytes <= 8 * 1024


def test_hermite_table_float_route():
    # a Python float gives a list of floats, the array call's bits, at every
    # node, at 0 and 1 and beyond them, and NaN
    table, _ = _cumulative_table((smooth_step, bump))
    v = np.concatenate([np.arange(table.n + 1) / table.n, [0.0, 1.0, -0.1, 1.1, np.nan]])
    arr = table(v)
    got = [table(x) for x in v.tolist()]
    assert all(type(g) is list and all(type(c) is float for c in g) for g in got)
    assert _same(np.array(got).T, arr)
