"""The symplectic twist map with the invariant graph of g - Id.

With phi = g~ + g~^{-1} - 2 Id (built from periodic parts, so phi(x+1) =
phi(x) bitwise), the map

    f(theta, r) = (theta + r, r + phi(theta + r))

fixes the graph of gamma = g - Id exactly: f(theta, gamma(theta)) =
(g(theta), gamma(g(theta))) is an algebraic identity, so the measured
residual is root-finder tolerance only. r is tracked as an unwrapped real,
theta mod 1.

Also here: the per-gap linearity check of phi on the middle segments, the
second-derivative scan with the four-term decomposition of
zeta_k = h_k + h_{k-1}^{-1} - 2 Id, the stable/unstable base segments
through the gap midpoints, and the report-only diffusion probe.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .layout import circle_delta
from .profiles import profile_eval

# gaps per array pass of the second-derivative scan: 64 x 256 grid points
# keep its temporaries to a few MB whatever M is
_SCAN_BLOCK = 64


@dataclass
class GeneratingFunction:
    """phi = (g~ - Id) + (g~^{-1} - Id), evaluated through periodic parts.

    The one scalar-or-array rule of the twist layer: a scalar x is read
    as a Python float through g's scalar lifts, an array through its _many
    lifts, with the same arithmetic, so the two agree bitwise. Fractional
    parts are x % 1.0, bitwise x - floor(x) for floats and arrays alike.
    """

    g: object

    def lifts(self, x):
        """frac(x), and g's lift and inverse lift to evaluate there."""
        if np.ndim(x) == 0:
            return float(x) % 1.0, self.g.lift, self.g.inverse_lift
        return (np.asarray(x, dtype=float) % 1.0, self.g.lift_many,
                self.g.inverse_lift_many)

    def terms(self, x):
        """g~ - Id and g~^{-1} - Id at the fractional part of x, whose sum is
        phi(x)."""
        fr, lift, inverse_lift = self.lifts(x)
        return lift(fr) - fr, inverse_lift(fr) - fr

    def eval(self, x):
        up, down = self.terms(x)
        return up + down

    def deriv(self, x: float, side: str = "right") -> float:
        fr = float(x) % 1.0
        return (self.g.derivative(fr, side=side) - 1.0) + (
            self.g.inverse_derivative(fr, side=side) - 1.0)

    def second_deriv(self, x: float, side: str = "right") -> float:
        fr = float(x) % 1.0
        return (self.g.second_derivative(fr, side=side)
                + self.g.inverse_second_derivative(fr, side=side))


class TwistSystem:
    """The assembled map f, its inverse, and the invariant curve."""

    def __init__(self, g, table=None, seqs=None):
        self.g = g
        self.table = table
        self.seqs = seqs
        self.phi = GeneratingFunction(g)

    # -- the map -----------------------------------------------------------

    def curve_height(self, theta):
        """gamma(theta) = g~(theta) - theta on the canonical branch."""
        fr, lift, _ = self.phi.lifts(theta)
        return lift(fr) - fr

    # Each step takes theta and r as floats, giving Python floats, or as
    # arrays of one shape, stepping every point with one array phi call.

    def _step(self, theta, r):
        """forward's step, and gamma(theta1) = g~(theta1) - theta1: phi's
        first term, which the step computes anyway."""
        # split r into integer and fractional parts (both exact) so the
        # theta output commutes bitwise with vertical integer translation
        w = theta % 1.0 + r % 1.0
        theta1 = w - (w >= 1.0)   # back into [0, 1)
        height, down = self.phi.terms(theta1)
        return theta1, r + (height + down), height

    def forward(self, theta, r):
        theta1, r1, _ = self._step(theta, r)
        return theta1, r1

    def backward(self, theta, r):
        th = theta % 1.0
        p = self.phi.eval(th)
        w = th - r % 1.0 + p
        return w % 1.0, r - p

    def forward_lift(self, theta, r):
        w = theta + r
        return w, r + self.phi.eval(w)

    def backward_lift(self, theta, r):
        p = self.phi.eval(theta)
        return theta - r + p, r - p

    # -- checks ------------------------------------------------------------

    def sample_points(self, n, seed=0):
        """Mixed circle samples: gap interiors, gap endpoints, residual."""
        rng = np.random.default_rng(seed)
        tb = self.table
        pts = [rng.random(n // 2)]  # generic (almost surely residual-heavy)
        ks = rng.integers(-tb.M, tb.M + 1, size=n // 4)
        u = rng.random(n // 4)
        pts.append(np.asarray(tb.lam_of(ks)) + u * np.asarray(tb.ell_of(ks)))
        ks2 = rng.integers(-tb.M, tb.M + 1, size=n - n // 2 - n // 4)
        pts.append(np.asarray(tb.lam_of(ks2)))  # endpoints
        return np.concatenate(pts)

    def verify_invariant_curve(self, n_samples: int = 10000, seed: int = 0,
                               translate: int = 0) -> dict:
        """Max residual of f(theta, gamma + translate) vs the shifted curve."""
        if self.table is not None:
            thetas = self.sample_points(n_samples, seed)
        else:
            thetas = np.random.default_rng(seed).random(n_samples)
        fr = thetas % 1.0
        lift1 = self.g.lift_many(fr)
        gam = lift1 - fr
        theta1 = (fr + (gam + translate)) % 1.0
        r1 = (gam + translate) + self.phi.eval(theta1)
        # target point (g(theta), g^2(theta) - g(theta)), shifted by translate
        target_theta = lift1 % 1.0
        target_r = self.curve_height(target_theta)
        res_theta = np.abs(circle_delta(theta1, target_theta))
        res_r = np.abs(r1 - (target_r + translate))
        return {
            "n_samples": int(n_samples),
            "max_residual": float(max(res_theta.max(), res_r.max())),
            "max_theta_residual": float(res_theta.max()),
            "max_r_residual": float(res_r.max()),
        }

    # The sampled checks below draw their samples in a Python loop, since
    # vectorised draws would consume the generator in another order and
    # change the samples, then evaluate all samples in one array step.
    # Reductions are np.max, so a NaN sample fails its check instead of
    # vanishing as it would in a Python max.

    def roundtrip_check(self, n_samples: int = 10000, seed: int = 1) -> float:
        """max over samples of |f^{-1}(f(theta, r)) - (theta, r)| and converse."""
        rng = np.random.default_rng(seed)
        th, r = np.empty(n_samples), np.empty(n_samples)
        for i in range(n_samples):
            th[i], r[i] = rng.random(), rng.uniform(-1.5, 1.5)
        devs = []
        for first, second in ((self.forward, self.backward),
                              (self.backward, self.forward)):
            t2, r2 = second(*first(th, r))
            devs += [np.abs(circle_delta(t2, th)), np.abs(r2 - r)]
        return float(np.max(devs, initial=0.0))

    def vertical_translation_check(self, n_samples: int = 256, seed: int = 2) -> dict:
        """f(theta, r+1) - f(theta, r) = (0, 1): theta bitwise, r to an ulp.

        r samples are coarse dyadics so that r+1 is exactly representable;
        the r-part can still differ in the last bit because r + phi rounds
        at different exponents.
        """
        rng = np.random.default_rng(seed)
        th, r = np.empty(n_samples), np.empty(n_samples)
        for i in range(n_samples):
            th[i] = rng.random()
            r[i] = rng.integers(-2048, 2048) / 1024.0
        t1, r1 = self.forward(th, r)
        t2, r2 = self.forward(th, r + 1.0)
        return {"max_theta_dev": float(np.max(np.abs(t2 - t1), initial=0.0)),
                "max_r_dev": float(np.max(np.abs((r2 - r1) - 1.0), initial=0.0))}

    def det_check(self, n_samples: int = 1000, seed: int = 3,
                  step: float = 1e-6) -> float:
        """|det Df - 1| by central differences at differentiable points."""
        rng = np.random.default_rng(seed)
        theta, r = np.empty(n_samples), np.empty(n_samples)
        for i in range(n_samples):
            if self.table is not None:
                # gap interiors with margin: differentiable, and theta +- step
                # cannot straddle a slope kink there
                k = int(rng.integers(-min(400, self.table.M), min(400, self.table.M)))
                s = rng.uniform(0.1, 0.4) if rng.random() < 0.5 else rng.uniform(0.6, 0.9)
                theta[i] = float(self.table.lam_of(k)) + s * float(self.table.ell_of(k))
            else:
                theta[i] = rng.random()
            r[i] = rng.uniform(-0.5, 0.5)
        w = theta - r  # probe at theta+r == theta, away from kinks
        F = self.forward_lift
        (tp, rp), (tm, rm) = F(w + step, r), F(w - step, r)
        (tu, ru), (td, rd) = F(w, r + step), F(w, r - step)
        a, c = (tp - tm) / (2 * step), (rp - rm) / (2 * step)
        b, d = (tu - td) / (2 * step), (ru - rd) / (2 * step)
        return float(np.max(np.abs(a * d - b * c - 1.0), initial=0.0))

    def twist_check(self, n_samples: int = 100, seed: int = 4,
                    step: float = 1e-6) -> dict:
        """d theta' / d r: affine-in-r by the formula; confirmed by differences."""
        rng = np.random.default_rng(seed)
        th, r = np.empty(n_samples), np.empty(n_samples)
        for i in range(n_samples):
            th[i], r[i] = rng.random(), rng.uniform(-1.0, 1.0)
        d = (self.forward_lift(th, r + step)[0]
             - self.forward_lift(th, r - step)[0]) / (2 * step)
        return {"max_fd_dev": float(np.max(np.abs(d - 1.0), initial=0.0))}

    def periodicity_check(self, n_samples: int = 1000, seed: int = 5) -> float:
        rng = np.random.default_rng(seed)
        xs = rng.random(n_samples)
        return float(np.max(np.abs(self.phi.eval(xs + 1.0)
                                   - self.phi.eval(xs))))

    def mean_check(self, n_grid: int = 8192) -> float:
        """Quadrature mean of phi (exact zero is unattainable under truncation)."""
        xs = (np.arange(n_grid) + 0.5) / n_grid
        return float(np.mean(self.phi.eval(xs)))

    # -- phi linearity on the middle segments -------------------------------

    def phi_linearity_check(self, n_points: int = 64) -> dict:
        """Affine fit of phi on each J_k; slope against m_k - 2.

        Index 1 uses the adjusted m. In midpoint-centered coordinates the
        fitted constant is the circle-consistent second difference of the
        midpoints for every k; the extra affine offset -alpha_1 ell_1 / 2
        lives in the local-coordinate form h_1 + h_0^{-1} = m u - a1 l1/2
        and is checked separately below.
        """
        tb, seqs = self.table, self.seqs
        M = tb.M
        ks = np.arange(-M + 1, M)
        mu, ell = tb.mu_of(ks), tb.ell_of(ks)
        # one row of n_points per gap, all gaps in one phi evaluation
        xs = mu[:, None] + np.linspace(-ell / 8.0, ell / 8.0, n_points, axis=1)
        vals = self.phi.eval(xs)
        devs, slopes, consts = [], [], []
        for i in range(len(ks)):
            A = np.vstack([xs[i] - mu[i], np.ones(n_points)]).T
            (slope, const), *_ = np.linalg.lstsq(A, vals[i], rcond=None)
            devs.append(float(np.max(np.abs(A @ np.array([slope, const]) - vals[i]))))
            slopes.append(slope)
            consts.append(const)
        m = np.where(ks == 1, seqs.m1_adjusted, seqs.m(ks))
        expected_const = (circle_delta(tb.mu_of(ks + 1), mu)
                          + circle_delta(tb.mu_of(ks - 1), mu))
        slope_devs = np.abs(np.array(slopes) - (m - 2.0))
        const_devs = np.abs(np.array(consts) - expected_const)
        # local-coordinate identity at index 1, where the adjusted head
        # relation makes h_1 + h_0^{-1} affine with offset -alpha_1 ell_1 / 2
        h = self.g.local
        ell1 = h.ell[M + 1]
        us = ell1 * np.linspace(0.375, 0.625, n_points)
        local_sum = h.value(us, 1) + h.invert(us, 0)
        expected = seqs.m1_adjusted * us - float(seqs.alpha(1)) * ell1 / 2.0
        local_offset_dev = float(np.max(np.abs(local_sum - expected)))
        return {
            "k": ks.tolist(),
            "max_fit_deviation": float(np.max(devs)),
            "max_slope_deviation": float(np.max(slope_devs)),
            "max_const_deviation": float(np.max(const_devs)),
            "local_offset_dev_k1": local_offset_dev,
            "fit_deviation": devs,
            "slope_deviation": slope_devs.tolist(),
        }

    # -- regularity scan -----------------------------------------------------

    def second_derivative_scan(self, n_grid: int = 256,
                               fd_step_rel: float = 1e-4) -> "RegularityReport":
        """Per-gap second-derivative data for zeta_k = h_k + h_{k-1}^{-1} - 2 Id.

        Evaluates the four closed-form terms on an interior grid that avoids
        the midpoint, sums them, and cross-checks against (i) a five-point
        finite difference of the analytic first derivative and (ii) the
        direct chain-rule second derivative.
        """
        h, M = self.g.local, self.table.M
        eta = h.eta
        s = (np.arange(n_grid) + 0.5) / n_grid
        # the s-grid terms are the same for every gap: once per profile
        eta1_s = profile_eval(eta, s, 1)
        g1_plus = profile_eval(h.gamma_plus, s, 1)
        g1_minus = profile_eval(h.gamma_plus, s, 1, reflect=True)
        ks = np.arange(-M + 1, M)
        rows = {}

        def sup(x):
            return np.max(np.abs(x), axis=1)

        for lo in range(0, len(ks), _SCAN_BLOCK):
            # one row per gap k of the block, one column per grid point
            k = ks[lo:lo + _SCAN_BLOCK, None]
            j = k + M
            ell_k, ell_km1 = h.ell[j], h.ell[j - 1]
            K_k, K_km1 = h.K[j], h.K[j - 1]
            a_k, a_km1 = h.alpha[j], h.alpha[j - 1]
            u = s * ell_k
            v = h.invert(u, k - 1)
            st = v / ell_km1

            eta1_st, eta_st = profile_eval(eta, st, (1, 0))
            gk1_s = np.where(h.plus[j], g1_plus, g1_minus)
            gkm1_1_s = np.where(h.plus[j - 1], g1_plus, g1_minus)
            gkm1_1_st, gkm1_st = profile_eval(h.gamma_plus, st, (1, 0),
                                              reflect=~h.plus[j - 1])
            psi_v = K_km1 * eta_st + a_km1 * gkm1_st
            dpsi_v = (K_km1 * eta1_st + a_km1 * gkm1_1_st) / ell_km1
            df_inv = (ell_k / ell_km1) / (1.0 + psi_v)

            II = (K_k * eta1_s - K_km1 * eta1_s
                  + a_k * gk1_s - a_km1 * gkm1_1_s) / ell_k
            III = -((K_km1 * eta1_st + a_km1 * gkm1_1_st) / ell_k) * (
                df_inv / (1.0 + psi_v) - 1.0)
            IV = (ell_km1 / ell_k) * psi_v * dpsi_v * df_inv / (1.0 + psi_v) ** 2
            V = (K_km1 * (eta1_s - eta1_st)
                 + a_km1 * (gkm1_1_s - gkm1_1_st)) / ell_k
            total = II + III + IV + V

            # direct chain rule
            psik1_u = (K_k * eta1_s + a_k * gk1_s) / ell_k
            direct = (psik1_u - dpsi_v / (1.0 + psi_v) ** 2
                      + psi_v * dpsi_v / (1.0 + psi_v) ** 3)

            # five-point FD of the analytic first derivative of zeta
            hstep = fd_step_rel * ell_k

            def dzeta(uu):
                vv = h.invert(uu, k - 1)
                ss = uu / ell_k
                sst = vv / ell_km1
                g_u = profile_eval(h.gamma_plus, ss, 0, reflect=~h.plus[j])
                g_v = profile_eval(h.gamma_plus, sst, 0, reflect=~h.plus[j - 1])
                psi_k_u = K_k * profile_eval(eta, ss, 0) + a_k * g_u
                psi_km1_v = K_km1 * profile_eval(eta, sst, 0) + a_km1 * g_v
                return psi_k_u - psi_km1_v / (1.0 + psi_km1_v)

            fd = (-dzeta(u + 2 * hstep) + 8.0 * dzeta(u + hstep)
                  - 8.0 * dzeta(u - hstep) + dzeta(u - 2 * hstep)) / (12.0 * hstep)

            zeta = h.value(u, k) + v - 2.0 * u
            dz = dzeta(u)

            block = {
                "sup_d2": sup(total), "sup_II": sup(II), "sup_III": sup(III),
                "sup_IV": sup(IV), "sup_V": sup(V), "sup_dzeta": sup(dz),
                "sup_zeta": sup(zeta),
                "rel_fd_dev": sup(total - fd) / sup(fd),
                "abs_analytic_dev": sup(total - direct),
            }
            for name, col in block.items():
                rows.setdefault(name, []).extend(col.tolist())
        return RegularityReport(k=ks.tolist(), **rows)


@dataclass
class RegularityReport:
    """Per-gap suprema of the second-derivative data and decay summaries."""

    k: list
    sup_d2: list
    sup_II: list
    sup_III: list
    sup_IV: list
    sup_V: list
    sup_dzeta: list
    sup_zeta: list
    rel_fd_dev: list
    abs_analytic_dev: list

    def summary(self) -> dict:
        k = np.asarray(self.k)
        d2 = np.asarray(self.sup_d2)
        M = int(np.max(np.abs(k))) + 1
        half = M // 2
        tail = float(np.max(d2[np.abs(k) >= half]))
        head = float(np.max(d2[np.abs(k) <= half]))
        off_crossing = (k != 0) & (k != 1)
        return {
            "sup_all": float(np.max(d2)),
            # gaps 0 and 1 pair cross-center indices (K flips sign; the
            # alpha seed jump), where the two-sided difference estimates do
            # not apply; the limit statements concern the complement
            "sup_off_crossing": float(np.max(d2[off_crossing])),
            "sup_tail": tail,
            "sup_head": head,
            "tail_below_head": bool(tail < head),
            "max_rel_fd_dev": float(np.max(self.rel_fd_dev)),
            "max_abs_analytic_dev": float(np.max(self.abs_analytic_dev)),
        }

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["k", "sup_d2", "sup_II", "sup_III", "sup_IV", "sup_V",
                        "sup_dzeta", "sup_zeta", "rel_fd_dev"])
            for i, k in enumerate(self.k):
                w.writerow([k, repr(self.sup_d2[i]), repr(self.sup_II[i]),
                            repr(self.sup_III[i]), repr(self.sup_IV[i]),
                            repr(self.sup_V[i]), repr(self.sup_dzeta[i]),
                            repr(self.sup_zeta[i]), repr(self.rel_fd_dev[i])])


# ---------------------------------------------------------------------------
# stable / unstable segments
# ---------------------------------------------------------------------------

def base_segments(system: TwistSystem, ks):
    """The base segments over J_k, as arrays over the indices ks: midpoints
    mu_k, base heights gamma(mu_k), slopes K_k and half-widths ell_k/8.

    For k >= 1 these are the stable segments (the half left of the midpoint
    lies on the invariant curve); for k <= 0 the unstable ones (right half
    on the curve).
    """
    ks = np.asarray(ks)
    mu = system.table.mu_of(ks)
    return (mu, system.curve_height(mu), system.seqs.K(ks),
            system.table.ell_of(ks) / 8.0)


def manifold_iterate_check(system: TwistSystem, k_max: int,
                           n_points: int = 16) -> dict:
    """f maps each stable segment onto the next (and f^{-1} each unstable).

    Reports the worst vertical distance of image points from the target
    segment and the worst contraction-ratio error, measured on x-projections
    (the affine contraction factor; Euclidean length differs by a slope
    correction of order K^2).
    """
    if k_max + 2 > system.table.M:
        # gap M itself sits inside the truncation patch, so the last
        # formula-backed target segment is at index M - 1
        raise ValueError("k_max must not exceed M - 2")
    # stable segments k = 1..k_max map forward onto k + 1, unstable ones
    # k = 0..-(k_max - 1) backward onto k - 1; each family in one array step
    stable = _segment_images(system, np.arange(1, k_max + 2),
                             system.forward_lift, n_points)
    unstable = _segment_images(system, np.arange(0, -k_max - 1, -1),
                               system.backward_lift, n_points)
    return {"k_max": k_max,
            "max_image_distance": max(stable["image"], unstable["image"]),
            "max_ratio_error": max(stable["ratio"], unstable["ratio"]),
            "max_base_orbit_error": stable["base"]}


def _segment_images(system: TwistSystem, ks, step, n_points: int) -> dict:
    """Worst deviations of step(segment k) from segment k' over consecutive
    (k, k') in ks: image heights, x-projected length ratio against
    ell_k' / ell_k, and the image of the base point."""
    mu, base_r, slope, hw = base_segments(system, ks)
    src, dst = slice(None, -1), slice(1, None)   # k, k'
    xs = mu[src, None] + np.linspace(-hw[src], hw[src], n_points, axis=1)
    x1, r1 = step(xs, base_r[src, None] + slope[src, None] * (xs - mu[src, None]))
    image = np.abs(r1 - (base_r[dst, None]
                         + slope[dst, None] * (x1 % 1.0 - mu[dst, None])))
    ells = system.seqs.ell(ks)
    ratio = (x1[:, -1] - x1[:, 0]) / (xs[:, -1] - xs[:, 0])
    bx, br = step(mu[src], base_r[src])
    base = np.maximum(np.abs(circle_delta(bx, mu[dst])), np.abs(br - base_r[dst]))
    return {"image": float(np.max(image, initial=0.0)),
            "ratio": float(np.max(np.abs(ratio - ells[dst] / ells[src]), initial=0.0)),
            "base": float(np.max(base, initial=0.0))}


def curve_side_check(system: TwistSystem, n_points: int = 64) -> dict:
    """Height gap between the curve and the free halves of the base segments.

    With the standard profile assignment the half of the first stable
    segment right of the midpoint leaves the curve and the gap equals
    alpha_1 (x - mu_1) > 0 (the instability zone is under the curve);
    mirrored on the unstable side with alpha_0 < 0. Exchanging the jump
    profiles puts the free halves on the other side and flips every gap
    sign (zone above the curve).
    """
    # the free half is where the curve's local slope is K + alpha: right of
    # mu_1 and left of mu_0, mirrored when the jump profiles are exchanged
    sgn = -1.0 if system.g.swap_gamma else 1.0
    # row 0 the first stable segment, row 1 the base unstable one
    ks = np.array([1, 0])
    mu, base_r, slope, hw = (a[:, None] for a in base_segments(system, ks))
    side = np.array([[sgn], [-sgn]])
    xs = mu + side * np.linspace(1e-3, 1.0, n_points) * hw
    gaps = system.curve_height(xs) - (base_r + slope * (xs - mu))
    devs = np.abs(gaps - system.seqs.alpha(ks)[:, None] * (xs - mu))
    return {
        "max_formula_dev": float(np.max(devs)),
        "zone_below_curve": not system.g.swap_gamma,
        # every gap has the sign of sgn: positive when the zone is under
        "strict_sign_ok": bool(np.all(sgn * gaps > 0.0)),
        "min_gap": float(gaps.min()),
        "max_gap": float(gaps.max()),
    }


def orbit_convergence_check(system: TwistSystem, x_offset: float, n: int) -> dict:
    """Distance decay of an off-base point on the first stable segment.

    Distances are x-projections, whose per-step ratios telescope exactly to
    products of consecutive gap-length ratios while the orbit stays inside
    the linear strips (Euclidean distances would carry an extra slope
    factor of order K^2).
    """
    tb, seqs = system.table, system.seqs
    if n + 1 > tb.M:
        raise ValueError("n + 1 exceeds the stored range")
    mu, base_r, slope, hw = (float(a[0]) for a in base_segments(system, [1]))
    if not -hw <= x_offset <= hw:
        raise ValueError("x_offset outside the segment")
    # row i holds the base point and the off-base point after i steps,
    # stepped together
    x, r = np.empty((n + 1, 2)), np.empty((n + 1, 2))
    x[0] = mu, mu + x_offset
    r[0] = base_r, base_r + slope * (x[0, 1] - mu)
    for i in range(n):
        x[i + 1], r[i + 1] = system.forward_lift(x[i], r[i])
    dx = np.abs(x[:, 1] - x[:, 0])
    ells = np.asarray(seqs.ell(np.arange(1, n + 2)), dtype=float)
    expected = ells[1:] / ells[0]
    rel = np.max(np.abs((dx[1:] / dx[0]) / expected - 1.0)) if dx[0] != 0 else 0.0
    return {"n": n, "d_x": dx.tolist(), "max_rel_ratio_error": float(rel)}


def diffusion_probe(system: TwistSystem, theta0: float, offset: float, n: int,
                    thresholds=(1e-3, 1e-2, 1e-1)) -> dict:
    """Iterate (theta0, gamma(theta0) + offset) and track |r_n - gamma(theta_n)|.

    Instability of the zone under the curve is an asymptotic statement about
    the untruncated system, so nothing here is asserted; the report records
    the excursion series and first crossing times.
    """
    theta0 = th = float(theta0) % 1.0
    r = float(system.curve_height(th)) + offset
    max_exc = abs(offset)
    keys = [(t, repr(t)) for t in thresholds]
    times = {key: None for _, key in keys}
    checkpoints = []
    checkpoint_at = 1
    for i in range(1, n + 1):
        th, r, height = system._step(th, r)
        exc = abs(r - height)
        if exc > max_exc:
            max_exc = exc
        for t, key in keys:
            if times[key] is None and exc > t:
                times[key] = i
        if i == checkpoint_at or i == n:
            checkpoints.append((i, max_exc))
            checkpoint_at *= 2
    return {"theta0": theta0, "offset": offset, "n_steps": n,
            "max_excursion": max_exc, "threshold_times": times,
            "checkpoints": checkpoints}


def build_twist_system(g, table=None, seqs=None) -> TwistSystem:
    return TwistSystem(g, table=table, seqs=seqs)


def dump_segments_csv(system: TwistSystem, k_lo: int, k_hi: int, path) -> None:
    """Base segment endpoints and midpoints, one row per marker.

    Every base segment lies in its gap's linear band, so in_linear_band is
    a constant 1.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "kind", "marker", "x", "r", "in_linear_band"])
        for kind, ks in (("stable", np.arange(max(k_lo, 1), k_hi + 1)),
                         ("unstable", np.arange(min(k_hi, 0), k_lo - 1, -1))):
            mu, base_r, slope, hw = (a[:, None] for a in base_segments(system, ks))
            xs = mu + hw * np.array([-1.0, 0.0, 1.0])
            rs = base_r + slope * (xs - mu)
            for k, x, r in zip(ks.tolist(), xs.tolist(), rs.tolist()):
                w.writerows([k, kind, name, repr(xm), repr(rm), 1]
                            for name, xm, rm in zip(("lo", "mid", "hi"), x, r))


def dump_phase_portrait_csv(system: TwistSystem, orbits, n_steps: int, path,
                            curve_samples: int = 512) -> None:
    """(orbit, step, theta, r) rows; orbit 0 samples the invariant curve.

    The orbits step in lockstep, one array step per time step; the rows are
    written orbit by orbit.
    """
    ths = (np.arange(curve_samples) + 0.5) / curve_samples
    th = np.array([float(t) for t, _ in orbits])
    r = np.array([float(v) for _, v in orbits])
    n_orbits = th.size
    theta_at = np.empty((n_orbits, n_steps + 1))
    r_at = np.empty((n_orbits, n_steps + 1))
    theta_at[:, 0], r_at[:, 0] = th % 1.0, r
    for s in range(1, n_steps + 1):
        th, r = system.forward(th, r)
        theta_at[:, s], r_at[:, s] = th, r
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["orbit", "step", "theta", "r"])
        w.writerows([0, j, repr(t), repr(v)] for j, (t, v) in
                    enumerate(zip(ths.tolist(), system.curve_height(ths).tolist())))
        for i in range(n_orbits):
            w.writerows([i + 1, s, repr(t), repr(v)] for s, (t, v) in
                        enumerate(zip(theta_at[i].tolist(), r_at[i].tolist())))


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
