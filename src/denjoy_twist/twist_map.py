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

import json
from dataclasses import dataclass
from itertools import chain, count, repeat

import numpy as np

from .layout import circle_delta, points
from .profiles import profile_eval
from .reporting import FD_STEP, FD_STEP_REL, csv_lines, fork_map, write_csv, write_csv_blocks

# grid points per array pass of the linearity check and the second-derivative
# scan, in whole gaps (256 x 64 and 64 x 256 at the default grids): their
# temporaries stay at a few MB whatever M is
_BLOCK_POINTS = 2**14

# portrait rows per fork_map call, in whole orbits: the texts of one call, a
# few MB, are held until written; an orbit longer than this is streamed
_PORTRAIT_ROWS = 2**16


def _in_turn(n, seed, lo, hi):
    """n gap indices taken in turn from [lo, hi), the first lo + seed mod
    (hi - lo): n >= hi - lo of them take every index."""
    span = hi - lo
    return (np.arange(n) + seed % span) % span + lo


class TwistSystem:
    """The assembled map f, its inverse, and the invariant curve.

    phi = (g~ - Id) + (g~^{-1} - Id) is read through periodic parts, with
    the one scalar-or-array rule of the twist layer (`_lifts`): a scalar x
    is read as a Python float through g's scalar lifts, an array through its
    _many lifts, with the same arithmetic, so the two agree bitwise.
    Fractional parts are x % 1.0, bitwise x - floor(x) for floats and arrays
    alike.
    """

    def __init__(self, g, table=None, seqs=None):
        self.g = g
        self.table = table
        self.seqs = seqs

    def _lifts(self, x):
        """frac(x), and g's lift and inverse lift to evaluate there."""
        if isinstance(x, float) or np.ndim(x) == 0:
            return float(x) % 1.0, self.g.lift, self.g.inverse_lift
        with np.errstate(invalid="ignore"):   # inf % 1.0: the float route's NaN
            fr = np.asarray(x, dtype=float) % 1.0
        return fr, self.g.lift_many, self.g.inverse_lift_many

    def _phi_terms(self, x):
        """g~ - Id and g~^{-1} - Id at the fractional part of x, whose sum is
        phi(x)."""
        fr, lift, inverse_lift = self._lifts(x)
        return lift(fr) - fr, inverse_lift(fr) - fr

    def phi(self, x):
        up, down = self._phi_terms(x)
        return up + down

    # -- the map -----------------------------------------------------------

    def curve_height(self, theta):
        """gamma(theta) = g~(theta) - theta on the canonical branch."""
        fr, lift, _ = self._lifts(theta)
        return lift(fr) - fr

    # Each step takes theta and r as floats, giving Python floats, or as
    # arrays of one shape, stepping every point with one array phi call.

    def _step(self, theta, r):
        """forward's step, and gamma(theta1) = g~(theta1) - theta1: phi's
        first term, which the step computes anyway."""
        # split r into integer and fractional parts (both exact) so the
        # theta output commutes bitwise with vertical integer translation
        if isinstance(theta, float):
            w = theta % 1.0 + r % 1.0
        else:
            with np.errstate(invalid="ignore"):   # inf % 1.0: the float route's NaN
                w = theta % 1.0 + r % 1.0
        theta1 = w - (w >= 1.0)   # back into [0, 1)
        height, down = self._phi_terms(theta1)
        return theta1, r + (height + down), height

    def forward(self, theta, r):
        theta1, r1, _ = self._step(theta, r)
        return theta1, r1

    def backward(self, theta, r):
        if isinstance(theta, float):
            th, fr = theta % 1.0, r % 1.0
        else:
            with np.errstate(invalid="ignore"):   # inf % 1.0: the float route's NaN
                th, fr = theta % 1.0, r % 1.0
        p = self.phi(th)
        w = th - fr + p
        return w % 1.0, r - p

    def forward_lift(self, theta, r):
        if isinstance(theta, float):
            w = theta + r
        else:
            with np.errstate(invalid="ignore"):   # inf - inf: the float route's NaN
                w = theta + r
        return w, r + self.phi(w)

    def backward_lift(self, theta, r):
        p = self.phi(theta)
        if isinstance(theta, float):
            return theta - r + p, r - p
        with np.errstate(invalid="ignore"):   # inf - inf: the float route's NaN
            return theta - r + p, r - p

    # -- checks ------------------------------------------------------------

    def sample_points(self, n, seed=0):
        """Mixed circle samples from the seed's Kronecker set: half generic
        (residual-heavy), a quarter in gap interiors and a quarter at gap
        starts, the gaps taken in turn, so that n/4 >= 2M + 1 samples every
        gap."""
        tb = self.table
        v = points(n, seed)
        half, quarter = n // 2, n // 4
        ks = _in_turn(n - half, seed, -tb.M, tb.M + 1)
        inner = ks[:quarter]
        return np.concatenate([v[:half],
                               tb.lam_of(inner) + v[half:half + quarter] * tb.ell_of(inner),
                               tb.lam_of(ks[:n - half - quarter])])

    def verify_invariant_curve(self, n_samples: int = 10000, seed: int = 0) -> dict:
        """Max residuals of f(theta, gamma) against the curve and of
        f(theta, gamma + 1) against the curve shifted by 1, at one sample set."""
        if self.table is not None:
            thetas = self.sample_points(n_samples, seed)
        else:
            thetas = points(n_samples, seed)
        fr = thetas % 1.0
        lift1 = self.g.lift_many(fr)
        gam = lift1 - fr
        # the target point (g(theta), g^2(theta) - g(theta)), its r shifted by
        # the translate of the step
        target_theta = lift1 % 1.0
        target_r = self.curve_height(target_theta)
        rep = {"n_samples": int(n_samples)}
        for key, translate in (("max_residual", 0), ("max_residual_translated", 1)):
            theta1, r1, _ = self._step(fr, gam + translate)
            rep[key] = float(max(np.abs(circle_delta(theta1, target_theta)).max(),
                                 np.abs(r1 - (target_r + translate)).max()))
        return rep

    # The sampled checks below step all their samples in one array call.
    # Reductions are np.max, so a NaN sample fails its check instead of
    # vanishing as in a Python max.

    def roundtrip_check(self, n_samples: int = 10000, seed: int = 1) -> float:
        """max over samples of |f^{-1}(f(theta, r)) - (theta, r)| and converse."""
        th, v = points(n_samples, seed, 2).T
        r = 3.0 * v - 1.5   # r on [-1.5, 1.5)
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
        th, v = points(n_samples, seed, 2).T
        r = np.floor(4096.0 * v) / 1024.0 - 2.0   # multiples of 1/1024 on [-2, 2)
        t1, r1 = self.forward(th, r)
        t2, r2 = self.forward(th, r + 1.0)
        return {"max_theta_dev": float(np.max(np.abs(t2 - t1), initial=0.0)),
                "max_r_dev": float(np.max(np.abs((r2 - r1) - 1.0), initial=0.0))}

    def det_check(self, n_samples: int = 1000, seed: int = 3) -> float:
        """|det Df - 1| by central differences at differentiable points."""
        theta, v = points(n_samples, seed, 2).T
        r = v - 0.5
        if self.table is not None:
            # gap interiors with margin, s on [0.1, 0.4) or [0.6, 0.9):
            # differentiable, and theta +- step cannot straddle a slope kink
            span = min(400, self.table.M)
            k = _in_turn(n_samples, seed, -span, span)
            s = np.where(theta < 0.5, 0.1, 0.3) + 0.6 * theta
            theta = self.table.lam_of(k) + s * self.table.ell_of(k)
        w = theta - r  # probe at theta+r == theta, away from kinks
        F, step = self.forward_lift, FD_STEP
        (tp, rp), (tm, rm) = F(w + step, r), F(w - step, r)
        (tu, ru), (td, rd) = F(w, r + step), F(w, r - step)
        a, c = (tp - tm) / (2 * step), (rp - rm) / (2 * step)
        b, d = (tu - td) / (2 * step), (ru - rd) / (2 * step)
        return float(np.max(np.abs(a * d - b * c - 1.0), initial=0.0))

    def twist_check(self, n_samples: int = 100, seed: int = 4) -> dict:
        """d theta' / d r: affine-in-r by the formula; confirmed by differences."""
        th, v = points(n_samples, seed, 2).T
        r = 2.0 * v - 1.0   # r on [-1, 1)
        d = (self.forward_lift(th, r + FD_STEP)[0]
             - self.forward_lift(th, r - FD_STEP)[0]) / (2 * FD_STEP)
        return {"max_fd_dev": float(np.max(np.abs(d - 1.0), initial=0.0))}

    def periodicity_check(self, n_samples: int = 1000, seed: int = 5) -> float:
        xs = points(n_samples, seed)
        return float(np.max(np.abs(self.phi(xs + 1.0)
                                   - self.phi(xs))))

    def mean_check(self, n_grid: int = 8192) -> float:
        """Quadrature mean of phi (exact zero is unattainable under truncation)."""
        xs = (np.arange(n_grid) + 0.5) / n_grid
        return float(np.mean(self.phi(xs)))

    # -- phi linearity on the middle segments -------------------------------

    def phi_linearity_check(self, n_points: int = 64) -> dict:
        """Affine fit of phi on each J_k, in gap-local coordinates.

        On J_k, phi(lam_k + u) is lam_{k+1} + lam_{k-1} - 2 lam_k plus
        zeta_k(u) = h_k(u) + h_{k-1}^{-1}(u) - 2u, up to the lift's integers,
        so the fit reads zeta_k: O(ell_k) values with no global cancellation.
        Every gap shares the grid u = ell_k t, t on [3/8, 5/8], so the
        least-squares line, its worst residual and its value at ell_k/2 are
        closed forms over a block of gaps. The slope is checked against
        m_k - 2 (index 1 the adjusted m), the midpoint value against
        (ell_{k+1} + ell_{k-1})/2 - ell_k, and at index 1, where the adjusted
        head relation gives zeta_1(u) = (m - 2) u - alpha_1 ell_1 / 2, the
        values against that line.
        """
        seqs, h, M = self.seqs, self.g.local, self.table.M
        ks = np.arange(-M + 1, M)
        ell = seqs.ell(ks)
        t = np.linspace(0.375, 0.625, n_points)
        tbar = t.mean()
        tc = t - tbar
        slope_t, mid, devs = np.empty((3, len(ks)))
        block = max(1, _BLOCK_POINTS // n_points)
        for lo in range(0, len(ks), block):
            # one row of n_points per gap, a block of gaps per h_k and h_{k-1}^{-1}
            rows = slice(lo, lo + block)
            k, u = ks[rows, None], ell[rows, None] * t
            z = h.value(u, k) + h.invert(u, k - 1) - 2.0 * u
            if lo <= M < lo + block:   # the row of index 1
                u1, z1 = u[M - lo], z[M - lo]
            zbar = np.mean(z, axis=1)
            b = np.sum(z * tc, axis=1) / np.sum(tc * tc)   # the slope in t
            slope_t[rows], mid[rows] = b, zbar + b * (0.5 - tbar)
            devs[rows] = np.max(np.abs(z - zbar[:, None] - b[:, None] * tc), axis=1)
        m = np.where(ks == 1, seqs.m1_adjusted, seqs.m(ks))
        slope_devs = np.abs(slope_t / ell - (m - 2.0))
        const_devs = np.abs(mid - ((seqs.ell(ks + 1) + seqs.ell(ks - 1)) / 2.0 - ell))
        line1 = (seqs.m1_adjusted - 2.0) * u1 - seqs.alpha1 * ell[M] / 2.0
        return {
            "k": ks,
            "max_fit_deviation": float(np.max(devs)),
            "max_slope_deviation": float(np.max(slope_devs)),
            "max_const_deviation": float(np.max(const_devs)),
            "local_offset_dev_k1": float(np.max(np.abs(z1 - line1))),
            "fit_deviation": devs,
            "slope_deviation": slope_devs,
        }

    # -- regularity scan -----------------------------------------------------

    def second_derivative_scan(self, n_grid: int = 256,
                               fd_step_rel: float = FD_STEP_REL) -> "RegularityReport":
        """Per-gap second-derivative data for zeta_k = h_k + h_{k-1}^{-1} - 2 Id.

        Evaluates the four closed-form terms on an interior grid u that avoids
        the midpoint, sums them, and cross-checks against (i) a five-point
        finite difference of the analytic first derivative and (ii) the
        direct chain-rule second derivative.

        h_{k-1} is inverted once per grid point, v = h_{k-1}^{-1}(u). The
        difference is taken in those coordinates: F(w) = zeta_k'(h_{k-1}(w))
        needs no inversion, and its stencil v + c delta, c in {+-1, +-2},
        with delta = hstep / h_{k-1}'(v), divided by 12 hstep, differences
        F'(v) / h_{k-1}'(v) = zeta_k''(u). Where h_{k-1} is affine (its ends
        and linear middle, next to the gap ends and the midpoint) h_{k-1}
        takes the stencil onto u + c hstep, so a step below 1/(4 n_grid)
        keeps it inside its half-gap, up to rounding.

        The blocks of gaps are shared out by fork_map.
        """
        h, M = self.g.local, self.table.M
        eta = h.eta
        s = (np.arange(n_grid) + 0.5) / n_grid
        # the s-grid terms are the same for every gap: once per profile
        eta1_s = profile_eval(eta, s, 1)
        g1_plus = profile_eval(h.gamma_plus, s, 1)
        g1_minus = profile_eval(h.gamma_plus, s, 1, reflect=True)
        ks = np.arange(-M + 1, M)

        def sup(x):
            return np.max(np.abs(x), axis=1)

        def scan_block(k):
            """The sups of one block of gaps k (a column): one row per gap, one
            column per grid point. Each term is reduced to its sup once
            formed, and the block's arrays are freed on return."""
            j = k + M
            ell_k, ell_km1 = h.ell[j], h.ell[j - 1]
            K_k, K_km1 = h.K[j], h.K[j - 1]
            a_k, a_km1 = h.alpha[j], h.alpha[j - 1]
            u = s * ell_k

            def psi(x, K, alpha, minus):
                """K eta + alpha gamma at x, gamma mirrored where minus."""
                return (K * profile_eval(eta, x, 0)
                        + alpha * profile_eval(h.gamma_plus, x, 0, reflect=minus))

            def dzeta(uu, psi_v):
                """zeta_k' at uu; psi_v is psi_{k-1} at h_{k-1}^{-1}(uu)."""
                return psi(uu / ell_k, K_k, a_k, ~h.plus[j]) - psi_v / (1.0 + psi_v)

            def dzeta_at_h(w):
                """zeta_k' at h_{k-1}(w), with no inversion."""
                return dzeta(h.value(w, k - 1),
                             psi(w / ell_km1, K_km1, a_km1, ~h.plus[j - 1]))

            v = h.invert(u, k - 1)
            sup_zeta = sup(h.value(u, k) + v - 2.0 * u)
            st = v / ell_km1

            eta1_st, eta_st = profile_eval(eta, st, (1, 0))
            gk1_s = np.where(h.plus[j], g1_plus, g1_minus)
            gkm1_1_s = np.where(h.plus[j - 1], g1_plus, g1_minus)
            gkm1_1_st, gkm1_st = profile_eval(h.gamma_plus, st, (1, 0),
                                              reflect=~h.plus[j - 1])
            psi_v = K_km1 * eta_st + a_km1 * gkm1_st
            sup_dz = sup(dzeta(u, psi_v))

            # five-point FD of zeta_k' o h_{k-1} about v, one point at a time
            hstep = fd_step_rel * ell_k
            delta = hstep / (1.0 + psi_v)
            fd = -dzeta_at_h(v + 2 * delta)
            fd += 8.0 * dzeta_at_h(v + delta)
            fd -= 8.0 * dzeta_at_h(v - delta)
            fd += dzeta_at_h(v - 2 * delta)
            fd /= 12.0 * hstep
            dpsi_v = (K_km1 * eta1_st + a_km1 * gkm1_1_st) / ell_km1
            df_inv = (ell_k / ell_km1) / (1.0 + psi_v)

            # total = II + III + IV + V, summed in that order
            total = (K_k * eta1_s - K_km1 * eta1_s
                     + a_k * gk1_s - a_km1 * gkm1_1_s) / ell_k
            sup_II = sup(total)
            term = -((K_km1 * eta1_st + a_km1 * gkm1_1_st) / ell_k) * (
                df_inv / (1.0 + psi_v) - 1.0)
            sup_III = sup(term)
            total += term
            term = (ell_km1 / ell_k) * psi_v * dpsi_v * df_inv / (1.0 + psi_v) ** 2
            sup_IV = sup(term)
            total += term
            term = (K_km1 * (eta1_s - eta1_st)
                    + a_km1 * (gkm1_1_s - gkm1_1_st)) / ell_k
            sup_V = sup(term)
            total += term

            # direct chain rule
            psik1_u = (K_k * eta1_s + a_k * gk1_s) / ell_k
            direct = (psik1_u - dpsi_v / (1.0 + psi_v) ** 2
                      + psi_v * dpsi_v / (1.0 + psi_v) ** 3)

            # in the field order of RegularityReport
            return (sup(total), sup_II, sup_III, sup_IV, sup_V, sup_dz, sup_zeta,
                    sup(total - fd) / sup(fd), sup(total - direct))

        block = max(1, _BLOCK_POINTS // n_grid)
        blocks = fork_map(scan_block, [ks[lo:lo + block, None]
                                       for lo in range(0, len(ks), block)])
        return RegularityReport(ks, *map(np.concatenate, zip(*blocks)))


@dataclass
class RegularityReport:
    """Per-gap suprema of the second-derivative data, one numpy array per
    column over the gaps k, and their decay summaries."""

    k: np.ndarray
    sup_d2: np.ndarray
    sup_II: np.ndarray
    sup_III: np.ndarray
    sup_IV: np.ndarray
    sup_V: np.ndarray
    sup_dzeta: np.ndarray
    sup_zeta: np.ndarray
    rel_fd_dev: np.ndarray
    abs_analytic_dev: np.ndarray

    # the columns of regularity.csv, in order
    CSV_COLUMNS = ("k", "sup_d2", "sup_II", "sup_III", "sup_IV", "sup_V",
                   "sup_dzeta", "sup_zeta", "rel_fd_dev")

    def summary(self) -> dict:
        k, d2 = self.k, self.sup_d2
        abs_k = np.abs(k)
        M = int(np.max(abs_k)) + 1
        half = M // 2
        tail = float(np.max(d2[abs_k >= half]))
        head = float(np.max(d2[abs_k <= half]))
        off_crossing = (k != 0) & (k != 1)
        return {
            "sup_all": float(np.max(d2)),
            # gaps 0 and 1 pair cross-center indices (K flips sign; the
            # alpha seed jump), where the two-sided difference estimates do
            # not apply; the limit statements concern the complement
            "sup_off_crossing": float(np.max(d2[off_crossing])),
            "sup_tail": tail,
            "sup_head": head,
            "tail_below_head": tail < head,
            "max_rel_fd_dev": float(np.max(self.rel_fd_dev)),
            "max_abs_analytic_dev": float(np.max(self.abs_analytic_dev)),
        }

    def to_csv(self, path) -> None:
        write_csv_blocks(path, self.CSV_COLUMNS, len(self.k), lambda lo, hi: (
            getattr(self, name)[lo:hi] for name in self.CSV_COLUMNS))


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
    """Base segment endpoints and midpoints, one row per marker."""

    def rows():
        for kind, ks in (("stable", np.arange(max(k_lo, 1), k_hi + 1)),
                         ("unstable", np.arange(min(k_hi, 0), k_lo - 1, -1))):
            mu, base_r, slope, hw = (a[:, None] for a in base_segments(system, ks))
            xs = mu + hw * np.array([-1.0, 0.0, 1.0])
            rs = base_r + slope * (xs - mu)
            for k, x, r in zip(ks.tolist(), xs.tolist(), rs.tolist()):
                yield from zip(repeat(k), repeat(kind), ("lo", "mid", "hi"), x, r)

    write_csv(path, ("k", "kind", "marker", "x", "r"), rows())


def dump_phase_portrait_csv(system: TwistSystem, orbits, n_steps: int, path,
                            curve_samples: int = 512) -> None:
    """(orbit, step, theta, r) rows; orbit 0 samples the invariant curve.

    Each orbit is stepped on Python floats, one scalar forward per step.
    Where an orbit has at most _PORTRAIT_ROWS rows, each orbit is made into
    its CSV text, the orbits shared out by fork_map _PORTRAIT_ROWS rows at a
    time at most, and the curve rows and then the texts are written in orbit
    order; a longer orbit is written row by row as it is stepped, so the
    memory held stays bounded whatever n_steps is.
    """
    header = ("orbit", "step", "theta", "r")
    ths = (np.arange(curve_samples) + 0.5) / curve_samples
    curve = zip(repeat(0), count(), ths.tolist(), system.curve_height(ths).tolist())
    starts = [(i, float(th) % 1.0, float(r)) for i, (th, r) in enumerate(orbits, 1)]

    def rows(start):
        i, th, r = start
        yield i, 0, th, r
        for s in range(1, n_steps + 1):
            th, r = system.forward(th, r)
            yield i, s, th, r

    per_call = _PORTRAIT_ROWS // (n_steps + 1)
    if per_call == 0:
        write_csv(path, header, chain(curve, *map(rows, starts)))
        return

    def orbit_text(start):
        return "".join(csv_lines(rows(start), len(header)))

    texts = (text for lo in range(0, len(starts), per_call)
             for text in fork_map(orbit_text, starts[lo:lo + per_call]))
    write_csv(path, header, curve, texts)


def dump_json(obj: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
