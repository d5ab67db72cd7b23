"""The Denjoy-type circle homeomorphism g, one piece table plus one h_k family.

Structure of g as a sorted table of pieces over one fundamental domain:

* gap pieces, k in [-M, M-1]: translate-apply-translate with the local
  diffeomorphism h_k, so g(I_k) = I_{k+1} exactly;
* transport pieces on the residual set: the placement measure conjugates the
  rigid rotation, which on atom-free stretches is an affine map of slope
  essentially 1 between images of stored gap endpoints;
* two patch pieces absorbing the truncation boundary: the gap I_M (whose
  image gap is not stored) is flattened affinely into a short residual
  interval, and a short residual interval around the preimage of I_{-M}
  opens up affinely onto that gap.

Every h_k is the same two profile shapes (eta and one jump profile) scaled
by four numbers: ell_k, K_k, alpha_k and the jump side. The family is one
LocalDiffeo holding them as columns indexed by k + M; its value,
derivatives and inverse broadcast over points from mixed gaps.

With the patches kept narrow, the semi-conjugacy to the rotation is exact
outside two intervals of t-measure a few 1e-4, which pins the rotation
number to omega far beyond the 1/n acceptance window. The object is
immutable after build and safe for concurrent read-only use.
"""

from __future__ import annotations

import bisect
import math
from array import array

import numpy as np

from .layout import GapTable
from .profiles import _ANTI, _TABLE_PANELS, ProfileSet, profile_eval
from .sequences import ConstructionError

_NOT_GAP = 10**9   # the gap k of a piece that is not a gap

_INVERT_REL_TOL = 1e-14
_INVERT_MAX_ITER = 200
_EPS = np.finfo(float).eps
_BREAKS = np.array([0.0, 0.375, 0.5, 0.625, 1.0])   # breakpoints of h_k, in s


def _hull_vertices(points):
    """Vertices of the convex hull of 2-D points, counter-clockwise from the
    leftmost one, the lowest of those on a tie (Andrew's monotone chain).

    Duplicate points count once; points on a hull edge, collinear within
    the sign of the cross product, are not vertices.
    """
    pts = points[np.lexsort(points.T[::-1])]
    pts = pts[np.append(True, np.any(pts[1:] != pts[:-1], axis=1))]
    if len(pts) < 3:
        return pts

    def chain(seq):
        # keep only left turns; the last point starts the other chain
        out = []
        for x, y in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0:
                    break
                out.pop()
            out.append((x, y))
        return out[:-1]

    rows = pts.tolist()
    return np.array(chain(rows) + chain(rows[::-1]))


class LocalDiffeo:
    """The family h_k, k in [-M, M-1]: h_k on [0, ell_k] is the integral of
    1 + K_k eta + alpha_k gamma_k.

    Columns ell, ell_next, K, alpha and plus are indexed by k + M. plus picks
    the jump profile that shapes the slope discontinuity at ell_k/2 (True:
    gamma_plus, the linear left piece has slope 1+K and the right 1+K+alpha;
    False: gamma_minus, mirrored). Every method broadcasts its points against
    k, so one call serves points from mixed gaps. Treat as immutable after
    construction.
    """

    def __init__(self, seqs, profiles: ProfileSet, swap_gamma: bool = False):
        self.M = seqs.M
        ks = np.arange(-self.M, self.M)
        self.ell, self.ell_next = seqs.ell(ks), seqs.ell(ks + 1)
        self.K, self.alpha = seqs.K(ks), seqs.alpha(ks)
        self.plus = (ks >= 1) != swap_gamma
        self.eta, self.gamma_plus = profiles.eta, profiles.gamma_plus
        self._check_monotone()
        self._bp_u = self.ell[:, None] * _BREAKS
        self._bp_v = self.value(self._bp_u, ks[:, None])

    def __len__(self) -> int:
        return len(self.ell)

    def _check_monotone(self):
        """ConstructionError unless every h_k' = 1 + K_k eta + alpha_k gamma_k > 0;
        returns each gap's minimum slope.

        For fixed s the slope is linear in (K_k, alpha_k), so its minimum over
        the curve s -> (eta(s), gamma_plus(s)), tabulated on the profile table
        grid, sits at a vertex of the curve's convex hull. eta is mirror
        symmetric, so gamma_minus traces the same pairs.
        """
        s = np.linspace(0.0, 1.0, _TABLE_PANELS + 1)
        curve = np.column_stack([profile_eval(self.eta, s),
                                 profile_eval(self.gamma_plus, s)])
        eta_v, gamma_v = _hull_vertices(curve).T
        low = np.min(1.0 + self.K[:, None] * eta_v + self.alpha[:, None] * gamma_v,
                     axis=1)
        j = int(np.argmin(low))
        if not low[j] > 0.0:
            raise ConstructionError(
                f"h_{j - self.M} is not monotone: minimum slope {low[j]:.6g}")
        return low

    def _h(self, u, k, orders, side=None):
        """h_k, h_k' or h_k'' at u for each profile order of orders
        ("antiderivative", 0 or 1), from one profile_eval per profile;
        gamma_minus is gamma_plus read reflected at the points of minus
        gaps."""
        j = k + self.M
        ell, K, alpha = self.ell[j], self.K[j], self.alpha[j]
        u = np.asarray(u, dtype=float)
        s = u / ell
        es = profile_eval(self.eta, s, orders)
        gs = profile_eval(self.gamma_plus, s, orders, side=side, reflect=~self.plus[j])
        return [u + K * ell * e + alpha * ell * g if o == _ANTI else
                1.0 + K * e + alpha * g if o == 0 else
                (K * e + alpha * g) / ell for o, e, g in zip(orders, es, gs)]

    def value(self, u, k):
        return self._h(u, k, (_ANTI,))[0]

    def deriv(self, u, k, side=None):
        return self._h(u, k, (0,), side)[0]

    def second_deriv(self, u, k, side=None):
        return self._h(u, k, (1,), side)[0]

    def invert(self, v, k):
        """u with h_k(u) = v, for v in [0, ell_{k+1}].

        Exact closed form on the two linear middle pieces, safeguarded
        Newton elsewhere, to |h(u) - v| <= 1e-14 ell_{k+1}.
        """
        v, k = np.asarray(v, dtype=float), np.asarray(k)
        if v.shape != k.shape:
            v, k = np.broadcast_arrays(v, k)
        shape = v.shape
        v, k = v.ravel(), k.ravel()
        j = k + self.M
        us, vs = self._bp_u[j], self._bp_v[j]
        tol = _INVERT_REL_TOL * self.ell_next[j]
        bad = (v < -tol) | (v > vs[:, 4] + tol)
        if bad.any():
            # pass a few ulp at circle scale too: a gap's image piece in the
            # global table can be that much wider than h_k(ell_k), so g^{-1}
            # at a gap's right end lands just outside
            slack = tol[bad] + 8.0 * _EPS
            far = (v[bad] < -slack) | (v[bad] > vs[bad, 4] + slack)
            if far.any():
                raise ValueError(
                    f"inverse argument outside [0, ell_{int(k[bad][far][0]) + 1}]")
        v = np.clip(v, 0.0, vs[:, 4])
        out = np.empty_like(v)

        # the linear pieces: slope 1+K, and 1+K+alpha on the jump side
        # (right of the midpoint for gamma_plus, left for gamma_minus)
        lin = (v >= vs[:, 1]) & (v <= vs[:, 3])
        if lin.any():
            jl, vl = j[lin], v[lin]
            K, alpha = self.K[jl], self.alpha[jl]
            slope = 1.0 + K + np.where((vl > vs[lin, 2]) == self.plus[jl], alpha, 0.0)
            intercept = np.where(slope == 1.0 + K, 0.0, -alpha * self.ell[jl] / 2.0)
            out[lin] = (vl - intercept) / slope

        left = v < vs[:, 1]
        sh = (left | (v > vs[:, 3])).nonzero()[0]
        if sh.size:
            out[sh] = self._newton(v[sh], k[sh], left[sh], us[sh], vs[sh], tol[sh])
        return out.reshape(shape)[()]

    def _newton(self, v, k, left, us, vs, tol):
        """Safeguarded Newton on the shoulders, all points in one pass.

        Each point keeps its own bracket and leaves the pass once converged,
        so its result does not depend on which other points share the call.
        """
        lo = np.where(left, us[:, 0], us[:, 3])
        hi = np.where(left, us[:, 1], us[:, 4])
        lo_v = np.where(left, vs[:, 0], vs[:, 3])
        hi_v = np.where(left, vs[:, 1], vs[:, 4])
        u = lo + (hi - lo) * (v - lo_v) / (hi_v - lo_v)
        out = np.empty_like(u)
        idx = np.arange(len(u))
        for _ in range(_INVERT_MAX_ITER):
            f, d = self._h(u, k, (_ANTI, 0))
            f = f - v
            done = np.abs(f) <= tol
            if done.any():
                out[idx[done]] = u[done]
                if done.all():
                    return out
                idx, u, k, v, tol, lo, hi, f, d = (
                    a[~done] for a in (idx, u, k, v, tol, lo, hi, f, d))
            above = f > 0.0
            hi = np.where(above, u, hi)
            lo = np.where(above, lo, u)
            un = u - f / d
            u = np.where((un <= lo) | (un >= hi), 0.5 * (lo + hi), un)
        raise ConstructionError(
            f"inversion of h_{int(k[0])} failed to converge: {len(k)} of "
            f"{len(out)} points after {_INVERT_MAX_ITER} Newton steps")


# ---------------------------------------------------------------------------
# the assembled homeomorphism
# ---------------------------------------------------------------------------

class CircleHomeo:
    """Piecewise circle homeomorphism with exact wandering-gap dynamics."""

    def __init__(self, table: GapTable, seqs, profiles: ProfileSet,
                 swap_gamma: bool = False):
        self.table = table
        self.swap_gamma = swap_gamma
        self.M = table.M
        self.local = LocalDiffeo(seqs, profiles, swap_gamma)
        self._build_pieces()

    # -- construction ------------------------------------------------------

    def _atom_free_dist(self, t: float) -> float:
        """Circular distance from t to the nearest atom other than t itself."""
        st = self.table.sorted_t
        n = len(st)
        j = int(np.searchsorted(st, t, side="left"))
        is_atom = j < n and st[j] == t
        lo = st[j - 1] if j > 0 else st[-1] - 1.0
        if is_atom:
            hi = st[j + 1] if j + 1 < n else st[0] + 1.0
        else:
            hi = st[j] if j < n else st[0] + 1.0
        return min(t - lo, hi - t)

    def _build_pieces(self):
        tb, M = self.table, self.M
        res, psi = tb.residual_mass, tb.placement
        omega = tb.omega

        def circ_dist(a, b):
            d = abs(a - b) % 1.0
            return min(d, 1.0 - d)

        t_star = float((tb.t_of(-M) - omega) % 1.0)   # preimage of the -M atom
        t_prime = float((tb.t_of(M) + omega) % 1.0)   # image of the M atom
        t_gap_hi = float(tb.t_of(M))
        t_gap_lo = float(tb.t_of(-M))

        cross1 = circ_dist(t_star, t_gap_hi)
        cross2 = circ_dist(t_gap_lo, t_prime)
        w_A = 0.3 * min(self._atom_free_dist(t_star), self._atom_free_dist(t_gap_lo),
                        cross1, cross2)
        w_B = 0.3 * min(self._atom_free_dist(t_prime), self._atom_free_dist(t_gap_hi),
                        cross1, cross2)
        if not (w_A > 0.0 and w_B > 0.0):
            raise ConstructionError("degenerate patch width at the truncation boundary")
        self.patch_widths = (w_A, w_B)

        # anchors, one column each: x_lo, x_hi, y_lo_raw, y_width, k;
        # the 2M gap pieces, then the two patches
        ks = np.arange(-M, M)
        lamM, ellM = float(tb.lam_of(M)), float(tb.ell_of(M))
        lamN, ellN = float(tb.lam_of(-M)), float(tb.ell_of(-M))
        lam = tb.lam_of(ks)
        a_x_lo = np.append(lam, [lamM - res * w_B, psi(t_star - w_A)])
        a_x_hi = np.append(lam + tb.ell_of(ks),
                           [lamM + ellM + res * w_B, psi(t_star + w_A)])
        a_y_lo = np.append(tb.lam_of(ks + 1),
                           [psi(t_prime - w_B), lamN - res * w_A])
        a_y_w = np.append(tb.ell_of(ks + 1), [2.0 * res * w_B, ellN + 2.0 * res * w_A])
        a_k = np.append(ks, [_NOT_GAP, _NOT_GAP])
        by_x = np.argsort(a_x_lo, kind="stable")
        a_x_lo, a_x_hi, a_y_lo, a_y_w, a_k = (
            c[by_x] for c in (a_x_lo, a_x_hi, a_y_lo, a_y_w, a_k))

        # fill the stretches between consecutive anchors with affine transport
        t_x_hi = np.roll(a_x_lo, -1)
        t_x_hi[-1] += 1.0
        if np.any(t_x_hi < a_x_hi - 1e-12):
            raise ConstructionError("anchor pieces overlap")
        t_y_lo = (a_y_lo + a_y_w) % 1.0
        t_w = np.roll(a_y_lo, -1) - t_y_lo
        t_w = np.where(t_w < -1e-9, t_w + 1.0, t_w)
        keep = t_x_hi - a_x_hi > 0.0
        if np.any(t_w[keep] <= 0.0):
            raise ConstructionError("transport piece with nonpositive image width")

        # each anchor followed by its transport piece, where that is nonempty
        real = np.column_stack([np.ones_like(keep), keep]).ravel()

        def pieces(anchor, transport):
            return np.column_stack([anchor, transport]).ravel()[real]

        x_lo = pieces(a_x_lo, a_x_hi)
        if x_lo[0] != 0.0:
            raise ConstructionError("piece table must start at x = 0")
        gap_k = pieces(a_k, np.full_like(a_k, _NOT_GAP))
        widths = pieces(a_y_w, t_w)
        y_first = a_y_lo[0]
        seam = 1.0 - float(np.sum(widths))
        if abs(seam) > 1e-10:
            raise ConstructionError(f"image widths sum to 1 {seam:+.3e}")
        # absorb the closing seam into the widest transport piece so the lift
        # closes up to period 1 exactly
        j = int(np.argmax(np.where(gap_k == _NOT_GAP, widths, -1.0)))
        widths[j] += seam
        y_lo = np.concatenate(([y_first], y_first + np.cumsum(widths)))
        slope = widths / (pieces(a_x_hi, t_x_hi) - x_lo)
        if np.any(np.diff(x_lo) <= 0.0) or np.any(slope <= 0.0):
            raise ConstructionError("piece table is not strictly monotone")

        # each column stored once, as a Python array: the scalar lifts bisect
        # it and read Python floats, the same bits as numpy gives without its
        # per-call cost; the array paths read numpy views of the same memory
        self._columns = tuple(array(code, col.tobytes()) for code, col in (
            ("d", x_lo), ("d", y_lo), ("d", slope), ("q", gap_k.astype(np.int64))))
        self._x_lo, self._y_lo, self._slope, self._gap_k = (
            np.frombuffer(col, col.typecode) for col in self._columns)
        self.n_pieces = len(x_lo)
        self.y_start = float(y_lo[0])

    # -- evaluation --------------------------------------------------------

    def lift(self, x: float) -> float:
        """Continuous increasing lift with g~(x+1) = g~(x)+1 exactly."""
        n = math.floor(x)
        fr = x - n
        x_lo, y_lo, slope, gap_k = self._columns
        i = bisect.bisect_right(x_lo, fr) - 1
        if gap_k[i] == _NOT_GAP:
            return n + (y_lo[i] + slope[i] * (fr - x_lo[i]))
        return n + float(y_lo[i] + self.local.value(fr - x_lo[i], gap_k[i]))

    def eval(self, x: float) -> float:
        v = self.lift(x)
        return v - math.floor(v)

    def inverse_lift(self, y: float) -> float:
        m = math.floor(y - self.y_start)
        yf = y - m
        x_lo, y_lo, slope, gap_k = self._columns
        i = min(bisect.bisect_right(y_lo, yf) - 1, self.n_pieces - 1)
        if gap_k[i] == _NOT_GAP:
            return (x_lo[i] + (yf - y_lo[i]) / slope[i]) + m
        return float(x_lo[i] + self.local.invert(yf - y_lo[i], gap_k[i])) + m

    def inverse_eval(self, y: float) -> float:
        v = self.inverse_lift(y)
        return v - math.floor(v)

    def lift_many(self, xs) -> np.ndarray:
        """Vectorized lift: affine pieces inline, all gap points in one call."""
        xs = np.asarray(xs, dtype=float)
        ns = np.floor(xs)
        fr = xs - ns
        idx = np.searchsorted(self._x_lo, fr, side="right") - 1
        out = np.empty_like(fr)
        aff = self._gap_k[idx] == _NOT_GAP
        ia = idx[aff]
        out[aff] = self._y_lo[ia] + self._slope[ia] * (fr[aff] - self._x_lo[ia])
        ig = idx[~aff]
        out[~aff] = self._y_lo[ig] + self.local.value(fr[~aff] - self._x_lo[ig],
                                                      self._gap_k[ig])
        return ns + out

    def inverse_lift_many(self, ys) -> np.ndarray:
        """Vectorized inverse lift: affine pieces inline, all gap points in one call."""
        ys = np.asarray(ys, dtype=float)
        ms = np.floor(ys - self.y_start)
        yf = ys - ms
        idx = np.minimum(np.searchsorted(self._y_lo, yf, side="right") - 1,
                         self.n_pieces - 1)
        out = np.empty_like(yf)
        aff = self._gap_k[idx] == _NOT_GAP
        ia = idx[aff]
        out[aff] = self._x_lo[ia] + (yf[aff] - self._y_lo[ia]) / self._slope[ia]
        ig = idx[~aff]
        out[~aff] = self._x_lo[ig] + self.local.invert(yf[~aff] - self._y_lo[ig],
                                                       self._gap_k[ig])
        return out + ms

    # -- derivatives -------------------------------------------------------

    def _deriv(self, x, side, order: int):
        """g' (order 1) or g'' (order 2) at circle points, floats or arrays.

        Affine pieces are inline and all gap points go to the family in one
        call. side picks the one-sided limit at a gap midpoint and, for g',
        at a piece's left edge, where the left limit is the previous piece's.
        """
        fr = np.atleast_1d(x) % 1.0
        i = np.searchsorted(self._x_lo, fr, side="right") - 1
        u = fr - self._x_lo[i]
        edge = np.zeros(fr.shape, dtype=bool)
        if order == 1 and side == "left":
            edge = fr == self._x_lo[i]
            i = np.where(edge, (i - 1) % self.n_pieces, i)
        out = self._slope[i] if order == 1 else np.zeros(fr.shape)
        gap = np.flatnonzero(self._gap_k[i] != _NOT_GAP)
        if gap.size:
            k = self._gap_k[i[gap]]
            ell = self.local.ell[k + self.M]
            half = 0.5 * ell
            # snap within rounding of the midpoint so the side flag governs
            # there; the window covers the global-to-local coordinate rounding
            # (a few ulp at circle scale) and is far below any gap width
            ug = u[gap]
            ug = np.where(np.abs(ug - half) <= 8.0 * _EPS, half, ug)
            ug = np.where(edge[gap], ell, ug)
            d = self.local.deriv if order == 1 else self.local.second_deriv
            out[gap] = d(ug, k, side=side)
        if np.ndim(x) == 0:
            return float(out[0])
        return out.reshape(np.shape(x))

    def derivative(self, x, side: str = "right"):
        return self._deriv(x, side, 1)

    def second_derivative(self, x, side: str = "right"):
        return self._deriv(x, side, 2)

    def inverse_derivative(self, y: float, side: str = "right") -> float:
        return 1.0 / self.derivative(self.inverse_eval(y), side=side)

    def inverse_second_derivative(self, y: float, side: str = "right") -> float:
        x = self.inverse_eval(y)
        d = self.derivative(x, side=side)
        return -self.second_derivative(x, side=side) / d**3


class RigidRotation:
    """Test double: the rotation by omega, with the lift surface the twist
    map and the rigid-mode checks use."""

    def __init__(self, omega: float):
        self.omega = float(omega)

    def lift(self, x):
        return x + self.omega

    def inverse_lift(self, y):
        return y - self.omega

    def lift_many(self, xs):
        return np.asarray(xs, dtype=float) + self.omega

    def inverse_lift_many(self, ys):
        return np.asarray(ys, dtype=float) - self.omega


def build_circle_homeo(table, seqs, profiles, swap_gamma=False) -> CircleHomeo:
    return CircleHomeo(table, seqs, profiles, swap_gamma=swap_gamma)


# ---------------------------------------------------------------------------
# operations on the built map
# ---------------------------------------------------------------------------

def orbit_lift(g, x0: float, n: int) -> np.ndarray:
    """The lift orbit x0, g~(x0), ..., g~^n(x0)."""
    out = np.empty(n + 1)
    out[0] = x = float(x0)
    for i in range(1, n + 1):
        x = g.lift(x)
        out[i] = x
    return out


def rotation_number_estimate(g, x0: float, n: int) -> float:
    """(g~^n(x0) - x0)/n with exact winding bookkeeping."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float((orbit_lift(g, x0, n)[-1] - x0) / n)


def wandering_interval_check(g: CircleHomeo, n_max: int) -> dict:
    """Iterate the endpoints of I_0 forward and backward and compare against
    the stored table."""
    tb = g.table
    if n_max > tb.M:
        raise ValueError("n_max exceeds the stored range")
    dev = {}
    for name, step, sign in (("forward", g.eval, 1), ("backward", g.inverse_eval, -1)):
        worst = 0.0
        a = float(tb.lam_of(0))
        b = a + float(tb.ell_of(0))
        for n in range(1, n_max + 1):
            a, b = step(a), step(b)
            lam = float(tb.lam_of(sign * n))
            worst = max(worst, abs(a - lam),
                        abs(b - (lam + float(tb.ell_of(sign * n)))))
        dev[name] = worst
    lengths = np.asarray(tb.ell_of(np.arange(0, n_max + 1)), dtype=float)
    return {
        "n_max": n_max,
        "max_endpoint_deviation_forward": dev["forward"],
        "max_endpoint_deviation_backward": dev["backward"],
        "lengths_decreasing": bool(np.all(np.diff(lengths) < 0)),
    }


def derivative_jump_table(g: CircleHomeo) -> list:
    """(k, left derivative, right derivative, jump) at each gap midpoint."""
    h = g.local
    ks = np.arange(-g.M, g.M)
    mid = 0.5 * h.ell
    left = h.deriv(mid, ks, side="left")
    right = h.deriv(mid, ks, side="right")
    return list(zip(ks.tolist(), left.tolist(), right.tolist(),
                    (right - left).tolist()))


def derivative_jump_scan(g: CircleHomeo, n_samples: int, seed: int = 0) -> dict:
    """One-sided derivative agreement at random non-midpoint circle points."""
    xs = np.random.default_rng(seed).random(n_samples)
    jump = np.abs(g.derivative(xs, side="right") - g.derivative(xs, side="left"))
    return {"n_samples": n_samples, "max_offmid_jump": float(np.max(jump, initial=0.0))}

