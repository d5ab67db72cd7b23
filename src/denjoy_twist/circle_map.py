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

The anchors come in the layout's order (GapTable.sorted_to_k) and every
image start is a layout position (lam_{k+1} for gap piece k), unwrapped to
a lift at the one descent: no running sum of widths and no seam.

Every h_k is the same two profile shapes (eta and one jump profile) scaled
by four numbers: ell_k, K_k, alpha_k and the jump side. The family is one
LocalDiffeo holding them as columns indexed by k + M; its value, first
derivative and inverse broadcast over points from mixed gaps.

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

from .layout import GapTable, circle_delta, frac, points
from .profiles import (_ANTI, _TABLE_PANELS, ProfileSet, _check_side, _read, _read_array,
                       profile_eval)
from .sequences import ConstructionError

_NOT_GAP = 10**9   # the gap k of a piece that is not a gap

_INVERT_REL_TOL = 1e-14
_INVERT_MAX_ITER = 200
_EPS = float(np.finfo(float).eps)
_BREAKS = np.array([0.0, 0.375, 0.5, 0.625, 1.0])   # breakpoints of h_k, in s
_BP_BLOCK = 2**11   # gaps per array pass over the family at build


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

    Columns ell, ell_next, K, alpha (views of the sequence arrays) and plus
    are indexed by k + M. plus picks the jump profile that shapes the slope
    discontinuity at ell_k/2 (True: gamma_plus, the linear left piece has
    slope 1+K and the right 1+K+alpha; False: gamma_minus, mirrored). Every
    method broadcasts its points against k, so one call serves points from
    mixed gaps. Treat as immutable after construction.

    The breakpoint images h_k(ell_k s) at s = 3/8, 1/2, 5/8, 1 are stored,
    a row per gap (h_k(0) is 0.0 for every gap); the breakpoints themselves
    are ell_k * _BREAKS, the same bits recomputed where they are read.
    """

    def __init__(self, seqs, profiles: ProfileSet, swap_gamma: bool = False):
        self.M = seqs.M
        ks = np.arange(-self.M, self.M)
        self.ell, self.ell_next = seqs.ell_arr[1:-2], seqs.ell_arr[2:-1]
        self.K, self.alpha = seqs.K_arr[1:-1], seqs.alpha_arr[:-1]
        self.plus = (ks >= 1) != swap_gamma
        self.eta, self.gamma_plus = profiles.eta, profiles.gamma_plus
        self._check_monotone()
        self._bp_v = np.empty((len(ks), 4))
        for lo in range(0, len(ks), _BP_BLOCK):
            rows = slice(lo, lo + _BP_BLOCK)
            self._bp_v[rows] = self.value(self.ell[rows, None] * _BREAKS[1:],
                                          ks[rows, None])

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
        low = np.empty(len(self.K))
        for lo in range(0, len(low), _BP_BLOCK):
            rows = slice(lo, lo + _BP_BLOCK)
            low[rows] = np.min(1.0 + self.K[rows, None] * eta_v
                               + self.alpha[rows, None] * gamma_v, axis=1)
        j = int(np.argmin(low))
        if not low[j] > 0.0:
            raise ConstructionError(
                f"h_{j - self.M} is not monotone: minimum slope {low[j]:.6g}")
        return low

    def _cols(self, k):
        """ell_k, K_k, alpha_k and whether gap k reads gamma_minus: Python
        scalars for an int k, gathered arrays otherwise."""
        j = k + self.M
        if isinstance(k, int):
            return (self.ell.item(j), self.K.item(j), self.alpha.item(j),
                    not self.plus.item(j))
        return self.ell[j], self.K[j], self.alpha[j], ~self.plus[j]

    def _h(self, u, cols, orders, side=None):
        """h_k or h_k' at u for each profile order of orders ("antiderivative"
        or 0), from one read per profile, with the gap columns cols of _cols;
        gamma_minus is gamma_plus reflected. The reader is picked once: a
        Python float u in one gap is read by _read, anything else by
        _read_array."""
        ell, K, alpha, minus = cols
        if isinstance(u, float) and isinstance(minus, bool):
            read = _read
        else:
            read, u = _read_array, np.asarray(u, dtype=float)
        s = u / ell
        es = read(self.eta, s, orders)
        gs = read(self.gamma_plus, s, orders, side, minus)
        return [u + K * ell * e + alpha * ell * g if o == _ANTI else
                1.0 + K * e + alpha * g for o, e, g in zip(orders, es, gs)]

    def value(self, u, k):
        return self._h(u, self._cols(k), (_ANTI,))[0]

    def deriv(self, u, k, side=None):
        _check_side(side)
        return self._h(u, self._cols(k), (0,), side)[0]

    def invert(self, v, k):
        """u with h_k(u) = v, for v in [0, ell_{k+1}].

        Exact closed form on the two linear middle pieces, safeguarded
        Newton elsewhere, to |h(u) - v| <= 1e-14 ell_{k+1}. NaN gives NaN;
        a Python float v with an int k is inverted on Python floats.
        """
        if isinstance(v, float) and isinstance(k, int):
            return self._invert_one(v, k)
        v, j = np.asarray(v, dtype=float), np.asarray(k) + self.M
        if v.shape != j.shape:
            v, j = np.broadcast_arrays(v, j)
        shape = v.shape
        v, j = v.ravel(), j.ravel()
        # the breakpoint images each test reads, one column at a time
        v1, v3, v4 = (self._bp_v[j, c] for c in (0, 2, 3))
        tol = _INVERT_REL_TOL * self.ell_next[j]
        # pass a few ulp at circle scale too: a gap's image piece in the
        # global table can be that much wider than h_k(ell_k), so g^{-1} at a
        # gap's right end lands just outside
        slack = tol + 8.0 * _EPS
        far = (v < -slack) | (v > v4 + slack)
        if far.any():
            raise ValueError(f"inverse argument outside "
                             f"[0, ell_{int(j[far][0]) - self.M + 1}]")
        v = np.clip(v, 0.0, v4)
        lin = (v >= v1) & (v <= v3)
        left = v < v1
        sh = (left | (v > v3)).nonzero()[0]
        del v1, v3, v4, slack, far   # the passes below hold only what they read
        out = np.full_like(v, np.nan)
        if lin.any():
            # slope 1+K, and 1+K+alpha on the jump side (right of the
            # midpoint for gamma_plus, left for gamma_minus)
            vl, jl = v[lin], j[lin]
            K, alpha = self.K[jl], self.alpha[jl]
            right = vl > self._bp_v[jl, 1]
            slope = 1.0 + K + np.where(right == self.plus[jl], alpha, 0.0)
            intercept = np.where(slope == 1.0 + K, 0.0, -alpha * self.ell[jl] / 2.0)
            out[lin] = (vl - intercept) / slope
            del vl, jl, K, alpha, right, slope, intercept   # as above
        if not sh.size:
            return out.reshape(shape)[()]
        # safeguarded Newton on the shoulders, all points in one pass. Each
        # point keeps its own bracket, the two breakpoints ending its
        # shoulder, and leaves the pass once converged, so its result does
        # not depend on which other points share the call. The gap columns
        # are gathered once and compacted with the points, one array at a time
        v, j, left, tol = v[sh], j[sh], left[sh], tol[sh]
        a = np.where(left, 0, 3)   # the shoulder is breakpoints a, a + 1
        ell = self.ell[j]
        lo, hi = ell * _BREAKS[a], ell * _BREAKS[a + 1]
        lo_v = np.where(left, 0.0, self._bp_v[j, 2])   # h_k(0) is 0.0
        u = lo + (hi - lo) * (v - lo_v) / (self._bp_v[j, a] - lo_v)   # the secant
        del a, left, lo_v   # as above
        idx, cols = np.arange(len(v)), [ell, self.K[j], self.alpha[j], ~self.plus[j]]
        res = np.empty_like(v)
        for _ in range(_INVERT_MAX_ITER):
            f, d = self._h(u, cols, (_ANTI, 0))
            f -= v
            done = np.abs(f) <= tol
            res[idx[done]] = u[done]
            if done.all():
                out[sh] = res
                return out.reshape(shape)[()]
            above = f > 0.0
            np.copyto(hi, u, where=above)
            np.copyto(lo, u, where=~above)
            f /= d
            np.subtract(u, f, out=u)
            np.copyto(u, 0.5 * (lo + hi), where=(u <= lo) | (u >= hi))
            if done.any():
                keep = ~done
                del f, d, above   # each old array goes as its new one is made
                idx = idx[keep]
                u = u[keep]
                v = v[keep]
                tol = tol[keep]
                lo = lo[keep]
                hi = hi[keep]
                for i, c in enumerate(cols):
                    cols[i] = c[keep]
        raise ConstructionError(
            f"inversion of h_{int(j[idx[0]]) - self.M} failed to converge: "
            f"{len(idx)} of {len(res)} points after {_INVERT_MAX_ITER} Newton steps")

    def _invert_one(self, v, k):
        """invert at one point on Python floats: the array route's range
        check, clip, closed form and Newton iterates, step for step."""
        j = k + self.M
        v1, v2, v3, v4 = self._bp_v[j].tolist()   # h_k(0) is 0.0, not stored
        tol = _INVERT_REL_TOL * self.ell_next.item(j)
        slack = tol + 8.0 * _EPS
        if v < -slack or v > v4 + slack:
            raise ValueError(f"inverse argument outside [0, ell_{k + 1}]")
        v = 0.0 if v <= 0.0 else v4 if v4 < v else v   # np.clip: -0.0 to 0.0, NaN kept
        ell, K, alpha, minus = cols = self._cols(k)
        if not (v < v1 or v > v3):   # the linear pieces, or NaN
            slope = 1.0 + K + (alpha if (v > v2) != minus else 0.0)
            return (v - (0.0 if slope == 1.0 + K else -alpha * ell / 2.0)) / slope
        # the shoulder's bracket, breakpoints 0, 1 or 3, 4, and their images
        a, b, lo_v, hi_v = (0, 1, 0.0, v1) if v < v1 else (3, 4, v3, v4)
        lo, hi = ell * _BREAKS.item(a), ell * _BREAKS.item(b)
        u = lo + (hi - lo) * (v - lo_v) / (hi_v - lo_v)
        for _ in range(_INVERT_MAX_ITER):
            f, d = self._h(u, cols, (_ANTI, 0))
            f = f - v
            if abs(f) <= tol:
                return u
            lo, hi = (lo, u) if f > 0.0 else (u, hi)
            un = u - f / d
            u = 0.5 * (lo + hi) if un <= lo or un >= hi else un
        raise ConstructionError(f"inversion of h_{k} failed to converge after "
                                f"{_INVERT_MAX_ITER} Newton steps")


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

        t_star = float(frac(tb.t_of(-M) - omega))   # preimage of the -M atom
        t_prime = float(frac(tb.t_of(M) + omega))   # image of the M atom
        t_gap_hi = float(tb.t_of(M))
        t_gap_lo = float(tb.t_of(-M))

        cross1 = abs(float(circle_delta(t_star, t_gap_hi)))
        cross2 = abs(float(circle_delta(t_gap_lo, t_prime)))
        w_A = 0.3 * min(self._atom_free_dist(t_star), self._atom_free_dist(t_gap_lo),
                        cross1, cross2)
        w_B = 0.3 * min(self._atom_free_dist(t_prime), self._atom_free_dist(t_gap_hi),
                        cross1, cross2)
        if not (w_A > 0.0 and w_B > 0.0):
            raise ConstructionError("degenerate patch width at the truncation boundary")
        self.patch_widths = (w_A, w_B)

        # anchors, one column each: x_lo, x_hi, y_lo, y_width, k; the gaps in
        # the layout's circular order, patch B widening I_M in its slot (the
        # image row there reads I_M, clipped, as I_{M+1} is not stored) and
        # patch A inserted where its x_lo falls
        a_k = tb.sorted_to_k.copy()
        j = a_k + M
        a_x_lo = tb.lam[j]
        a_x_hi = a_x_lo + tb.ell[j]
        a_y_lo, a_y_w = (np.take(c, j + 1, mode="clip") for c in (tb.lam, tb.ell))
        b = int(np.argmax(a_k == M))
        a_x_lo[b] -= res * w_B
        a_x_hi[b] += res * w_B
        a_y_lo[b], a_y_w[b], a_k[b] = psi(t_prime - w_B), 2.0 * res * w_B, _NOT_GAP
        x_A = psi(t_star - w_A)
        a = int(np.searchsorted(a_x_lo, x_A))
        a_x_lo, a_x_hi, a_y_lo, a_y_w, a_k = (np.insert(c, a, v) for c, v in (
            (a_x_lo, x_A), (a_x_hi, psi(t_star + w_A)),
            (a_y_lo, float(tb.lam_of(-M)) - res * w_A),
            (a_y_w, float(tb.ell_of(-M)) + 2.0 * res * w_A), (a_k, _NOT_GAP)))

        # fill the stretches between consecutive anchors with affine transport
        t_x_hi = np.roll(a_x_lo, -1)
        t_x_hi[-1] += 1.0
        if np.any(t_x_hi < a_x_hi - 1e-12):
            raise ConstructionError("anchor pieces overlap")
        t_y_lo = frac(a_y_lo + a_y_w)
        keep = t_x_hi - a_x_hi > 0.0
        # a transport piece empty in x is dropped: its image must be empty too
        lost = np.abs(circle_delta(np.roll(a_y_lo, -1), t_y_lo)[~keep])
        if np.any(lost > 1e-10):
            raise ConstructionError(f"piece images do not tile the circle: a "
                                    f"transport piece empty in x has image width "
                                    f"{np.max(lost):.3e}")

        # each anchor followed by its transport piece, where that is nonempty
        real = np.column_stack([np.ones_like(keep), keep]).ravel()

        def pieces(anchor, transport):
            return np.column_stack([anchor, transport]).ravel()[real]

        x_lo = pieces(a_x_lo, a_x_hi)
        if x_lo[0] != 0.0:
            raise ConstructionError("piece table must start at x = 0")
        gap_k = pieces(a_k, np.full_like(a_k, _NOT_GAP))
        # every image start is the layout's position on the circle; the lift
        # adds 1 after the one descent and closes at y_lo[0] + 1
        starts = pieces(a_y_lo, t_y_lo)
        turn = np.flatnonzero(np.diff(starts, append=starts[0]) < 0.0)
        if len(turn) != 1:
            raise ConstructionError(f"piece images wind {len(turn)} times round "
                                    f"the circle, not once")
        y_lo = np.append(starts, starts[0] + 1.0)
        y_lo[turn[0] + 1:-1] += 1.0
        slope = np.diff(y_lo) / (pieces(a_x_hi, t_x_hi) - x_lo)
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
        """Increasing lift, g~(x+1) = g~(x)+1 exactly, read at frac(x); NaN or inf gives NaN."""
        fr = frac(x)
        n = x - fr
        x_lo, y_lo, slope, gap_k = self._columns
        i = bisect.bisect_right(x_lo, fr) - 1
        k = gap_k[i]
        if k == _NOT_GAP:
            return n + (y_lo[i] + slope[i] * (fr - x_lo[i]))
        return n + (y_lo[i] + self.local.value(fr - x_lo[i], k))

    def inverse_lift(self, y: float) -> float:
        """The inverse of lift; NaN or inf gives NaN."""
        y0 = self.y_start
        try:
            m = math.floor(y - y0)
        except (ValueError, OverflowError):
            return y - y
        yf = y - m
        if yf < y0:   # y - y_start rounded up to the integer m
            m -= 1
            yf = y - m
        x_lo, y_lo, slope, gap_k = self._columns
        # y_lo's last entry closes the last piece: the search stops before it
        i = bisect.bisect_right(y_lo, yf, 0, self.n_pieces) - 1
        k = gap_k[i]
        if k == _NOT_GAP:
            return (x_lo[i] + (yf - y_lo[i]) / slope[i]) + m
        return (x_lo[i] + self.local.invert(yf - y_lo[i], k)) + m

    def lift_many(self, xs) -> np.ndarray:
        """Vectorized lift: affine pieces inline, all gap points in one call."""
        xs = np.asarray(xs, dtype=float)
        fr = frac(xs)
        ns = xs - fr
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
        with np.errstate(invalid="ignore"):   # inf - inf: the scalar inverse's NaN
            ms -= ys - ms < self.y_start   # ys - y_start rounded up to the integer ms
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

    def derivative(self, x, side: str = "right"):
        """g' at circle points, floats or arrays.

        Affine pieces are inline and all gap points go to the family in one
        call. side picks the one-sided limit at a gap midpoint and at a
        piece's left edge, where the left limit is the previous piece's.
        NaN or inf gives NaN.
        """
        _check_side(side)
        fr = frac(np.atleast_1d(x))
        i = np.searchsorted(self._x_lo, fr, side="right") - 1
        u = fr - self._x_lo[i]
        edge = np.zeros(fr.shape, dtype=bool)
        if side == "left":
            edge = fr == self._x_lo[i]
            i = np.where(edge, (i - 1) % self.n_pieces, i)
        out = self._slope[i]
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
            out[gap] = self.local.deriv(ug, k, side=side)
        # searchsorted files NaN after every start, in the last piece
        out[np.isnan(fr)] = np.nan
        if np.ndim(x) == 0:
            return float(out[0])
        return out.reshape(np.shape(x))


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

def rotation_number_estimate(g, x0: float, n: int) -> float:
    """(g~^n(x) - x)/n with exact winding bookkeeping, from the circle point
    x = frac(x0): the lift commutes with integer shifts, while far from
    [0, 1) each step rounds to the start's ulp (1.2e-4 at 1e12)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x = start = frac(float(x0))
    for _ in range(n):
        x = g.lift(x)
    return float((x - start) / n)


def wandering_interval_check(g: CircleHomeo, n_max: int) -> dict:
    """Iterate the endpoints of I_0 forward and backward and compare against
    the stored table."""
    tb = g.table
    if n_max > tb.M:
        raise ValueError("n_max exceeds the stored range")
    dev = {}
    for name, lift, sign in (("forward", g.lift, 1), ("backward", g.inverse_lift, -1)):
        worst = 0.0
        a = float(tb.lam_of(0))
        b = a + float(tb.ell_of(0))
        for n in range(1, n_max + 1):
            a, b = frac(lift(a)), frac(lift(b))
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


def derivative_jump_table(g: CircleHomeo) -> tuple:
    """The arrays (k, left derivative, right derivative, jump) over the gap
    midpoints, k = -M .. M - 1."""
    h = g.local
    ks = np.arange(-g.M, g.M)
    mid = 0.5 * h.ell
    left = h.deriv(mid, ks, side="left")
    right = h.deriv(mid, ks, side="right")
    return ks, left, right, right - left


def derivative_jump_scan(g: CircleHomeo, n_samples: int, seed: int = 0) -> dict:
    """One-sided derivative agreement at the circle points of the seed's
    Kronecker set."""
    xs = points(n_samples, seed)
    jump = np.abs(g.derivative(xs, side="right") - g.derivative(xs, side="left"))
    return {"n_samples": n_samples, "max_offmid_jump": float(np.max(jump, initial=0.0))}

