"""Smooth plateau profiles used to shape the per-gap circle diffeomorphisms:
``eta``, a nonnegative mirror-symmetric bump of unit integral; ``gamma_plus``,
of zero integral, with a jump at 1/2 and a calibrated negative lobe further
out; and ``gamma_minus``, the exact mirror gamma_plus(1 - t).

Each is a table of pieces on x = t (gamma_minus reads gamma_plus's table at
x = 1 - t), a piece 0 or gain * sum(coeff * f(s)) at s = scale * (u - shift),
u = x or, on a mirrored piece, 1 - x, for kernels f among S = smooth_step,
B = bump and 1. With TS, TB the antiderivatives of S, B from 0 and Ms, Mb
their masses, value | antiderivative by region:

* eta, u = t up to 1/2, mirrored above: 0 | 0 up to 1/4; S(s) + c B(s) |
  (TS(s) + c TB(s)) / 8 at s = 8 (u - 1/4) below 3/8; 1 | (Ms + c Mb) / 8
  + (u - 3/8) from 3/8 on;
* gamma_plus: 0 | 0 up to 1/2; 1 | x - 1/2 up to 5/8; S(s) | 1/8 +
  (Ms - TS(s)) / 16 at s = 16 (11/16 - x) below 11/16; 0 | 0 at 11/16, a
  one-point dip of the antiderivative that profiles.csv records; -c B(s) |
  1/8 + Ms/16 - (c/4) TB(s) at s = 4 (x - 11/16) below 15/16; then 0 | 0.

The n-th derivative carries the chain factor gain * scale^n. A mirrored point
negates the first derivative, and its antiderivative is F(1) - F(1 - t), with
F(1) = 2 (Ms + c Mb) / 8 + 1/4 for eta and -0.0 for the gamma pair. At t = 1/2
the gamma profiles take the piece on the side asked for. NaN gives NaN.
Plateaus and zero regions are exact by construction, which downstream code
relies on for the piecewise-linear identities; TS and TB are dense cubic
Hermite tables whose slopes are S and B sampled exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np


class CalibrationError(RuntimeError):
    """The independent quadrature could not confirm a kernel mass to tolerance."""


class OneSidedLimitRequired(ValueError):
    """Derivative queried exactly at the jump point without a side flag: the
    gamma profiles carry distinct one-sided data at 1/2, so the caller must
    pick side="left" or side="right"."""


# --- smooth step and bump kernels -------------------------------------------

def _step(s, order):
    """smooth_step on 0 < s < 1 and its first two derivatives, all from the
    one pair of exps psi(s), psi(1-s) with psi(s) = exp(-1/s)."""
    r = 1.0 - s
    a, b = np.exp(-1.0 / s), np.exp(-1.0 / r)
    tot = a + b
    if order == 0:
        return a / tot
    da, db = a / s**2, -b / r**2
    dtot = da + db
    if order == 1:
        return (da * tot - a * dtot) / tot**2
    d2a, d2b = a * (1.0 - 2.0 * s) / s**4, b * (1.0 - 2.0 * r) / r**4
    return ((d2a * tot - a * (d2a + d2b)) / tot**2
            - 2.0 * dtot * (da * tot - a * dtot) / tot**3)


def _bump(s, order):
    """bump on 0 < s < 1 and its first two derivatives, all from the one exp:
    b' = b f', b'' = b (f'^2 + f'') with f = -1/q, q = s(1-s)."""
    q = s * (1.0 - s)
    e = np.exp(-1.0 / q)
    if order == 0:
        return e
    dq = 1.0 - 2.0 * s
    if order == 1:
        return e * dq / q**2
    return e * ((dq / q**2) ** 2 - 2.0 / q**2 - 2.0 * dq**2 / q**3)


def _extend(kernel, s, order, above):
    """kernel(s, order) on 0 < s < 1, extended by 0 below and by above above."""
    s = np.asarray(s, dtype=float)
    out = np.where(s >= 1, above, 0.0)
    mid = (s > 0) & (s < 1)
    out[mid] = kernel(s[mid], order)
    return float(out) if out.ndim == 0 else out


def smooth_step(s, order=0):
    """C-infinity step psi(s) / (psi(s) + psi(1-s)) (order 0), or its first
    or second derivative: 0 for s <= 0, 1 for s >= 1, strictly increasing
    between, and symmetric: smooth_step(s) + smooth_step(1-s) == 1."""
    return _extend(_step, s, order, 0.0 if order else 1.0)


def bump(s, order=0):
    """Standard exponential bump exp(-1/(s(1-s))) on (0,1), zero elsewhere
    (order 0), or its first or second derivative."""
    return _extend(_bump, s, order, 0.0)


# --- antiderivative tables for the two kernels on [0, 1] --------------------

_TABLE_PANELS = 4096   # a power of two: _HermiteTable needs exact nodes i/n
_GL_ORDER = 12


class _HermiteTable:
    """Piecewise cubic Hermite interpolant through (x, y) with slopes d, on
    the nodes x_i = i/n of [0, 1] for a power of two n. Coefficients,
    interval rule (closed on the left, the last on both sides, the end cubics
    extended outside [0, 1]) and power-sum order are those of the standard
    piecewise-power (PPoly) form, so the values match that form bit for bit."""

    def __init__(self, x, y, d):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (d[:-1] + d[1:] - 2.0 * slope) / dx
        self.n = len(x) - 1
        # node and coefficients of each interval as columns, one take per call
        self._rows = np.array([x[:-1], t / dx, (slope - d[:-1]) / dx - t, d[:-1], y[:-1]])

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        # the nodes are exactly i/n and n v is exact, so n v clipped to
        # [0, n - 1] and truncated is the interval a search of the nodes would
        # find; fmin/fmax send NaN to a valid interval, where it stays NaN
        # through the power sum
        i = np.fmax(np.fmin(self.n * v, self.n - 1), 0).astype(np.intp)
        x0, c0, c1, c2, c3 = np.take(self._rows, i, axis=1)
        s = v - x0
        ss = s * s
        return ((c3 + c2 * s) + c1 * ss) + c0 * (ss * s)


def _panel_integrals(f, order, n_panels):
    """Gauss-Legendre rule of the given order for f on each of n_panels
    equal panels of [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    h = np.diff(edges)[:, None]
    pts = edges[:-1, None] + 0.5 * h * (nodes + 1.0)
    return 0.5 * h[:, 0] * (f(pts) @ weights)


def _cumulative_table(f, n_panels=_TABLE_PANELS):
    """High-accuracy antiderivative of f on [0,1] as a cubic Hermite table,
    and the mass of f: per-panel Gauss-Legendre integration (order 12 on
    panels of width 1/n_panels puts the truncation error far below 1e-30 for
    these kernels), then a compensated cumulative sum so node values carry
    no accumulation error. Hermite slopes are exact samples of f."""
    panel = _panel_integrals(f, _GL_ORDER, n_panels)
    # Neumaier compensated running sum: keeps node values within one ulp.
    cum = np.zeros(n_panels + 1)
    s = comp = 0.0
    for i, term in enumerate(panel):
        t = s + term
        comp += (s - t) + term if abs(s) >= abs(term) else (term - t) + s
        s = t
        cum[i + 1] = s + comp
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    return _HermiteTable(edges, cum, f(edges)), float(cum[-1])


def _check_mass(f):
    """Mass of f on [0, 1] and an error estimate, by a rule independent of
    the table's: composite 20-point Gauss-Legendre on 64 and on 128 panels.
    The estimate is the difference of the two plus a roundoff floor of
    50 eps |mass|, the floor adaptive quadrature (QUADPACK) puts on its own."""
    coarse = float(np.sum(_panel_integrals(f, 20, 64)))
    fine = float(np.sum(_panel_integrals(f, 20, 128)))
    return fine, abs(fine - coarse) + 50.0 * 2.0**-52 * abs(fine)


# --- the piece tables -------------------------------------------------------

_ANTI = "antiderivative"
_ORDERS = (0, 1, 2, _ANTI)
# the plateaus' kernel, the constant 1: its derivatives and antiderivative
_ONE = (lambda s, order: 0.0 if order else 1.0, lambda s: s)


@dataclass(frozen=True)
class _Piece:
    """A table row for x from lo up to the next row's lo, as the module
    docstring has it; antiderivative offset + gain / scale * (sum(coeff *
    F(s)) - base). A factor 1 and a zero offset or base are skipped: the same
    floats, signed zeros included, in fewer array passes."""

    lo: float
    mirror: bool = False
    scale: float = 1.0
    shift: float = 0.0
    terms: tuple = ()       # ((f, F), coeff): f(s, order) and F from 0
    gain: float = 1.0
    offset: float = 0.0
    base: float = 0.0

    def eval(self, x, order):
        if not self.terms:
            return 0.0
        s = self.scale * ((1.0 - x if self.mirror else x) - self.shift)
        w = None
        for (f, F), coeff in self.terms:
            v = F(s) if order == _ANTI else f(s, order)
            v = v if coeff == 1.0 else coeff * v
            w = v if w is None else w + v
        anti = order == _ANTI
        k = self.gain / self.scale if anti else self.gain * self.scale**order
        w = w - self.base if anti and self.base else w
        w = w if k == 1.0 else k * w
        return self.offset + w if anti and self.offset else w


@dataclass(frozen=True)
class PlateauProfile:
    """One calibrated profile with exact plateau/zero regions: a piece table
    read at x = t, or at x = 1 - t if reflect is set. Frozen after
    calibration, so safe to share across threads."""

    kind: str                      # "eta" | "gamma_plus" | "gamma_minus"
    shoulder_coefficient: float    # calibration constant for the bump lobe(s)
    pieces: tuple = field(repr=False)
    reflect: bool = False
    anti_one: float = -0.0         # the antiderivative at t = 1
    jump: float = np.nan           # the x where side= picks the row
    starts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "starts", np.array([[pc.lo] for pc in self.pieces]))


@dataclass(frozen=True)
class ProfileSet:
    """The three calibrated profiles plus shared kernel constants."""

    eta: PlateauProfile
    gamma_plus: PlateauProfile
    gamma_minus: PlateauProfile
    step_mass: float        # integral of smooth_step over [0, 1]
    bump_mass: float        # integral of bump over [0, 1]
    achieved_error: float   # worst disagreement with the independent mass check


def calibrate_profiles(quadrature_tolerance: float = 1e-13) -> ProfileSet:
    """Build the three profiles, fixing shoulder coefficients by quadrature.

    Deterministic: the same tolerance always yields bit-identical profiles.
    Raises CalibrationError if the independent mass check cannot confirm
    the tabulated kernel masses to the requested tolerance.
    """
    if not quadrature_tolerance > 0:
        raise ValueError("quadrature tolerance must be positive")

    step_table, step_mass = _cumulative_table(smooth_step)
    bump_table, bump_mass = _cumulative_table(bump)

    # Independent check of the two kernel masses.
    q_step, err_step = _check_mass(smooth_step)
    q_bump, err_bump = _check_mass(bump)
    achieved = max(abs(q_step - step_mass), abs(q_bump - bump_mass),
                   err_step, err_bump)
    if achieved > quadrature_tolerance:
        raise CalibrationError(
            f"kernel mass check failed: achieved error {achieved:.3e} "
            f"> tolerance {quadrature_tolerance:.3e}")

    step, bmp = (_step, step_table), (_bump, bump_table)
    above = np.nextafter   # above(x, 1): the start of a row open at x
    # eta: plateau (length 1/4) + two smooth_step edges (mass step_mass/8 each)
    # leave a deficit against the unit integral; two mirrored bumps supply it.
    c = (1.0 - 0.25 - 2.0 * step_mass / 8.0) / (2.0 * bump_mass / 8.0)
    rise = _Piece(above(0.25, 1), False, 8.0, 0.25, ((step, 1.0), (bmp, c)))
    plateau = _Piece(0.375, False, 1.0, 0.375, ((_ONE, 1.0),),
                     offset=(step_mass + c * bump_mass) / 8.0)
    eta = PlateauProfile("eta", c, (
        _Piece(-np.inf), rise, plateau,
        replace(plateau, lo=above(0.5, 1), mirror=True),
        replace(rise, lo=above(0.625, 1), mirror=True),
        _Piece(0.75, True),
    ), anti_one=2.0 * (step_mass + c * bump_mass) / 8.0 + 0.25)
    # gamma_plus: positive mass = plateau (1/2,5/8] plus the descent edge;
    # one negative lobe of the same mass sits in (11/16, 15/16).
    c = (1.0 / 8.0 + step_mass / 16.0) / (bump_mass / 4.0)
    gp = PlateauProfile("gamma_plus", c, (
        _Piece(-np.inf),
        _Piece(above(0.5, 1), False, 1.0, 0.5, ((_ONE, 1.0),)),
        _Piece(above(0.625, 1), False, -16.0, 0.6875, ((step, 1.0),),
               offset=0.125, base=step_mass),
        _Piece(0.6875),
        _Piece(above(0.6875, 1), False, 4.0, 0.6875, ((bmp, 1.0),), gain=-c,
               offset=0.125 + step_mass / 16.0),
        _Piece(0.9375),
    ), jump=0.5)
    gm = replace(gp, kind="gamma_minus", reflect=True)
    return ProfileSet(eta, gp, gm, step_mass, bump_mass, achieved)


def profile_eval(p: PlateauProfile, t, order=0, side=None):
    """Evaluate a profile, a derivative, or its antiderivative from 0.

    order is one of 0, 1, 2 or "antiderivative". For the gamma profiles the
    point t = 1/2 carries one-sided data only; pass side="left"/"right" to
    pick a branch of the value there (derivative limits agree and are 0).
    """
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}")
    if side not in (None, "left", "right"):
        raise ValueError("side must be None, 'left' or 'right'")
    t = np.asarray(t, dtype=float)
    x = (1.0 - t if p.reflect else t).ravel()
    at_jump = x == p.jump
    if side is None and order in (1, 2) and at_jump.any():
        raise OneSidedLimitRequired("gamma derivative at t = 1/2 is one-sided; pass side=")
    # x is in row n_at - 1, n_at the count of starts at or below x: for so
    # few starts many times faster than np.searchsorted. A NaN is at or
    # above none and stays NaN in slot 0.
    n_at = np.add.reduce(p.starts <= x, axis=0, dtype=np.uint8)
    if side is not None and (side == "right") != p.reflect:
        n_at += at_jump   # the jump closes the row on its left
    out = np.zeros(x.shape)
    first, last = int(n_at.min(initial=255)), int(n_at.max(initial=0))
    for k in range(first, last + 1):
        pc = p.pieces[k - 1] if k else None
        flip = pc is not None and pc.mirror != p.reflect
        # a zero row leaves out at +0.0 unless its mirror image changes it
        if pc is None or pc.terms or (flip and order in (1, _ANTI)):
            ii = slice(None) if first == last else np.flatnonzero(n_at == k)
            v = np.nan if pc is None else pc.eval(x[ii], order)
            if flip:
                # the mirror image negates the slope and integrates from 1
                v = -v if order == 1 else p.anti_one - v if order == _ANTI else v
            out[ii] = v
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def export_profile_csv(profiles: ProfileSet, path, n: int = 2001) -> None:
    """Dump (t, value, d1, d2, antiderivative) per profile for plotting/audit.

    Derivative columns use the right-limit convention where the grid hits
    the jump point exactly.
    """
    ts = np.linspace(0.0, 1.0, n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["profile", "t", "value", "d1", "d2", "antiderivative"])
        for p in (profiles.eta, profiles.gamma_plus, profiles.gamma_minus):
            cols = [profile_eval(p, ts, order, side="right") for order in (0, 1, 2)]
            cols.append(profile_eval(p, ts, "antiderivative"))
            # csv writes Python floats by repr, which round-trips
            w.writerows([p.kind, *row] for row in
                        zip(ts.tolist(), *(c.tolist() for c in cols)))
