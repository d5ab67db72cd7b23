"""Smooth plateau profiles used to shape the per-gap circle diffeomorphisms.

Three profiles are built here:

* ``eta``        -- nonnegative bump, support in [1/4, 3/4], identically 1 on
                    [3/8, 5/8], mirror symmetric, unit integral;
* ``gamma_plus`` -- zero on [0, 1/2], identically 1 on (1/2, 5/8], smooth off
                    the jump at 1/2, zero integral (a calibrated negative lobe
                    sits in (11/16, 15/16));
* ``gamma_minus``-- the exact mirror gamma_plus(1 - t).

Plateaus and zero regions are exact by construction (no quadrature error
there), which downstream code relies on for the piecewise-linear identities.
Antiderivatives on the curved shoulder pieces come from a dense precomputed
table with cubic Hermite interpolation (the interpolant's derivative is the
profile itself, sampled exactly).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


class CalibrationError(RuntimeError):
    """The independent quadrature could not confirm a kernel mass to tolerance."""


class OneSidedLimitRequired(ValueError):
    """Derivative queried exactly at the jump point without a side flag.

    The gamma profiles carry genuinely distinct one-sided data at 1/2; the
    caller must pick side="left" or side="right".
    """


# ---------------------------------------------------------------------------
# smooth step and bump kernels
# ---------------------------------------------------------------------------

def _flat_exp(s):
    """exp(-1/s) extended by 0 for s <= 0, the standard flat kernel."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def smooth_step(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, strictly increasing between.

    Built from the flat kernel as psi(s) / (psi(s) + psi(1-s)), hence
    symmetric: smooth_step(s) + smooth_step(1-s) == 1.
    """
    s = np.asarray(s, dtype=float)
    a = _flat_exp(s)
    b = _flat_exp(1.0 - s)
    out = np.zeros_like(s)
    mid = (s > 0) & (s < 1)
    out[mid] = a[mid] / (a[mid] + b[mid])
    out[s >= 1] = 1.0
    if out.ndim == 0:
        return float(out)
    return out


def smooth_step_d1(s):
    """First derivative of smooth_step (0 outside (0, 1))."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 0) & (s < 1)
    sm = s[mid]
    a = np.exp(-1.0 / sm)
    b = np.exp(-1.0 / (1.0 - sm))
    da = a / sm**2
    db = -b / (1.0 - sm) ** 2
    tot = a + b
    out[mid] = (da * tot - a * (da + db)) / tot**2
    if out.ndim == 0:
        return float(out)
    return out


def smooth_step_d2(s):
    """Second derivative of smooth_step."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 0) & (s < 1)
    sm = s[mid]
    a = np.exp(-1.0 / sm)
    b = np.exp(-1.0 / (1.0 - sm))
    da = a / sm**2
    db = -b / (1.0 - sm) ** 2
    d2a = a * (1.0 - 2.0 * sm) / sm**4
    d2b = b * (1.0 - 2.0 * (1.0 - sm)) / (1.0 - sm) ** 4
    tot = a + b
    dtot = da + db
    d2tot = d2a + d2b
    # d2 of a/tot
    out[mid] = (d2a * tot - a * d2tot) / tot**2 - 2.0 * dtot * (da * tot - a * dtot) / tot**3
    if out.ndim == 0:
        return float(out)
    return out


def bump(s):
    """Standard exponential bump exp(-1/(s(1-s))) on (0,1), zero elsewhere."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 0) & (s < 1)
    sm = s[mid]
    out[mid] = np.exp(-1.0 / (sm * (1.0 - sm)))
    if out.ndim == 0:
        return float(out)
    return out


def bump_d1(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 0) & (s < 1)
    sm = s[mid]
    q = sm * (1.0 - sm)
    out[mid] = np.exp(-1.0 / q) * (1.0 - 2.0 * sm) / q**2
    if out.ndim == 0:
        return float(out)
    return out


def bump_d2(s):
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    mid = (s > 0) & (s < 1)
    sm = s[mid]
    q = sm * (1.0 - sm)
    dq = 1.0 - 2.0 * sm
    # b'' = b * (f'^2 + f'') with f = -1/q, f' = dq/q^2, f'' = -2/q^2 - 2 dq^2/q^3
    out[mid] = np.exp(-1.0 / q) * ((dq / q**2) ** 2 - 2.0 / q**2 - 2.0 * dq**2 / q**3)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# antiderivative tables for the two kernels on [0, 1]
# ---------------------------------------------------------------------------

_TABLE_PANELS = 4096   # a power of two: _HermiteTable needs exact nodes i/n
_GL_ORDER = 12


class _HermiteTable:
    """Piecewise cubic Hermite interpolant through (x, y) with slopes d, on
    the nodes x_i = i/n of [0, 1] for a power of two n.

    Coefficients, interval rule (each interval closed on the left, the last
    one closed on both sides, the end cubics extended outside [0, 1]) and
    the order of the power sum are those of the standard piecewise-power
    (PPoly) form of a cubic Hermite spline, so the values match that form
    bit for bit.
    """

    def __init__(self, x, y, d):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (d[:-1] + d[1:] - 2.0 * slope) / dx
        self.n = len(x) - 1
        # node and coefficients of each interval as columns, one take per call
        self._rows = np.array([x[:-1], t / dx, (slope - d[:-1]) / dx - t, d[:-1], y[:-1]])

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        if v.size == 0:
            # most calls carry an empty branch mask: skip their ~10 array ops
            return v.copy()
        # the nodes are exactly i/n and n v is exact, so floor(n v), clipped,
        # is the interval a search of the nodes would find; fmin/fmax send
        # NaN to a valid interval, where it stays NaN through the power sum
        i = np.fmax(np.fmin(np.floor(self.n * v), self.n - 1), 0).astype(np.intp)
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


def _cumulative_table(f, df, n_panels=_TABLE_PANELS):
    """High-accuracy antiderivative of f on [0,1] as a cubic Hermite table.

    Per-panel Gauss-Legendre integration (order 12 on panels of width
    1/n_panels puts the truncation error far below 1e-30 for these kernels),
    followed by a compensated cumulative sum so node values carry no
    accumulation error. Hermite slopes are exact samples of f.
    """
    panel = _panel_integrals(f, _GL_ORDER, n_panels)
    # Neumaier compensated running sum: keeps node values within one ulp.
    cum = np.empty(n_panels + 1)
    cum[0] = 0.0
    s = 0.0
    comp = 0.0
    for i, term in enumerate(panel):
        t = s + term
        if abs(s) >= abs(term):
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        cum[i + 1] = s + comp
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    return _HermiteTable(edges, cum, df(edges)), float(cum[-1])


_CHECK_ORDER = 20
_CHECK_PANELS = 64


def _check_mass(f):
    """Mass of f on [0, 1] and an error estimate, by a rule independent of
    the table's: composite 20-point Gauss-Legendre on 64 and on 128 panels.

    The estimate is the difference of the two plus a roundoff floor of
    50 eps |mass|, the floor adaptive quadrature (QUADPACK) puts on its own.
    """
    coarse = float(np.sum(_panel_integrals(f, _CHECK_ORDER, _CHECK_PANELS)))
    fine = float(np.sum(_panel_integrals(f, _CHECK_ORDER, 2 * _CHECK_PANELS)))
    return fine, abs(fine - coarse) + 50.0 * 2.0**-52 * abs(fine)


# ---------------------------------------------------------------------------
# the calibrated profile objects
# ---------------------------------------------------------------------------

_ORDERS = (0, 1, 2, "antiderivative")


@dataclass(frozen=True)
class PlateauProfile:
    """One calibrated profile with exact plateau/zero regions.

    Immutable after calibration; safe to share across threads for read-only
    evaluation.
    """

    kind: str                      # "eta" | "gamma_plus" | "gamma_minus"
    shoulder_coefficient: float    # calibration constant for the bump lobe(s)
    plateau_bounds: tuple          # region where the profile is exactly 1
    support_bounds: tuple          # profile vanishes outside this region
    _tables: dict = field(repr=False, default=None)

    def __call__(self, t, order=0, side=None):
        return profile_eval(self, t, order, side=side)


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

    step_table, step_mass = _cumulative_table(smooth_step, smooth_step)
    bump_table, bump_mass = _cumulative_table(bump, bump)

    # Independent check of the two kernel masses.
    q_step, err_step = _check_mass(smooth_step)
    q_bump, err_bump = _check_mass(bump)
    achieved = max(abs(q_step - step_mass), abs(q_bump - bump_mass),
                   err_step, err_bump)
    if achieved > quadrature_tolerance:
        raise CalibrationError(
            f"kernel mass check failed: achieved error {achieved:.3e} "
            f"> tolerance {quadrature_tolerance:.3e}")

    # eta: plateau (length 1/4) + two smooth_step edges (mass step_mass/8 each)
    # leave a deficit against the unit integral; two mirrored bumps on the
    # shoulders supply it.
    eta_coeff = (1.0 - 0.25 - 2.0 * step_mass / 8.0) / (2.0 * bump_mass / 8.0)
    # gamma_plus: positive mass = plateau (1/2,5/8] plus the descent edge;
    # one negative lobe of the same mass sits in (11/16, 15/16).
    gp_pos_mass = 1.0 / 8.0 + step_mass / 16.0
    gp_coeff = gp_pos_mass / (bump_mass / 4.0)

    tables = {
        "step": step_table, "bump": bump_table,
        "step_mass": step_mass, "bump_mass": bump_mass,
    }
    eta = PlateauProfile("eta", eta_coeff, (0.375, 0.625), (0.25, 0.75), tables)
    gp = PlateauProfile("gamma_plus", gp_coeff, (0.5, 0.625), (0.5, 0.9375), tables)
    gm = PlateauProfile("gamma_minus", gp_coeff, (0.375, 0.5), (0.0625, 0.5), tables)
    return ProfileSet(eta, gp, gm, step_mass, bump_mass, achieved)


# --- branch evaluators ------------------------------------------------------

def _eta_half_eval(p, u, order):
    """eta on the left half u in [0, 1/2]; mirror handled by the caller."""
    tb = p._tables
    c = p.shoulder_coefficient
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    rise = (u > 0.25) & (u < 0.375)
    plat = u >= 0.375
    s = 8.0 * (u[rise] - 0.25)
    if order == 0:
        out[rise] = smooth_step(s) + c * bump(s)
        out[plat] = 1.0
    elif order == 1:
        out[rise] = 8.0 * (smooth_step_d1(s) + c * bump_d1(s))
    elif order == 2:
        out[rise] = 64.0 * (smooth_step_d2(s) + c * bump_d2(s))
    else:  # antiderivative from 0
        shoulder_mass = (tb["step_mass"] + c * tb["bump_mass"]) / 8.0
        out[rise] = (tb["step"](s) + c * tb["bump"](s)) / 8.0
        out[plat] = shoulder_mass + (u[plat] - 0.375)
    return out


def _eta_eval(p, t, order, side):
    t = np.asarray(t, dtype=float)
    left = t <= 0.5
    u = np.where(left, t, 1.0 - t)
    vals = _eta_half_eval(p, u, order)
    if order == 1:
        vals = np.where(left, vals, -vals)
    elif order == "antiderivative":
        total = 2.0 * (p._tables["step_mass"] + p.shoulder_coefficient
                       * p._tables["bump_mass"]) / 8.0 + 0.25
        vals = np.where(left, vals, total - vals)
    return vals


def _gamma_plus_eval(p, t, order, side):
    tb = p._tables
    c = p.shoulder_coefficient
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    at_jump = t == 0.5
    if order in (1, 2) and side is None and bool(np.any(at_jump)):
        raise OneSidedLimitRequired(
            "gamma derivative at t = 1/2 is one-sided only; pass side=")
    plat = (t > 0.5) & (t <= 0.625)
    desc = (t > 0.625) & (t < 0.6875)
    lobe = (t > 0.6875) & (t < 0.9375)
    s_desc = 16.0 * (0.6875 - t[desc])
    s_lobe = 4.0 * (t[lobe] - 0.6875)
    if order == 0:
        out[plat] = 1.0
        out[desc] = smooth_step(s_desc)
        out[lobe] = -c * bump(s_lobe)
        # value at the jump: 0 by convention (the left branch), 1 if the
        # caller explicitly asks for the right limit
        if side == "right":
            out[at_jump] = 1.0
    elif order == 1:
        out[desc] = -16.0 * smooth_step_d1(s_desc)
        out[lobe] = -4.0 * c * bump_d1(s_lobe)
        # one-sided derivative limits at the jump are both 0 (flat regions)
    elif order == 2:
        out[desc] = 256.0 * smooth_step_d2(s_desc)
        out[lobe] = -16.0 * c * bump_d2(s_lobe)
    else:  # antiderivative
        plat_a = (t > 0.5) & (t <= 0.625)
        out[plat_a] = t[plat_a] - 0.5
        out[desc] = 0.125 + (tb["step_mass"] - tb["step"](s_desc)) / 16.0
        g1116 = 0.125 + tb["step_mass"] / 16.0
        out[lobe] = g1116 - (c / 4.0) * tb["bump"](s_lobe)
        # beyond the lobe the integral has returned to zero by calibration
    return out


def _gamma_minus_eval(p, t, order, side):
    t = np.asarray(t, dtype=float)
    mirrored = 1.0 - t
    flip = {"left": "right", "right": "left", None: None}[side]
    vals = _gamma_plus_eval(p, mirrored, order, flip)
    if order == 1:
        vals = -vals
    elif order == "antiderivative":
        vals = -vals
    return vals


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
    scalar = np.ndim(t) == 0
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if p.kind == "eta":
        vals = _eta_eval(p, t_arr, order, side)
    elif p.kind == "gamma_plus":
        vals = _gamma_plus_eval(p, t_arr, order, side)
    elif p.kind == "gamma_minus":
        vals = _gamma_minus_eval(p, t_arr, order, side)
    else:
        raise ValueError(f"unknown profile kind {p.kind!r}")
    if scalar:
        return float(vals[0])
    return vals.reshape(np.shape(t))


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
