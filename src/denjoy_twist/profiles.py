"""Smooth plateau profiles used to shape the per-gap circle diffeomorphisms:
``eta``, a nonnegative mirror-symmetric bump of unit integral; ``gamma_plus``,
of zero integral, with a jump at 1/2 and a calibrated negative lobe further
out; and ``gamma_minus``, the exact mirror gamma_plus(1 - t), which is
gamma_plus read with reflect set.

Each is a table of rows on x = t (x = 1 - t where the read is reflected),
a row 0 or gain * sum(coeff * f(s)) at s = scale * (u - shift),
u = x or, on a mirrored row, 1 - x, for kernels f among S = smooth_step,
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
the gamma profiles take the row on the side asked for. NaN gives NaN.
Each row is one record, made once at calibration by _row: its start and
the constants a read needs (the chain factors, base, offset and mirror
flag). One reader, _read, holds a row's arithmetic on them.
A Python float t finds its row by bisect and is read on Python floats but
for numpy's exp and pow and the one coefficient block of the kernel table
it reads, in place: no numpy per-call cost on a one-point array. An array
is grouped by row and each group read by the same function, so both routes
give the same bits.
Plateaus and zero regions are exact by construction, which downstream code
relies on for the piecewise-linear identities; TS and TB are dense cubic
Hermite tables whose slopes are S and B sampled exactly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .reporting import BOUNDS, write_csv


class CalibrationError(RuntimeError):
    """The independent quadrature could not confirm a kernel mass to tolerance."""


class OneSidedLimitRequired(ValueError):
    """Derivative queried exactly at the jump point without a side flag: the
    gamma profiles carry distinct one-sided data at 1/2, so the caller must
    pick side="left" or side="right"."""


_ONE_SIDED = "gamma derivative at t = 1/2 is one-sided; pass side="


# --- smooth step and bump kernels -------------------------------------------

# numpy's exp and pow, a Python float in and out: Python's own exp and **
# differ from numpy's array loops in the last bit, numpy's on a float do not

def _exp(x):
    return float(np.exp(x)) if isinstance(x, float) else np.exp(x)


def _pow(x, n):
    return float(np.power(x, n)) if isinstance(x, float) else x**n


def _step(s, order):
    """smooth_step on 0 < s < 1 and its first two derivatives, all from the
    one pair of exps psi(s), psi(1-s) with psi(s) = exp(-1/s)."""
    r = 1.0 - s
    a, b = _exp(-1.0 / s), _exp(-1.0 / r)
    tot = a + b
    if order == 0:
        return a / tot
    da, db = a / _pow(s, 2), -b / _pow(r, 2)
    dtot = da + db
    if order == 1:
        return (da * tot - a * dtot) / _pow(tot, 2)
    d2a, d2b = a * (1.0 - 2.0 * s) / _pow(s, 4), b * (1.0 - 2.0 * r) / _pow(r, 4)
    return ((d2a * tot - a * (d2a + d2b)) / _pow(tot, 2)
            - 2.0 * dtot * (da * tot - a * dtot) / _pow(tot, 3))


def _bump(s, order):
    """bump on 0 < s < 1 and its first two derivatives, all from the one exp:
    b' = b f', b'' = b (f'^2 + f'') with f = -1/q, q = s(1-s)."""
    q = s * (1.0 - s)
    e = _exp(-1.0 / q)
    if order == 0:
        return e
    dq = 1.0 - 2.0 * s
    if order == 1:
        return e * dq / _pow(q, 2)
    return e * (_pow(dq / _pow(q, 2), 2) - 2.0 / _pow(q, 2)
                - 2.0 * _pow(dq, 2) / _pow(q, 3))


def _extend(kernel, s, order, above):
    """kernel(s, order) on 0 < s < 1, extended by 0 below and by above above;
    NaN gives NaN."""
    s = np.asarray(s, dtype=float)
    out = np.where(s >= 1, above, np.where(s <= 0, 0.0, np.nan))
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
_PANEL_BLOCK = 512     # panels per kernel call of _panel_integrals

# Gauss-Legendre nodes and weights on [-1, 1] by order, the nonnegative
# nodes only: the rules are symmetric, bitwise as numpy's leggauss gives them
_GAUSS_LEGENDRE = {
    12: ((0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
          0.7699026741943047, 0.9041172563704748, 0.9815606342467192),
         (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
          0.16007832854334642, 0.10693932599531907, 0.04717533638651141)),
    20: ((0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
          0.5108670019508271, 0.636053680726515, 0.7463319064601508,
          0.8391169718222188, 0.912234428251326, 0.9639719272779138,
          0.993128599185095),
         (0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
          0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
          0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
          0.017614007139150893)),
}


def _gauss_legendre(order):
    """The nodes and weights of the order-point Gauss-Legendre rule, in
    increasing node order."""
    nodes, weights = (np.array(half) for half in _GAUSS_LEGENDRE[order])
    return (np.concatenate((-nodes[::-1], nodes)),
            np.concatenate((weights[::-1], weights)))


class _HermiteTable:
    """Piecewise cubic Hermite interpolants of one or more curves on the
    nodes x_i = i/n of [0, 1] for a power of two n. Coefficients, interval
    rule (closed on the left, the last on both sides, the end cubics extended
    outside [0, 1]) and power-sum order are those of the standard
    piecewise-power (PPoly) form, so the values match that form bit for bit.
    A call gives a row per curve, from one index and one take."""

    def __init__(self, coef):
        # coef[curve, j, i] multiplies (x - x_i)^(3 - j) on interval i;
        # by_interval[i] is interval i's [curve, j] block, a view
        self.coef = coef
        self.by_interval = np.moveaxis(coef, -1, 0)
        self.n = coef.shape[-1]

    def curve(self, c):
        """The table of curve c alone, a contiguous view: no coefficient is
        copied, at build or per call."""
        return _HermiteTable(self.coef[c:c + 1])

    def __call__(self, v):
        # the nodes are exactly i/n and n v is exact, so n v clipped to
        # [0, n - 1] and truncated is the interval a search of the nodes would
        # find; the clamp sends NaN to the last interval (fmin drops it),
        # where it stays NaN through the power sum. A Python float gives a
        # list of floats, read from the coefficients in place, with
        # _power_sum's operations.
        if isinstance(v, float):
            n = self.n
            nv = n * v
            i = int(nv) if 0 <= nv < n - 1 else 0 if nv < 0 else n - 1
            s = v - i / n
            ss = s * s
            sss = ss * s
            return [((c3 + c2 * s) + c1 * ss) + c0 * sss
                    for c0, c1, c2, c3 in self.by_interval[i].tolist()]
        v = np.asarray(v, dtype=float)
        i = np.fmax(np.fmin(self.n * v, self.n - 1), 0).astype(np.intp)
        return _power_sum(v - i / self.n, *np.take(self.coef, i, axis=-1).swapaxes(0, 1))


def _power_sum(s, c0, c1, c2, c3):
    ss = s * s
    return ((c3 + c2 * s) + c1 * ss) + c0 * (ss * s)


def _panel_integrals(f, order, n_panels):
    """Gauss-Legendre rule of the given order for f on each of n_panels
    equal panels of [0, 1], f called on _PANEL_BLOCK panels at a time."""
    nodes, weights = _gauss_legendre(order)
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    out = np.empty(n_panels)
    for lo in range(0, n_panels, _PANEL_BLOCK):
        e = edges[lo:lo + _PANEL_BLOCK + 1]
        h = np.diff(e)
        pts = e[:-1, None] + 0.5 * h[:, None] * (nodes + 1.0)
        out[lo:lo + len(h)] = 0.5 * h * (f(pts) @ weights)
    return out


def _cumulative_table(kernels, n_panels=_TABLE_PANELS):
    """High-accuracy antiderivatives of the kernels on [0,1] as one cubic
    Hermite table, and their masses: per-panel Gauss-Legendre integration
    (order 12 on panels of width 1/n_panels puts the truncation error far
    below 1e-30 for these kernels), then a compensated cumulative sum so node
    values carry no accumulation error. Hermite slopes are exact samples of
    each kernel."""
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    cum = np.zeros((len(kernels), n_panels + 1))
    for row, f in zip(cum, kernels):
        # Neumaier compensated running sum: keeps node values within one
        # ulp. np.cumsum adds in sequence, each sum from 0.0, so the running
        # sums s and compensations are those of the loop term by term
        terms = _panel_integrals(f, _GL_ORDER, n_panels)
        s = np.cumsum(np.append(0.0, terms))
        prev, t = s[:-1], s[1:]
        err = np.where(np.abs(prev) >= np.abs(terms), (prev - t) + terms, (terms - t) + prev)
        row[1:] = t + np.cumsum(np.append(0.0, err))[1:]
    d = np.array([f(edges) for f in kernels])
    dx = np.diff(edges)
    slope = np.diff(cum) / dx
    t = (d[:, :-1] + d[:, 1:] - 2.0 * slope) / dx
    coef = np.stack([t / dx, (slope - d[:, :-1]) / dx - t, d[:, :-1], cum[:, :-1]],
                    axis=1)
    return _HermiteTable(coef), cum[:, -1].tolist()


def _check_mass(f):
    """Mass of f on [0, 1] and an error estimate, by a rule independent of
    the table's: composite 20-point Gauss-Legendre on 64 and on 128 panels.
    The estimate is the difference of the two plus a roundoff floor of
    50 eps |mass|, the floor adaptive quadrature (QUADPACK) puts on its own."""
    coarse = float(np.sum(_panel_integrals(f, 20, 64)))
    fine = float(np.sum(_panel_integrals(f, 20, 128)))
    return fine, abs(fine - coarse) + 50.0 * 2.0**-52 * abs(fine)


# --- the row tables ---------------------------------------------------------

_ANTI = "antiderivative"
_ORDERS = (0, 1, 2, _ANTI)
_ORDER_SET = frozenset(_ORDERS)
# the plateaus' kernel, the constant 1: its derivatives, and its
# antiderivative from 0 as the one row of its terms
_ONE, _ONE_ANTI = (lambda s, order: 0.0 if order else 1.0), (lambda s: (s,))


def _row(lo, mirror=False, scale=1.0, shift=0.0, terms=(), antis=None, gain=1.0,
         offset=0.0, base=0.0):
    """A table row for x from lo up to the next row's lo, as the module
    docstring has it, made once: its start, a Python float for bisect, and
    the constants _read reads. These are the mirror flag, scale and shift;
    the (at most two) terms (f, coeff), f(s, order), as kernel, coefficient,
    kernel, coefficient, a missing kernel None (no terms: a zero row); antis,
    the terms' F from 0 at s, a row each, in one call; the chain factors
    gain * scale^n of orders 0, 1, 2 and gain / scale of the antiderivative,
    offset + gain / scale * (sum(coeff * F(s)) - base); base and offset."""
    (f0, c0), (f1, c1) = terms + ((None, 0.0),) * (2 - len(terms))
    return float(lo), (mirror, scale, shift, f0, c0, f1, c1, antis,
                       (*(gain * scale**n for n in (0, 1, 2)), gain / scale), base, offset)


class PlateauProfile:
    """One calibrated profile with exact plateau/zero regions: a table of
    _row records. Set once at calibration, so safe to share across threads."""

    __slots__ = ("kind", "shoulder_coefficient", "los", "starts", "rows", "anti_one", "jump")

    def __init__(self, kind, shoulder_coefficient, table, anti_one=-0.0, jump=None):
        self.kind = kind   # "eta" | "gamma_plus"
        # the calibration constant for the bump lobe(s)
        self.shoulder_coefficient = shoulder_coefficient
        # the row starts: a tuple for bisect, and a column for the array
        # route; each row's constants, which both routes read
        self.los, self.rows = zip(*table)
        self.starts = np.array(self.los)[:, None]
        self.anti_one = anti_one   # the antiderivative at t = 1
        self.jump = jump           # the x where side= picks the row, if any


@dataclass(frozen=True)
class ProfileSet:
    """The calibrated profiles plus shared kernel constants; gamma_minus is
    gamma_plus read with reflect set."""

    eta: PlateauProfile
    gamma_plus: PlateauProfile
    step_mass: float        # integral of smooth_step over [0, 1]
    bump_mass: float        # integral of bump over [0, 1]
    achieved_error: float   # worst disagreement with the independent mass check


def calibrate_profiles(quadrature_tolerance: float | None = None) -> ProfileSet:
    """Build the three profiles, fixing shoulder coefficients by quadrature.

    Deterministic: the same tolerance always yields bit-identical profiles.
    Raises CalibrationError if the independent mass check cannot confirm
    the tabulated kernel masses to the requested tolerance, by default the
    bound table's kernel_mass.
    """
    if quadrature_tolerance is None:
        quadrature_tolerance = BOUNDS["kernel_mass"]
    if not quadrature_tolerance > 0:
        raise ValueError("quadrature tolerance must be positive")

    kernels, (step_mass, bump_mass) = _cumulative_table((smooth_step, bump))

    # Independent check of the two kernel masses.
    q_step, err_step = _check_mass(smooth_step)
    q_bump, err_bump = _check_mass(bump)
    achieved = max(abs(q_step - step_mass), abs(q_bump - bump_mass),
                   err_step, err_bump)
    if achieved > quadrature_tolerance:
        raise CalibrationError(
            f"kernel mass check failed: achieved error {achieved:.3e} "
            f"> tolerance {quadrature_tolerance:.3e}")

    one = ((_ONE, 1.0),)
    above = np.nextafter   # above(x, 1): the start of a row open at x
    # eta: plateau (length 1/4) + two smooth_step edges (mass step_mass/8 each)
    # leave a deficit against the unit integral; two mirrored bumps supply it.
    c = (1.0 - 0.25 - 2.0 * step_mass / 8.0) / (2.0 * bump_mass / 8.0)
    rise = dict(scale=8.0, shift=0.25, terms=((_step, 1.0), (_bump, c)), antis=kernels)
    plateau = dict(scale=1.0, shift=0.375, terms=one, antis=_ONE_ANTI,
                   offset=(step_mass + c * bump_mass) / 8.0)
    eta = PlateauProfile("eta", c, (
        _row(-np.inf), _row(above(0.25, 1), **rise), _row(0.375, **plateau),
        _row(above(0.5, 1), True, **plateau), _row(above(0.625, 1), True, **rise),
        _row(0.75, True),
    ), anti_one=2.0 * (step_mass + c * bump_mass) / 8.0 + 0.25)
    # gamma_plus: positive mass = plateau (1/2,5/8] plus the descent edge;
    # one negative lobe of the same mass sits in (11/16, 15/16).
    c = (1.0 / 8.0 + step_mass / 16.0) / (bump_mass / 4.0)
    gp = PlateauProfile("gamma_plus", c, (
        _row(-np.inf),
        _row(above(0.5, 1), False, 1.0, 0.5, one, _ONE_ANTI),
        _row(above(0.625, 1), False, -16.0, 0.6875, ((_step, 1.0),),
             kernels.curve(0), offset=0.125, base=step_mass),
        _row(0.6875),
        _row(above(0.6875, 1), False, 4.0, 0.6875, ((_bump, 1.0),),
             kernels.curve(1), gain=-c, offset=0.125 + step_mass / 16.0),
        _row(0.9375),
    ), jump=0.5)
    return ProfileSet(eta, gp, step_mass, bump_mass, achieved)


def _read(p: PlateauProfile, t, orders, side=None, reflect=False, n=None):
    """The one body of a row's arithmetic: p at t from its rows' constants, a
    result per order. A Python float t (n None) finds its row by bisect and
    takes the jump rule: Python floats. The array route passes each group of
    points in, already reflected, with its row n (0: none, NaN) and flag
    reflect: arrays, or scalars the group broadcasts. A mirror image negates
    the slope and integrates from 1."""
    if n is None:
        x = 1.0 - t if reflect else t
        n = bisect.bisect_right(p.los, x) if x == x else 0   # a NaN is in slot 0
        if x == p.jump:
            if side is not None:
                n += reflect != (side == "right")   # the jump closes the row on its left
            elif 1 in orders or 2 in orders:
                raise OneSidedLimitRequired(_ONE_SIDED)
    else:
        x = t
    if not n:
        return [math.nan] * len(orders)
    mirror, scale, shift, f0, c0, f1, c1, antis, chain, base, offset = p.rows[n - 1]
    flip = mirror != reflect   # a mirror image: slope negated, antiderivative from 1
    if f0 is None:   # a zero row
        return [(-0.0 if o == 1 else p.anti_one if o == _ANTI else 0.0) if flip else 0.0
                for o in orders]
    s = scale * ((1.0 - x if mirror else x) - shift)
    out = []
    for o in orders:
        if o == _ANTI:
            v = antis(s)
            w = chain[3] * ((c0 * v[0] if f1 is None else c0 * v[0] + c1 * v[1]) - base)
            w = offset + w if offset else w   # the skip keeps a zero's sign
            out.append(p.anti_one - w if flip else w)
        else:
            w = chain[o] * (c0 * f0(s, o) if f1 is None else c0 * f0(s, o) + c1 * f1(s, o))
            out.append(-w if flip and o == 1 else w)
    return out


def _read_array(p: PlateauProfile, t, orders, side=None, reflect=False):
    """profile_eval's array route, on checked arguments: the points grouped
    by row, or by row and flag where reflect differs per point, each group
    read by _read; a list of arrays shaped as t, of floats for a 0-d t."""
    t = np.asarray(t, dtype=float)
    x = t.ravel()
    # x = 1 - t where the read is reflected: one bool when all flags agree
    if isinstance(reflect, np.ndarray):
        reflect = np.broadcast_to(reflect, t.shape).ravel()
        some = reflect.any()
        if not some or reflect.all():
            reflect = bool(some)
    per_point = isinstance(reflect, np.ndarray)
    if per_point:
        x = np.where(reflect, 1.0 - x, x)
    elif reflect:
        x = 1.0 - x
    # x is in row n_at - 1, n_at the count of starts at or below x: for so
    # few starts many times faster than np.searchsorted. A NaN is at or
    # above none and stays NaN in slot 0.
    n_at = np.add.reduce(p.starts <= x, axis=0, dtype=np.uint8)
    if p.jump is not None:
        at_jump = x == p.jump
        if side is not None:
            # the jump closes the row on its left
            n_at += at_jump & (reflect != (side == "right"))
        elif (1 in orders or 2 in orders) and np.any(at_jump):
            raise OneSidedLimitRequired(_ONE_SIDED)
    # a group per slot, or per slot and flag (key 2 slot + flag) where the
    # flags differ per point: each group takes one mirror transform
    if per_point:
        n_at = 2 * n_at + reflect
    first, last = ((int(n_at[0]),) * 2 if n_at.size == 1 else
                   (int(n_at.min(initial=255)), int(n_at.max(initial=0))))
    outs = [np.zeros(x.shape) for _ in orders]
    for k in range(first, last + 1):
        n, m = divmod(k, 2) if per_point else (k, reflect)
        if n and p.rows[n - 1][3] is None and p.rows[n - 1][0] == m:
            continue   # a zero row (f0 None) leaves out at +0.0 unless its mirror image changes it
        ii = slice(None) if first == last else (n_at == k).nonzero()[0]
        if first < last and not ii.size:
            continue   # no point in this group
        for out, v in zip(outs, _read(p, x[ii], orders, side, m, n)):
            out[ii] = v
    return [float(out[0]) if t.ndim == 0 else out.reshape(t.shape) for out in outs]


def _check_side(side):
    if side not in (None, "left", "right"):
        raise ValueError("side must be None, 'left' or 'right'")


def profile_eval(p: PlateauProfile, t, order=0, side=None, reflect=False):
    """Evaluate a profile, a derivative, or its antiderivative from 0.

    order is one of 0, 1, 2 or "antiderivative", or a tuple of them for a
    tuple of results from one row lookup. reflect, a bool or one per point
    (broadcast against t), reads the profile mirrored where set, at 1 - t:
    gamma_plus so read is gamma_minus. For the gamma profiles the point
    t = 1/2 carries one-sided data only; pass side="left"/"right" to pick a
    branch of the value there (derivative limits agree and are 0).
    A Python float t with a bool reflect gives Python floats, bitwise those
    of the array route.
    """
    orders = order if isinstance(order, tuple) else (order,)
    if not orders or not _ORDER_SET.issuperset(orders):
        raise ValueError(f"order must be one of {_ORDERS} or a tuple of them")
    _check_side(side)
    if isinstance(t, float) and isinstance(reflect, bool):
        outs = _read(p, float(t), orders, side, reflect)
    else:
        outs = _read_array(p, t, orders, side, reflect)
    return tuple(outs) if isinstance(order, tuple) else outs[0]


def export_profile_csv(profiles: ProfileSet, path, n: int = 2001) -> None:
    """Dump (t, value, d1, d2, antiderivative) per profile for plotting/audit.

    Derivative columns use the right-limit convention where the grid hits
    the jump point exactly.
    """
    ts = np.linspace(0.0, 1.0, n)

    def rows():
        for kind, p, reflect in (("eta", profiles.eta, False),
                                 ("gamma_plus", profiles.gamma_plus, False),
                                 ("gamma_minus", profiles.gamma_plus, True)):
            cols = [*profile_eval(p, ts, (0, 1, 2), side="right", reflect=reflect),
                    profile_eval(p, ts, _ANTI, reflect=reflect)]
            yield from zip(repeat(kind), ts.tolist(), *(c.tolist() for c in cols))

    write_csv(path, ("profile", "t", "value", "d1", "d2", "antiderivative"), rows())
