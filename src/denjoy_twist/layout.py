"""Placement of the gaps on the circle in the order of the rotation orbit.

Gap k sits where the atom of mass ell_k at frac(k*omega) would sit under the
measure "sum of atoms plus uniformly spread leftover": its left endpoint is
the total mass strictly below its orbit point,

    lambda_k = sum_{m : frac(m w) < frac(k w)} ell_m + residual_mass * frac(k w).

Spreading the untracked tail mass uniformly is the finite completion of the
atomic picture; it makes the placed object exactly self-consistent (gaps are
pairwise disjoint with slack proportional to orbit spacing, and nothing
downstream depends on the unrealizable infinite layout).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .sequences import ConstructionError


def circle_delta(a, b):
    """Minimal representative of a - b on the circle, in (-1/2, 1/2]."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d - np.round(d)
    return d


@dataclass(frozen=True)
class GapTable:
    """Placed gaps I_k = [lambda_k, lambda_k + ell_k] for |k| <= M.

    orbit_t, lam, ell and mu are indexed by k + M; the sorted_* columns by
    circular rank i, with sorted_to_k[i] the gap index of the i-th gap in
    circular order. cum_mass[i] is the total gap length strictly below it,
    and cum_mass[-1] that of all gaps. No placed gap straddles the point
    0 = 1: gap 0 starts exactly at 0 and build_gap_table rejects a last gap
    reaching 1.
    """

    M: int
    omega: float
    orbit_t: np.ndarray      # frac(k omega), index k + M
    lam: np.ndarray
    ell: np.ndarray
    mu: np.ndarray
    residual_mass: float
    sorted_to_k: np.ndarray
    sorted_t: np.ndarray
    sorted_lam: np.ndarray
    sorted_ends: np.ndarray
    cum_mass: np.ndarray

    def lam_of(self, k):
        return self.lam[np.asarray(k) + self.M]

    def ell_of(self, k):
        return self.ell[np.asarray(k) + self.M]

    def mu_of(self, k):
        return self.mu[np.asarray(k) + self.M]

    def t_of(self, k):
        return self.orbit_t[np.asarray(k) + self.M]

    def J_of(self, k):
        """The middle segment of gap k: [mu - ell/8, mu + ell/8]."""
        m = self.mu_of(k)
        e = self.ell_of(k)
        return (m - e / 8.0, m + e / 8.0)

    def lookup(self, x):
        """For circle points x in [0, 1): the circular rank i of the last gap
        starting at or below x (-1 if none) and whether x lies in that gap,
        both endpoints counting as the gap's. Broadcasts over arrays."""
        i = np.searchsorted(self.sorted_lam, x, side="right") - 1
        return i, (i >= 0) & (x <= self.sorted_ends[i])

    def placement(self, t: float) -> float:
        """The placement measure below the circle point t: the mass of the
        gaps whose orbit point is at or below t plus the spread tail."""
        rank = int(np.searchsorted(self.sorted_t, t, side="right"))
        return float(self.cum_mass[rank]) + self.residual_mass * float(t)


def order_orbit_points(M: int, omega: float) -> np.ndarray:
    """Permutation sorting {frac(k omega)}_{|k| <= M}; entry i is a gap index k.

    Orbit points must be pairwise distinct at double precision, which holds
    with room to spare for the default omega at desk truncations.
    """
    ks = np.arange(-M, M + 1)
    t = (ks * omega) % 1.0
    order = np.argsort(t, kind="stable")
    tt = t[order]
    gaps = np.diff(tt)
    if np.any(gaps <= 0.0):
        raise ValueError("orbit points collide at double precision; "
                         "reduce M or change omega")
    return ks[order]


def build_gap_table(seqs) -> GapTable:
    """Place the stored gaps from built sequences."""
    M, omega = seqs.M, seqs.params.omega
    ks = np.arange(-M, M + 1)
    orbit_t = (ks * omega) % 1.0
    sorted_to_k = order_orbit_points(M, omega)
    order_idx = sorted_to_k + M
    ell = np.asarray(seqs.ell(ks), dtype=float)
    residual = seqs.residual_mass
    if not (0.0 < residual < 1.0):
        raise ValueError(f"residual mass {residual} outside (0, 1)")

    sorted_ell = ell[order_idx]
    sorted_t = orbit_t[order_idx]
    cum_mass = np.concatenate(([0.0], np.cumsum(sorted_ell)))
    sorted_lam = cum_mass[:-1] + residual * sorted_t
    ends = sorted_lam + sorted_ell
    if np.any(ends[:-1] > sorted_lam[1:]) or ends[-1] >= 1.0:
        raise ConstructionError("placed gaps overlap")

    lam = np.empty(2 * M + 1)
    lam[order_idx] = sorted_lam
    return GapTable(
        M=M, omega=omega, orbit_t=orbit_t, lam=lam, ell=ell,
        mu=lam + ell / 2.0, residual_mass=residual, sorted_to_k=sorted_to_k,
        sorted_t=sorted_t, sorted_lam=sorted_lam, sorted_ends=ends,
        cum_mass=cum_mass)


# ---------------------------------------------------------------------------
# the semi-conjugacy j (collapses gap k to frac(k omega))
# ---------------------------------------------------------------------------

@dataclass
class SemiConjugacy:
    """Monotone degree-one map j with j(I_k) = frac(k omega).

    On the residual set j inverts the placement measure: a point at gap-mass
    prefix P plus residual offset r*t maps to t. This is the affine
    interpolation between neighboring gap values, so j is weakly increasing
    with j(x + 1) = j(x) + 1 on lifts.
    """

    table: GapTable

    def eval(self, x):
        """j at circle points: a float for a scalar x, else an array.

        Gap points map to their orbit point; residual points invert the
        placement measure, t = (x - gap mass below) / residual mass.
        """
        tb = self.table
        x = np.asarray(x, dtype=float) % 1.0
        i, inside = tb.lookup(x)
        k = tb.sorted_to_k[i] + tb.M
        mass_below = np.where(i >= 0, tb.cum_mass[i] + tb.ell[k], 0.0)
        t = np.where(inside, tb.orbit_t[k], (x - mass_below) / tb.residual_mass)
        return float(t) if t.ndim == 0 else t

    def lift(self, x: float) -> float:
        n = math.floor(x)
        return n + self.eval(x - n)


def dump_gap_table_csv(table: GapTable, path) -> None:
    """Gap table dump with columns (k, lambda, mu, ell, J_lo, J_hi, wrap)."""
    ks = np.arange(-table.M, table.M + 1)
    cols = [table.lam_of(ks), table.mu_of(ks), table.ell_of(ks), *table.J_of(ks)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "lambda", "mu", "ell", "J_lo", "J_hi", "wrap"])
        # csv writes Python floats by repr, which round-trips; no gap wraps
        # around 0 = 1 (see GapTable), so the wrap column is a constant 0
        w.writerows([*row, 0] for row in
                    zip(ks.tolist(), *(c.tolist() for c in cols)))
