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

from dataclasses import dataclass

import numpy as np

from .reporting import write_csv_blocks
from .sequences import ConstructionError


def circle_delta(a, b):
    """Minimal representative of a - b on the circle, in [-1/2, 1/2]: np.round
    rounds half to even, so a difference of exactly 1/2 may come out as -1/2."""
    with np.errstate(invalid="ignore"):   # inf - inf: NaN, as the steps give
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return d - np.round(d)


def frac(x):
    """The circle point of a real x in [0, 1), a float for a float, else an
    array: x % 1.0, which is x - floor(x) to the bit, less 1 where that rounds
    up to 1.0 (x below an integer by under half an ulp of 1), so such an x
    reads 0.0. NaN at +-inf, without a warning."""
    if isinstance(x, float):
        fr = x % 1.0
    else:
        with np.errstate(invalid="ignore"):   # inf % 1.0: the float route's NaN
            fr = np.asarray(x, dtype=float) % 1.0
    return fr - (fr >= 1.0)


# round(a * 2**64) for the Kronecker steps a: 1/phi, phi the golden ratio, in
# one dimension, and the R2 pair 1/p, 1/p**2, p**3 = p + 1 the plastic
# number, in two
_KRONECKER = {1: (0x9E3779B97F4A7C16,), 2: (0xC13FA9A902A6328F, 0x91E10DA5C79E7B1D)}


def points(n: int, seed: int, d: int = 1) -> np.ndarray:
    """The first n points frac(c + i a) of the Kronecker set of seed, in
    [0, 1)^d: shape (n,) for d = 1, (n, 2) for d = 2.

    The shift is c = frac(seed a), so seed s + 1 gives the seed-s set moved
    on by one index. Both sums are exact in 64-bit fixed point: seed meets
    the step on Python ints, modulo 2**64, and the points wrap modulo 2**64
    in uint64 before their top 53 bits become doubles.
    """
    i = np.arange(n, dtype=np.uint64)
    fixed = np.stack([np.uint64(seed * a % 2**64) + i * np.uint64(a)
                      for a in _KRONECKER[d]], axis=-1)
    out = (fixed >> np.uint64(11)) * 2.0**-53
    return out[:, 0] if d == 1 else out


@dataclass(frozen=True)
class GapTable:
    """Placed gaps I_k = [lambda_k, lambda_k + ell_k] for |k| <= M.

    lam and ell are indexed by k + M; the sorted_* columns by circular rank
    i, with sorted_to_k[i] the gap index of the i-th gap in circular order
    and sorted_t[i] its orbit point. cum_mass[i] is the total gap length
    strictly below it, and cum_mass[-1] that of all gaps. The orbit point
    frac(k omega), the midpoint mu_k and the gap ends are formed where read.
    No placed gap straddles the point 0 = 1: gap 0 starts exactly at 0 and
    build_gap_table rejects a last gap reaching 1.
    """

    M: int
    omega: float
    lam: np.ndarray
    ell: np.ndarray
    residual_mass: float
    sorted_to_k: np.ndarray
    sorted_t: np.ndarray
    sorted_lam: np.ndarray
    cum_mass: np.ndarray

    def lam_of(self, k):
        return self.lam[np.asarray(k) + self.M]

    def ell_of(self, k):
        return self.ell[np.asarray(k) + self.M]

    def mu_of(self, k):
        return self.lam_of(k) + self.ell_of(k) / 2.0

    def t_of(self, k):
        return frac(np.asarray(k) * self.omega)

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
        end = self.sorted_lam[i] + self.ell_of(self.sorted_to_k[i])
        return i, (i >= 0) & (x <= end)

    def placement(self, t: float) -> float:
        """The placement measure below the circle point t: the mass of the
        gaps whose orbit point is at or below t plus the spread tail."""
        rank = int(np.searchsorted(self.sorted_t, t, side="right"))
        return float(self.cum_mass[rank]) + self.residual_mass * float(t)


def build_gap_table(seqs) -> GapTable:
    """Place the stored gaps from built sequences.

    Orbit points must be pairwise distinct at double precision, which holds
    with room to spare for the default omega at desk truncations.
    """
    M, omega = seqs.M, seqs.params.omega
    ks = np.arange(-M, M + 1)
    orbit_t = frac(ks * omega)
    order_idx = np.argsort(orbit_t, kind="stable")
    sorted_t = orbit_t[order_idx]
    if np.any(np.diff(sorted_t) <= 0.0):
        raise ValueError("orbit points collide at double precision; "
                         "reduce M or change omega")
    ell = seqs.ell_arr[1:-1]   # gaps |k| <= M, a view
    residual = seqs.residual_mass
    if not (0.0 < residual < 1.0):
        raise ValueError(f"residual mass {residual} outside (0, 1)")

    sorted_ell = ell[order_idx]
    cum_mass = np.concatenate(([0.0], np.cumsum(sorted_ell)))
    sorted_lam = cum_mass[:-1] + residual * sorted_t
    ends = sorted_lam + sorted_ell
    if np.any(ends[:-1] > sorted_lam[1:]) or ends[-1] >= 1.0:
        raise ConstructionError("placed gaps overlap")

    lam = np.empty(2 * M + 1)
    lam[order_idx] = sorted_lam
    return GapTable(
        M=M, omega=omega, lam=lam, ell=ell, residual_mass=residual,
        sorted_to_k=ks[order_idx], sorted_t=sorted_t, sorted_lam=sorted_lam,
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
        """j at the circle point frac(x): a float for a scalar x, else an array.

        Gap points map to their orbit point; residual points invert the
        placement measure, t = (x - gap mass below) / residual mass.
        """
        tb = self.table
        x = frac(x)
        i, inside = tb.lookup(x)
        k = tb.sorted_to_k[i]
        mass_below = np.where(i >= 0, tb.cum_mass[i] + tb.ell_of(k), 0.0)
        t = np.where(inside, tb.t_of(k), (x - mass_below) / tb.residual_mass)
        return float(t) if t.ndim == 0 else t


def dump_gap_table_csv(table: GapTable, path) -> None:
    """Gap table dump with columns (k, lambda, mu, ell, J_lo, J_hi)."""
    def block(lo, hi):
        ks = np.arange(lo - table.M, hi - table.M)
        return ks, table.lam_of(ks), table.mu_of(ks), table.ell_of(ks), *table.J_of(ks)

    write_csv_blocks(path, ("k", "lambda", "mu", "ell", "J_lo", "J_hi"),
                     2 * table.M + 1, block)
