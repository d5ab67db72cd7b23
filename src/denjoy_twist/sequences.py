"""Scalar sequences of the construction: gap lengths and the coupled recurrence.

Gap lengths follow ell_k = a_C / ((|k|+C) log(|k|+C)^(1+delta)) with a_C
normalizing the full doubly infinite sum to 1. From them come the ratio
sequence K_k = ell_{k+1}/ell_k - 1, the three-term constants
m_k = 1 + K_k + 1/(1+K_{k-1}), and the slope-perturbation sequence alpha_k
fixed by a head relation at k in {0, 1} and extended both ways by the
recurrence 1 + beta_{k+1} + 1/(1+beta_k) = m_{k+1} with beta_k = K_k + alpha_k.

Both sweeps are implemented in difference form (tracking alpha directly),
which makes the zero-seed fixed point beta == K exact in floating point and
makes the sign pattern alpha_n > 0, alpha_{-n} < 0 exact by induction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


class ConstructionError(RuntimeError):
    """A sweep of the recurrence left its admissible domain."""


DEFAULT_TOLERANCES = {
    "normalizer_rel": 1e-10,
    "recurrence_residual": 1e-13,
    "zero_seed_drift": 1e-12,
    # slack windows for the empirical estimate constants at desk scale
    "ratio_bound_lo": 0.5,
    "ratio_bound_hi": 5.0,
    "ratio_step_lo": 0.05,
    "ratio_step_hi": 20.0,
    "m_slack": 10.0,
}


@dataclass(frozen=True)
class SeqParams:
    """Construction parameters. Defaults give the desk-scale configuration."""

    omega: float = (math.sqrt(5.0) - 1.0) / 2.0
    delta: float = 0.5
    bigC: float = 100.0
    bigB: float = 10.0
    truncation_M: int = 500
    # "half_K1" | "value:<x>"
    alpha1_policy: str = "half_K1"
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def validate(self) -> None:
        if not (0.0 < self.omega < 1.0):
            raise ValueError("omega must lie in (0, 1)")
        # written so that NaN fails each test
        if not 0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite "
                             "(the length sum diverges otherwise)")
        if not 10 <= self.bigC < math.inf:
            raise ValueError("C must be finite and at least 10")
        if not 3 <= self.bigB < math.inf:
            raise ValueError("B must be finite and at least 3")
        if self.truncation_M < 8:
            raise ValueError("truncation M must be at least 8")


@dataclass(frozen=True)
class GapSequences:
    """Built sequences, all indexed by the signed gap index k.

    Storage ranges: ell on [-(M+1), M+1], K on [-(M+1), M], m on [-M, M],
    alpha/beta on [-M, M]. residual_mass is 1 minus the total length of the
    stored gaps |k| <= M. Made whole by build_sequences.
    """

    params: SeqParams
    a_C: float
    ell_arr: np.ndarray
    K_arr: np.ndarray
    m_arr: np.ndarray
    alpha_arr: np.ndarray
    beta_arr: np.ndarray
    alpha0: float
    alpha1: float
    m1_adjusted: float
    residual_mass: float

    @property
    def M(self) -> int:
        return self.params.truncation_M

    def ell(self, k):
        return self.ell_arr[np.asarray(k) + self.M + 1]

    def K(self, k):
        return self.K_arr[np.asarray(k) + self.M + 1]

    def m(self, k):
        return self.m_arr[np.asarray(k) + self.M]

    def alpha(self, k):
        return self.alpha_arr[np.asarray(k) + self.M]

    def beta(self, k):
        return self.beta_arr[np.asarray(k) + self.M]


def _term(k_abs, C, delta):
    x = k_abs + C
    return 1.0 / (x * np.log(x) ** (1.0 + delta))


def normalizer(delta: float, bigC: float, head: int = 10**6) -> float:
    """a_C with the full infinite sum equal to 1.

    Direct summation over |k| <= head plus an Euler-Maclaurin tail
    (integral through the midpoint plus half the first term), good to
    about 1e-14 relative for the default parameters.
    """
    if delta <= 0:
        raise ValueError("delta must be positive (divergent sum)")
    ks = np.arange(1, head + 1, dtype=float)
    x0 = head + 1 + bigC
    try:
        with np.errstate(over="raise"):
            s_head = _term(0.0, bigC, delta) + 2.0 * float(np.sum(_term(ks, bigC, delta)))
            tail = (1.0 / (delta * math.log(x0) ** delta)
                    + 0.5 * _term(head + 1, bigC, delta))
    except (OverflowError, FloatingPointError):
        raise ValueError(f"delta={delta:g} is too large: "
                         "the length normalizer overflows") from None
    return 1.0 / (s_head + 2.0 * tail)


def seed_alphas(K0: float, K1: float, params: SeqParams):
    """alpha1 by the seed policy, then the head relation solved for alpha0
    and the adjusted m at index 1.

    1/(1+K0+alpha0) + 1 + K1 = 1/(1+K0) + 1 + K1 + alpha1, the right side
    being the adjusted m1. alpha0 < 0 whenever alpha1 > 0, unless the seed is
    below the resolution of 1/(1+K0) and cancels: such a seed is refused.
    """
    policy = params.alpha1_policy
    if policy == "half_K1":
        alpha1 = abs(K1) / 2.0
    elif policy.startswith("value:"):
        alpha1 = float(policy.split(":", 1)[1])
    else:
        raise ValueError(f"unknown alpha1 policy {policy!r}")
    bound = params.bigB / (1.0 + params.bigC) - K1
    # written so that a NaN seed fails here too
    if not 0.0 < alpha1 <= bound:
        raise ConstructionError(
            f"seed alpha1={alpha1:.3e} outside the admissible range (0, {bound:.3e}]")
    alpha0 = 1.0 / (1.0 / (1.0 + K0) + alpha1) - 1.0 - K0
    if not alpha0 < 0.0:
        raise ConstructionError(
            f"seed alpha1={alpha1:.3e} is below what the head relation "
            f"resolves: alpha0={alpha0:.3e} is not negative")
    m1_adjusted = 1.0 / (1.0 + K0) + 1.0 + K1 + alpha1
    return alpha1, alpha0, m1_adjusted


def sweep_alphas(K: list, M: int, alpha1: float, alpha0: float):
    """alpha and beta on [-M, M] from the seeds at k = 1 and k = 0, with K_k
    at K[k + M + 1].

    The sweeps run the difference form of the recurrence: with d = alpha_k,
      forward   alpha_{k+1} = d / ((1+K_k)(1+beta_k)),
      backward  alpha_{k-1} = d (1+K_{k-1})^2 / (1 - d (1+K_{k-1})),
    algebraically identical to 1+beta_{k+1} + 1/(1+beta_k) = m_{k+1} but
    exact at the fixed point beta == K (zero seeds) and sign-preserving in
    floating point.
    """
    alpha = np.zeros(2 * M + 1)
    beta = np.zeros(2 * M + 1)

    def put(k, a):
        b = K[k + M + 1] + a
        if 1.0 + b <= 0.0:
            raise ConstructionError(
                f"1 + beta_{k} = {1.0 + b:.3e} is not positive; "
                "C too small or seed too large")
        alpha[k + M] = a
        beta[k + M] = b

    put(1, alpha1)
    put(0, alpha0)
    for k in range(1, M):
        d = alpha[k + M]
        put(k + 1, d / ((1.0 + K[k + M + 1]) * (1.0 + beta[k + M])))
    for k in range(0, -M, -1):
        d = alpha[k + M]
        Km1 = K[k + M]
        denom = 1.0 - d * (1.0 + Km1)
        if denom <= 0.0:
            raise ConstructionError(
                f"backward sweep broke at k={k-1}: m - (1+beta) hit "
                "a nonpositive value; C too small or seed too large")
        put(k - 1, d * (1.0 + Km1) ** 2 / denom)
    return alpha, beta


def build_sequences(params: SeqParams) -> GapSequences:
    """The full pipeline: lengths, ratios, seeds, both sweeps."""
    params.validate()
    M, C, delta = params.truncation_M, params.bigC, params.delta
    a_C = normalizer(delta, C)
    ell = a_C * _term(np.abs(np.arange(-(M + 1), M + 2, dtype=float)), C, delta)
    K_arr = ell[1:] / ell[:-1] - 1.0
    m_arr = 1.0 + K_arr[1:] + 1.0 / (1.0 + K_arr[:-1])
    K = K_arr.tolist()   # K_k is K[k + M + 1]
    alpha1, alpha0, m1_adjusted = seed_alphas(K[M + 1], K[M + 2], params)
    alpha, beta = sweep_alphas(K, M, alpha1, alpha0)
    return GapSequences(params, a_C, ell, K_arr, m_arr, alpha, beta, alpha0,
                        alpha1, m1_adjusted, 1.0 - float(np.sum(ell[1:-1])))


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

def recurrence_residuals(seqs: GapSequences) -> np.ndarray:
    """|1+beta_{k+1} + 1/(1+beta_k) - m_{k+1}| for every stored relation.

    The k = 0 link is the head relation and is checked against the adjusted
    m1 in the form 1/(1+beta_0) + 1 + K_1 = m1_adjusted.
    """
    M = seqs.M
    k = np.arange(-M, M)
    res = np.abs(1.0 + seqs.beta(k + 1) + 1.0 / (1.0 + seqs.beta(k)) - seqs.m(k + 1))
    res[M] = abs(1.0 / (1.0 + float(seqs.beta(0))) + 1.0 + float(seqs.K(1))
                 - seqs.m1_adjusted)
    return res


def verify_sequence_estimates(seqs: GapSequences) -> dict:
    """Empirical constants and pass flags for the estimate chain.

    Each entry reports the measured best constants; pass/fail is judged
    against the configured slack windows. The crossing pairs straddling
    k = 0 (where the |k|-symmetric length formula flips the sign of K) are
    excluded from the two-sided difference estimates and reported on their
    own: there the estimates provably degrade to O(1/C) regardless of
    truncation, while the exact identity m_0 - 2 = 2 K_0 takes over.
    """
    params = seqs.params
    tol = {**DEFAULT_TOLERANCES, **params.tolerances}
    M, C = seqs.M, params.bigC
    ks = np.arange(-M, M + 1)
    K = seqs.K(ks)
    ell = seqs.ell(ks)
    report = {"estimates": {}, "crossing": {}}
    est = report["estimates"]

    # |K_k| (|k|+C) bounded above and below
    r3 = np.abs(K) * (np.abs(ks) + C)
    est["ratio_bound"] = {
        "min": float(r3.min()), "max": float(r3.max()),
        "pass": bool(tol["ratio_bound_lo"] <= r3.min()
                     and r3.max() <= tol["ratio_bound_hi"]),
    }

    # K_k - K_{k-1} comparable to K_k^2, per side (the k = 0 pair straddles
    # the symmetry center where K flips sign; see the crossing section)
    # squares in this report are np.float_power, bitwise Python's x ** 2
    # (C pow); numpy's K * K differs from it in the last bit for a few K
    same_side = ks[ks != 0]
    steps = seqs.K(same_side) - seqs.K(same_side - 1)
    sq = np.float_power(seqs.K(same_side), 2.0)
    ratio = steps / sq
    est["ratio_step"] = {
        "min": float(ratio.min()), "max": float(ratio.max()),
        "all_positive": bool(np.all(steps > 0)),
        "pass": bool(np.all(steps > 0)
                     and tol["ratio_step_lo"] <= ratio.min()
                     and ratio.max() <= tol["ratio_step_hi"]),
    }

    # length formula identity: ell_k (|k|+C) log(|k|+C)^(1+delta) == a_C
    ident = ell * (np.abs(ks) + C) * np.log(np.abs(ks) + C) ** (1.0 + params.delta)
    est["length_formula"] = {
        "a_C": seqs.a_C,
        "max_rel_dev": float(np.max(np.abs(ident / seqs.a_C - 1.0))),
        "pass": bool(np.max(np.abs(ident / seqs.a_C - 1.0)) <= 1e-12),
    }

    # K_k^2 / ell_k decays along the tail
    q = K**2 / ell
    tail = q[np.abs(ks) >= M // 2]
    headmax = float(q[np.abs(ks) <= M // 2].max())
    est["square_over_length"] = {
        "at_half": float(q[ks == M // 2][0]),
        "at_end": float(q[ks == M][0]),
        "tail_monotone_decay": bool(
            np.all(np.diff(q[ks >= M // 2]) < 0) and np.all(np.diff(q[ks <= -M // 2]) > 0)),
        "pass": bool(q[ks == M][0] < q[ks == M // 2][0]
                     and float(tail.max()) <= headmax),
    }

    # m_{k} - 2 comparable to K_{k-1}^2 away from the crossing
    m_ks = ks[(ks > -M) & (ks != 0) & (ks != 1)]
    mdev = np.abs(seqs.m(m_ks) - 2.0)
    msq = np.float_power(seqs.K(m_ks - 1), 2.0)
    est["m_near_two"] = {
        "max_ratio": float((mdev / msq).max()),
        "max_dev": float(mdev.max()),
        "pass": bool((mdev / msq).max() <= tol["m_slack"]),
    }
    # the exact identity m_{k+1} - 2 - (K_{k+1} - K_k) = K_k^2/(1+K_k)
    all_k = ks[:-1]
    lhs = seqs.m(all_k + 1) - 2.0 - (seqs.K(all_k + 1) - seqs.K(all_k))
    rhs = np.float_power(seqs.K(all_k), 2.0) / (1.0 + seqs.K(all_k))
    est["m_identity"] = {
        "max_abs_dev": float(np.max(np.abs(lhs - rhs))),
        "pass": bool(np.max(np.abs(lhs - rhs)) <= 1e-14),
    }

    # beta bounds (forward) and alpha bounds (backward)
    n = np.arange(1, M + 1)
    bn = seqs.beta(n)
    est["beta_forward"] = {
        "max_scaled": float(np.max(bn * (n + C))),
        "min_over_K": float(np.min(bn - seqs.K(n))),
        "pass": bool(np.max(bn * (n + C)) <= params.bigB
                     and np.all(bn >= seqs.K(n))),
    }
    an = seqs.alpha(-np.arange(0, M + 1))
    est["alpha_backward"] = {
        "max_scaled": float(np.max(-an * (np.arange(0, M + 1) + C))),
        "pass": bool(np.all(an < 0.0)
                     and np.max(-an * (np.arange(0, M + 1) + C)) <= params.bigB),
    }

    # sign pattern and recurrence residual
    est["sign_pattern"] = {
        "pass": bool(np.all(seqs.alpha(np.arange(1, M + 1)) > 0.0)
                     and np.all(seqs.alpha(-np.arange(0, M + 1)) < 0.0)),
    }
    res = recurrence_residuals(seqs)
    est["recurrence_residual"] = {
        "max": float(res.max()),
        "pass": bool(res.max() <= tol["recurrence_residual"]),
    }

    # a posteriori constant of the assumption |alpha_k| <= A |K_k|
    a_over_k = np.abs(seqs.alpha(ks)) / np.abs(K)
    est["alpha_over_K"] = {"A": float(a_over_k.max()),
                           "pass": bool(np.isfinite(a_over_k.max()))}

    # crossing diagnostics: the one index where the two-sided estimates fail
    K0, Km1 = float(seqs.K(0)), float(seqs.K(-1))
    report["crossing"] = {
        "K_step_at_0": K0 - Km1,
        "m0_minus_2": float(seqs.m(0)) - 2.0,
        "identity_m0_2K0_dev": abs(float(seqs.m(0)) - 2.0 - 2.0 * K0),
        "identity_pass": bool(abs(float(seqs.m(0)) - 2.0 - 2.0 * K0) <= 1e-14),
    }
    report["pass"] = bool(all(v.get("pass", True) for v in est.values())
                          and report["crossing"]["identity_pass"])
    return report


def dump_sequences_csv(seqs: GapSequences, path) -> None:
    """Sequence dump with columns (k, ell, K, m, alpha, beta)."""
    ks = np.arange(-seqs.M, seqs.M + 1)
    cols = (seqs.ell(ks), seqs.K(ks), seqs.m(ks), seqs.alpha(ks), seqs.beta(ks))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "ell", "K", "m", "alpha", "beta"])
        # csv writes Python floats by repr, which round-trips
        w.writerows(zip(ks.tolist(), *(c.tolist() for c in cols)))
