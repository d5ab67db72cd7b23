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

import math
from dataclasses import dataclass

import numpy as np

from .reporting import BOUNDS, write_csv_blocks


class ConstructionError(RuntimeError):
    """A sweep of the recurrence left its admissible domain."""


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

    Stored: ell on [-(M+1), M+1], K on [-(M+1), M] and alpha on [-M, M];
    m (on [-M, M]) and beta = K + alpha are formed from them where read.
    residual_mass is 1 minus the total length of the stored gaps |k| <= M.
    Made whole by build_sequences.
    """

    params: SeqParams
    a_C: float
    ell_arr: np.ndarray
    K_arr: np.ndarray
    alpha_arr: np.ndarray
    m1_adjusted: float
    residual_mass: float

    @property
    def M(self) -> int:
        return self.params.truncation_M

    # the seeds, read from the alpha column
    alpha0 = property(lambda self: float(self.alpha_arr[self.M]))
    alpha1 = property(lambda self: float(self.alpha_arr[self.M + 1]))

    def ell(self, k):
        return self.ell_arr[np.asarray(k) + self.M + 1]

    def K(self, k):
        return self.K_arr[np.asarray(k) + self.M + 1]

    def m(self, k):
        k = np.asarray(k)
        return 1.0 + self.K(k) + 1.0 / (1.0 + self.K(k - 1))

    def alpha(self, k):
        return self.alpha_arr[np.asarray(k) + self.M]

    def beta(self, k):
        return self.K(k) + self.alpha(k)


def _term(x, C, delta):
    """1 / ((|k|+C) log(|k|+C)^(1+delta)) at x = |k|: a float array, or a
    float, kept in scalar arithmetic (numpy's array pow can differ in the
    last bit)."""
    x = x + C
    return 1.0 / (x * np.log(x) ** (1.0 + delta))


# the normalizer sums the terms at |k| <= _HEAD directly
_HEAD = 4096


def normalizer(delta: float, bigC: float) -> float:
    """a_C with the full infinite sum equal to 1.

    The terms at |k| <= _HEAD by one np.sum, the rest by Euler-Maclaurin at
    x = _HEAD + 1 + C: the integral 1/(delta log(x)^delta), half the first
    term, and the B_2 correction -f'(x)/12 = (log x + 1 + delta) /
    (12 x^2 log(x)^(2+delta)). The next correction, B_4/4! f'''(x), is below
    3e-17 of the sum, a third of an ulp, for every accepted (delta, C); it
    peaks near the overflow threshold of delta at C ~ 3e4.
    """
    if delta <= 0:
        raise ValueError("delta must be positive (divergent sum)")
    x = _HEAD + 1 + bigC
    try:
        with np.errstate(over="raise"):
            s_head = _term(0.0, bigC, delta) + 2.0 * float(
                np.sum(_term(np.arange(1.0, _HEAD + 1.0), bigC, delta)))
            log_x = math.log(x)
            tail = (1.0 / (delta * log_x ** delta) + 0.5 * _term(_HEAD + 1.0, bigC, delta)
                    + (log_x + 1.0 + delta) / (12.0 * x * x * log_x ** (2.0 + delta)))
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
    """alpha on [-M, M] from the seeds at k = 1 and k = 0, with K_k at
    K[k + M + 1].

    The sweeps run the difference form of the recurrence: with d = alpha_k,
      forward   alpha_{k+1} = d / ((1+K_k)(1+beta_k)),
      backward  alpha_{k-1} = d (1+K_{k-1})^2 / (1 - d (1+K_{k-1})),
    algebraically identical to 1+beta_{k+1} + 1/(1+beta_k) = m_{k+1} but
    exact at the fixed point beta == K (zero seeds) and sign-preserving in
    floating point. The loop runs on Python floats, checking 1 + beta_k > 0
    at each k as it is reached.
    """
    def not_positive(k, b):
        return ConstructionError(f"1 + beta_{k} = {1.0 + b:.3e} is not positive; "
                                 "C too small or seed too large")

    alpha = [0.0] * (2 * M + 1)
    for k, a in ((1, alpha1), (0, alpha0)):
        if 1.0 + (K[k + M + 1] + a) <= 0.0:
            raise not_positive(k, K[k + M + 1] + a)
        alpha[k + M] = a
    a, b = alpha1, K[M + 2] + alpha1   # alpha_k and beta_k from k = 1 up
    for k in range(1, M):
        a = a / ((1.0 + K[k + M + 1]) * (1.0 + b))
        b = K[k + M + 2] + a
        if 1.0 + b <= 0.0:
            raise not_positive(k + 1, b)
        alpha[k + M + 1] = a
    a = alpha0   # alpha_k from k = 0 down
    for k in range(0, -M, -1):
        Km1 = K[k + M]
        denom = 1.0 - a * (1.0 + Km1)
        if denom <= 0.0:
            raise ConstructionError(
                f"backward sweep broke at k={k-1}: m - (1+beta) hit "
                "a nonpositive value; C too small or seed too large")
        a = a * (1.0 + Km1) ** 2 / denom
        if 1.0 + (Km1 + a) <= 0.0:
            raise not_positive(k - 1, Km1 + a)
        alpha[k + M - 1] = a
    return np.array(alpha)


def build_sequences(params: SeqParams) -> GapSequences:
    """The full pipeline: lengths, ratios, seeds, both sweeps."""
    params.validate()
    M, C, delta = params.truncation_M, params.bigC, params.delta
    a_C = normalizer(delta, C)
    try:   # the normalizer's head reaches |k| = _HEAD only
        with np.errstate(over="raise"):
            ell = a_C * _term(np.abs(np.arange(-(M + 1), M + 2, dtype=float)), C, delta)
    except FloatingPointError:
        raise ValueError(f"delta={delta:g} is too large at M={M}: "
                         "the gap lengths overflow") from None
    K_arr = ell[1:] / ell[:-1] - 1.0
    K = K_arr.tolist()   # K_k is K[k + M + 1]
    alpha1, alpha0, m1_adjusted = seed_alphas(K[M + 1], K[M + 2], params)
    return GapSequences(params, a_C, ell, K_arr, sweep_alphas(K, M, alpha1, alpha0),
                        m1_adjusted, 1.0 - float(np.sum(ell[1:-1])))


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

def recurrence_residuals(seqs: GapSequences) -> np.ndarray:
    """|1+beta_{k+1} + 1/(1+beta_k) - m_{k+1}| for every stored relation.

    The k = 0 link is the head relation and is checked against the adjusted
    m1 in the form 1/(1+beta_0) + 1 + K_1 = m1_adjusted.
    """
    M = seqs.M
    beta = seqs.beta(np.arange(-M, M + 1))
    res = np.abs(1.0 + beta[1:] + 1.0 / (1.0 + beta[:-1])
                 - seqs.m(np.arange(-M + 1, M + 1)))
    res[M] = abs(1.0 / (1.0 + float(beta[M])) + 1.0 + float(seqs.K(1)) - seqs.m1_adjusted)
    return res


def verify_sequence_estimates(seqs: GapSequences) -> dict:
    """Empirical constants and pass flags for the estimate chain.

    Each entry reports the measured best constants, each computed once, and
    judges its pass flag from them against its rows of the bound table
    (reporting.BOUNDS): the slack windows and the identity bounds. The
    crossing pairs straddling k = 0 (where the |k|-symmetric length formula
    flips the sign of K) are excluded from the two-sided difference estimates
    and reported on their own: there the estimates provably degrade to O(1/C)
    regardless of truncation, while the exact identity m_0 - 2 = 2 K_0 takes
    over.
    """
    params = seqs.params
    M, C, B, half = seqs.M, params.bigC, params.bigB, seqs.M // 2
    # each array is over k in [-M, M], at index k + M
    ks = np.arange(-M, M + 1)
    abs_k = np.abs(ks)
    x = abs_k + C
    K, K_prev = seqs.K_arr[1:], seqs.K_arr[:-1]
    dK = K - K_prev
    m = seqs.m(ks)
    ell, alpha = seqs.ell_arr[1:-1], seqs.alpha_arr

    def window(values, name, ok=True):
        lo, hi = float(values.min()), float(values.max())
        return {"min": lo, "max": hi,
                "pass": ok and BOUNDS[name + "_lo"] <= lo and hi <= BOUNDS[name + "_hi"]}

    est = {}
    # |K_k| (|k|+C) bounded above and below
    est["ratio_bound"] = window(np.abs(K) * x, "ratio_bound")

    # K_k - K_{k-1} comparable to K_k^2, per side (the k = 0 pair straddles
    # the symmetry center where K flips sign; see the crossing section)
    # squares in this report are np.float_power, bitwise Python's x ** 2
    # (C pow); numpy's K * K differs from it in the last bit for a few K
    same_side = ks != 0
    steps = dK[same_side]
    positive = bool(np.all(steps > 0))
    est["ratio_step"] = dict(
        window(steps / np.float_power(K[same_side], 2.0), "ratio_step", positive),
        all_positive=positive)

    # length formula identity: ell_k (|k|+C) log(|k|+C)^(1+delta) == a_C
    ident = ell * x * np.log(x) ** (1.0 + params.delta)
    dev = float(np.max(np.abs(ident / seqs.a_C - 1.0)))
    est["length_formula"] = {"a_C": seqs.a_C, "max_rel_dev": dev,
                             "pass": dev <= BOUNDS["length_formula"]}

    # K_k^2 / ell_k decays along the tail
    q = K**2 / ell
    at_half, at_end = float(q[M + half]), float(q[-1])
    est["square_over_length"] = {
        "at_half": at_half, "at_end": at_end,
        "tail_monotone_decay": bool(
            np.all(np.diff(q[M + half:]) < 0) and np.all(np.diff(q[ks <= -M // 2]) > 0)),
        "pass": bool(at_end < at_half
                     and q[abs_k >= half].max() <= q[abs_k <= half].max()),
    }

    # m_{k} - 2 comparable to K_{k-1}^2 away from the crossing
    off = (ks > -M) & (ks != 0) & (ks != 1)
    mdev = np.abs(m[off] - 2.0)
    max_ratio = float((mdev / np.float_power(K_prev[off], 2.0)).max())
    est["m_near_two"] = {"max_ratio": max_ratio, "max_dev": float(mdev.max()),
                         "pass": max_ratio <= BOUNDS["m_slack"]}
    # the exact identity m_{k+1} - 2 - (K_{k+1} - K_k) = K_k^2/(1+K_k)
    dev = float(np.max(np.abs(m[1:] - 2.0 - dK[1:]
                              - np.float_power(K[:-1], 2.0) / (1.0 + K[:-1]))))
    est["m_identity"] = {"max_abs_dev": dev, "pass": dev <= BOUNDS["m_identity"]}

    # beta bounds (forward) and alpha bounds (backward)
    bn = seqs.beta(ks[M + 1:])
    max_scaled, min_over_K = float(np.max(bn * x[M + 1:])), float(np.min(bn - K[M + 1:]))
    est["beta_forward"] = {"max_scaled": max_scaled, "min_over_K": min_over_K,
                           "pass": max_scaled <= B and min_over_K >= 0.0}
    negative = bool(np.all(alpha[:M + 1] < 0.0))
    max_scaled = float(np.max(-alpha[:M + 1] * x[:M + 1]))
    est["alpha_backward"] = {"max_scaled": max_scaled,
                             "pass": negative and max_scaled <= B}

    # sign pattern and recurrence residual
    est["sign_pattern"] = {"pass": negative and bool(np.all(alpha[M + 1:] > 0.0))}
    res = float(recurrence_residuals(seqs).max())
    est["recurrence_residual"] = {"max": res, "pass": res <= BOUNDS["recurrence_residual"]}

    # a posteriori constant of the assumption |alpha_k| <= A |K_k|
    A = float((np.abs(alpha) / np.abs(K)).max())
    est["alpha_over_K"] = {"A": A, "pass": math.isfinite(A)}

    # crossing diagnostics: the one index where the two-sided estimates fail
    m0_minus_2 = float(m[M]) - 2.0
    dev = abs(m0_minus_2 - 2.0 * float(K[M]))
    crossing = {"K_step_at_0": float(dK[M]), "m0_minus_2": m0_minus_2,
                "identity_m0_2K0_dev": dev,
                "identity_pass": dev <= BOUNDS["crossing_identity"]}
    return {"estimates": est, "crossing": crossing,
            "pass": all(v["pass"] for v in est.values()) and crossing["identity_pass"]}


def dump_sequences_csv(seqs: GapSequences, path) -> None:
    """Sequence dump with columns (k, ell, K, m, alpha, beta)."""
    def block(lo, hi):
        ks = np.arange(lo - seqs.M, hi - seqs.M)
        return ks, seqs.ell(ks), seqs.K(ks), seqs.m(ks), seqs.alpha(ks), seqs.beta(ks)

    write_csv_blocks(path, ("k", "ell", "K", "m", "alpha", "beta"),
                     2 * seqs.M + 1, block)
