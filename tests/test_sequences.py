import dataclasses
import math

import numpy as np
import pytest

from denjoy_twist.profiles import profile_eval
from denjoy_twist.sequences import (ConstructionError, GapSequences, SeqParams,
                                    build_sequences, dump_sequences_csv,
                                    normalizer, recurrence_residuals,
                                    seed_alphas, sweep_alphas,
                                    verify_sequence_estimates)

# frozen from the independent summation oracle (|k| <= 1e7 plus tail
# integral) for delta = 0.5, C = 100; see test_normalizer_against_oracle
A_C_REFERENCE = 0.5364908630678048
BETA5_REFERENCE = -0.005458383626669392


def test_length_symmetry_and_formula(desk):
    seqs = desk.seqs
    assert float(seqs.ell(5)) == float(seqs.ell(-5))
    lhs = float(seqs.ell(0)) * 100.0 * math.log(100.0) ** 1.5 / seqs.a_C
    assert abs(lhs - 1.0) <= 1e-14


def test_normalizer_against_oracle(desk):
    # independent brute-force summation to |k| <= 1e6 with integral tail
    delta, C = 0.5, 100.0
    head = 10**6
    ks = np.arange(1, head + 1, dtype=float)
    terms = 1.0 / ((ks + C) * np.log(ks + C) ** (1.0 + delta))
    s = 1.0 / (C * math.log(C) ** 1.5) + 2.0 * float(np.sum(terms))
    x0 = head + 1 + C
    tail = 1.0 / (delta * math.log(x0) ** delta) + 0.5 / (x0 * math.log(x0) ** 1.5)
    oracle = 1.0 / (s + 2.0 * tail)
    assert abs(oracle - A_C_REFERENCE) <= 1e-13
    assert abs(desk.seqs.a_C - oracle) / oracle <= 1e-10


# a_C bit for bit: the head's np.sum, the scalar terms and the tail keep
# their arithmetic
NORMALIZER_HEX = {
    (0.5, 100.0): "0x1.12aeee2ef5444p-1",
    (0.01, 100.0): "0x1.4cb9006327a5dp-8",
    (2.0, 15.0): "0x1.d5137e160dfc8p+2",
    (0.1, 10.0): "0x1.bd34085f7c5ebp-5",
    (5.0, 1e4): "0x1.43a137c5d6f9ep+17",
    (0.5, 12.345678901): "0x1.95c6e2fdfa8a0p-2",
}


@pytest.mark.parametrize("delta, C", sorted(NORMALIZER_HEX))
def test_normalizer_bits_pinned(delta, C):
    assert float(normalizer(delta, C)).hex() == NORMALIZER_HEX[delta, C]


def test_normalizer_head_working_set(traced_peak):
    # the 4096-term head is one array of its terms (32 KB) and the tail is
    # scalar: no working set grows with M or with the head
    assert traced_peak(normalizer, 0.5, 100.0) <= 2 * 2**20


@pytest.mark.parametrize("delta", [0.01, 0.37, 0.5, 2.0, 13.7])
@pytest.mark.parametrize("C", [10.0, 12.345678901, 100.0, 1e4])
def test_normalizer_within_16_ulp_of_mpmath(delta, C):
    # the bound counts one ulp per level of a pairwise sum of 2**12 head
    # terms and 4 ulp for the terms, the tail and the reciprocal; it is not
    # fitted to the 3.9 ulp measured. Imported here, so that without mpmath
    # these cases fail and the rest of the module runs
    import mp_oracle
    exact = mp_oracle.a_C(delta, C)
    ulp = math.ulp(float(exact))
    assert abs(float(normalizer(delta, C)) - exact) <= 16 * ulp


def test_divergent_sum_rejected():
    with pytest.raises(ValueError):
        normalizer(-1.0, 100.0)
    with pytest.raises(ValueError):
        build_sequences(SeqParams(delta=-1.0))


def test_ratio_signs(desk):
    seqs = desk.seqs
    n = np.arange(1, seqs.M + 1)
    # lengths decrease along the positive side, so K_n < 0 there; mirrored
    # on the negative side
    assert np.all(seqs.K(n) < 0.0)
    assert np.all(seqs.K(-n) > 0.0)
    assert np.all(np.asarray(seqs.ell(n + 1)) < np.asarray(seqs.ell(n)))


def test_m_close_to_two_at_large_C(profiles):
    seqs = build_sequences(SeqParams(bigC=1e4, truncation_M=64))
    ks = [k for k in range(-63, 65) if k not in (0, 1)]
    mdev = max(abs(float(seqs.m(k)) - 2.0) for k in ks)
    ksq = max(float(seqs.K(k)) ** 2 for k in range(-64, 65))
    assert mdev <= 10.0 * ksq


def test_m_identity_exact(desk):
    # m_{k+1} - 2 - (K_{k+1} - K_k) = K_k^2 / (1 + K_k), pure algebra from
    # the definition of m
    seqs = desk.seqs
    for k in range(-seqs.M, seqs.M):
        lhs = float(seqs.m(k + 1)) - 2.0 - (float(seqs.K(k + 1)) - float(seqs.K(k)))
        rhs = float(seqs.K(k)) ** 2 / (1.0 + float(seqs.K(k)))
        assert abs(lhs - rhs) <= 1e-14


def test_crossing_identity(desk):
    # the mirror symmetry of the lengths makes m_0 - 2 = 2 K_0 exactly
    seqs = desk.seqs
    assert abs(float(seqs.m(0)) - 2.0 - 2.0 * float(seqs.K(0))) <= 1e-14


def test_seed_alpha_signs(desk):
    p = SeqParams()
    seqs = build_sequences(p)
    alpha1, alpha0, m1_adjusted = seed_alphas(float(seqs.K(0)), float(seqs.K(1)), p)
    assert alpha1 > 0.0 and alpha0 < 0.0
    assert abs(alpha1 - abs(float(seqs.K(1))) / 2.0) == 0.0
    # algebraic solution matches a bisection of the head relation
    K0 = float(seqs.K(0))
    f = lambda a0: 1.0 / (1.0 + K0 + a0) - (1.0 / (1.0 + K0) + alpha1)
    lo, hi = -0.5, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - alpha0) <= 1e-13
    assert abs(alpha0 - (-0.006274227808347965)) <= 1e-15


def test_zero_seed_fixed_point_exact(desk):
    # the difference-form sweeps from alpha1 = alpha0 = 0 reproduce K exactly
    seqs = desk.seqs
    alpha = sweep_alphas(seqs.K_arr.tolist(), seqs.M, 0.0, 0.0)
    beta = seqs.K_arr[1:] + alpha
    assert not alpha.any()
    assert float(np.max(np.abs(beta - seqs.K_arr[1:]))) == 0.0


def test_sign_pattern_and_regression(desk):
    seqs = desk.seqs
    n = np.arange(1, seqs.M + 1)
    assert np.all(seqs.alpha(n) > 0.0)
    assert np.all(seqs.alpha(-np.arange(0, seqs.M + 1)) < 0.0)
    assert abs(float(seqs.beta(5)) - BETA5_REFERENCE) <= 1e-15


def test_recurrence_residuals(desk):
    seqs = desk.seqs
    res = recurrence_residuals(seqs)
    assert float(res.max()) <= 1e-13
    # the per-k loop the array form replaced, as the bitwise reference
    ref = [abs(1.0 / (1.0 + float(seqs.beta(0))) + 1.0 + float(seqs.K(1))
               - seqs.m1_adjusted) if k == 0
           else abs(1.0 + float(seqs.beta(k + 1)) + 1.0 / (1.0 + float(seqs.beta(k)))
                    - float(seqs.m(k + 1)))
           for k in range(-seqs.M, seqs.M)]
    assert np.array_equal(res, ref)


def test_homeomorphism_condition(desk):
    assert np.all(1.0 + desk.seqs.beta(np.arange(-desk.seqs.M, desk.seqs.M + 1)) > 0.0)


def test_alpha_bounded_by_K(desk):
    seqs = desk.seqs
    ks = np.arange(-seqs.M, seqs.M + 1)
    A = float(np.max(np.abs(seqs.alpha(ks)) / np.abs(seqs.K(ks))))
    assert np.isfinite(A) and A < 10.0


def test_positivity_margin(desk, profiles):
    # 1 + psi stays positive: |K| sup(eta) + |alpha| sup(gamma) < 1
    seqs = desk.seqs
    t = np.linspace(0.0, 1.0, 20001)
    sup_eta = float(np.max(profile_eval(profiles.eta, t)))
    sup_gam = float(np.max(np.abs(profile_eval(profiles.gamma_plus, t))))
    ks = np.arange(-seqs.M, seqs.M + 1)
    margin = 1.0 - np.abs(seqs.K(ks)) * sup_eta - np.abs(seqs.alpha(ks)) * sup_gam
    assert float(margin.min()) > 0.0


def test_estimate_report(desk):
    rep = verify_sequence_estimates(desk.seqs)
    assert rep["pass"], rep
    e3 = rep["estimates"]["ratio_bound"]
    assert 0.5 <= e3["min"] and e3["max"] <= 5.0
    assert rep["estimates"]["beta_forward"]["max_scaled"] <= 10.0
    q = rep["estimates"]["square_over_length"]
    assert q["at_end"] < q["at_half"]
    assert rep["crossing"]["identity_pass"]


def test_estimates_equal_the_scalar_loops():
    # per-k Python-float loops as the bitwise reference for the reported
    # values, at the bench's build size
    params = SeqParams(truncation_M=4000)
    seqs = build_sequences(params)
    est = verify_sequence_estimates(seqs)["estimates"]
    M = seqs.M

    def K(k):
        return float(seqs.K(k))

    def m(k):
        return float(seqs.m(k))

    ratio = np.array([(K(k) - K(k - 1)) / K(k) ** 2 for k in range(-M, M + 1) if k != 0])
    assert (est["ratio_step"]["min"], est["ratio_step"]["max"]) == (ratio.min(), ratio.max())
    m_ks = [k for k in range(-M + 1, M + 1) if k not in (0, 1)]
    mdev = np.array([abs(m(k) - 2.0) for k in m_ks])
    assert est["m_near_two"]["max_dev"] == mdev.max()
    assert est["m_near_two"]["max_ratio"] == max(
        d / K(k - 1) ** 2 for d, k in zip(mdev, m_ks))
    dev = [abs(m(k + 1) - 2.0 - (K(k + 1) - K(k)) - K(k) ** 2 / (1.0 + K(k)))
           for k in range(-M, M)]
    assert est["m_identity"]["max_abs_dev"] == max(dev)


def test_seed_rejection():
    # too large, zero of either sign, and negative: each outside (0, bound];
    # positive but too small for 1/(1+K0) to resolve: alpha0 cancels to >= 0
    outside, unresolved = "outside the admissible range", "alpha0=.* is not negative"
    for seed, message in (("0.5", outside), ("0", outside), ("-0.0", outside),
                          ("-0.001", outside), ("1e-16", unresolved),
                          ("1e-30", unresolved), ("1e-300", unresolved)):
        with pytest.raises(ConstructionError, match=message):
            build_sequences(SeqParams(truncation_M=16,
                                      alpha1_policy=f"value:{seed}"))


@pytest.mark.parametrize("policy", ["zero", "half_K1_negated", "bogus"])
def test_unknown_policy_rejected(policy):
    with pytest.raises(ValueError, match="unknown alpha1 policy"):
        build_sequences(SeqParams(truncation_M=16, alpha1_policy=policy))


def test_nan_seed_rejected_by_name():
    # a NaN seed fails the admissibility test itself, not later as a
    # non-monotone map
    with pytest.raises(ConstructionError, match="seed alpha1=nan"):
        build_sequences(SeqParams(alpha1_policy="value:nan"))


def test_built_sequences_are_frozen(small):
    with pytest.raises(dataclasses.FrozenInstanceError):
        small.seqs.alpha1 = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        small.seqs.K_arr = None


def test_sequences_store_each_fact_once():
    # m, beta = K + alpha and the two seeds are formed from these columns
    assert [f.name for f in dataclasses.fields(GapSequences)] == [
        "params", "a_C", "ell_arr", "K_arr", "alpha_arr", "m1_adjusted",
        "residual_mass"]


def test_backward_sweep_failure_signalled():
    # an admissible seed under a huge B still pushes the backward iterates
    # onto the pole
    with pytest.raises(ConstructionError,
                       match=r"1 \+ beta_0 = 0\.000e\+00 is not positive"):
        build_sequences(SeqParams(bigB=1e20, alpha1_policy="value:9e17"))


def _reference_sweep_alphas(K: list, M: int, alpha1: float, alpha0: float):
    """sweep_alphas as it was written before it ran on Python floats: a put
    per index into two numpy arrays, beta stored as each alpha is."""
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


def _sweep_with_beta(K: list, M: int, alpha1: float, alpha0: float):
    """sweep_alphas with beta = K + alpha formed from what it returns."""
    alpha = sweep_alphas(K, M, alpha1, alpha0)
    return alpha, np.array(K[1:]) + alpha


def _sweep_outcome(sweep, *args):
    try:
        alpha, beta = sweep(*args)
    except ConstructionError as exc:
        return str(exc)
    return alpha.tobytes(), beta.tobytes()


@pytest.mark.parametrize("M", [16, 500, 4000])
@pytest.mark.parametrize("policy", ["half_K1", "value:0.001"])
def test_sweep_bitwise_equals_reference(M, policy):
    params = SeqParams(truncation_M=M, alpha1_policy=policy)
    seqs = build_sequences(params)
    K = seqs.K_arr.tolist()
    args = (K, M, seqs.alpha1, seqs.alpha0)
    assert _sweep_outcome(_sweep_with_beta, *args) == _sweep_outcome(
        _reference_sweep_alphas, *args)
    assert seqs.alpha_arr.tobytes() == _reference_sweep_alphas(*args)[0].tobytes()
    # the zero seeds, and seeds that break each of the sweeps' tests: the
    # same error, word for word, at the same k
    seeds = [(0.0, 0.0), (0.5, -0.3), (5.0, -0.5), (1e3, -0.9), (0.1, -2.0),
             (-2.0, 0.1), (0.1, 0.9), (-0.9, 0.9), (3.0, -0.99)]
    outcomes = set()
    for a1, a0 in seeds:
        got = _sweep_outcome(_sweep_with_beta, K, M, a1, a0)
        assert got == _sweep_outcome(_reference_sweep_alphas, K, M, a1, a0), (a1, a0)
        outcomes.add(got.split(" ")[0] if isinstance(got, str) else "ok")
    assert outcomes == {"ok", "1", "backward"}


@pytest.mark.parametrize("policy", ["half_K1", "value:1e-5"])
def test_sequences_independent_of_M(policy):
    # the truncation only decides how far the sequences are stored: over the
    # common range |k| <= 16 each of ell, K, alpha and beta is the same double
    ks = np.arange(-16, 17)
    words = set()
    for M in (16, 64, 256, 4000):
        seqs = build_sequences(SeqParams(truncation_M=M, alpha1_policy=policy))
        words.add(np.stack([seqs.ell(ks), seqs.K(ks), seqs.alpha(ks),
                            seqs.beta(ks)]).tobytes())
    assert len(words) == 1


def test_param_validation():
    with pytest.raises(ValueError):
        SeqParams(truncation_M=4).validate()
    with pytest.raises(ValueError):
        SeqParams(bigC=2.0).validate()
    with pytest.raises(ValueError):
        SeqParams(omega=1.5).validate()
    # NaN fails every comparison, so each check must be written to catch it
    for attr, name in (("delta", "delta"), ("bigC", "C"), ("bigB", "B")):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{name} must"):
                dataclasses.replace(SeqParams(), **{attr: bad}).validate()


def test_csv_dump(small, tmp_path):
    path = tmp_path / "seq.csv"
    dump_sequences_csv(small.seqs, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,ell,K,m,alpha,beta"
    assert len(lines) == 1 + 2 * small.seqs.M + 1
    seqs = small.seqs
    for k, line in zip(range(-seqs.M, seqs.M + 1), lines[1:]):
        cols = (seqs.ell, seqs.K, seqs.m, seqs.alpha, seqs.beta)
        assert line == ",".join([str(k)] + [repr(float(c(k))) for c in cols])
