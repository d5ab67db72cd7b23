"""Acceptance suite at the desk-scale default configuration.

One test per criterion, each printing a pass/fail line with the measured
value and its pinned tolerance (run with -s to see every line). The builds
are shared through session fixtures; everything is deterministic.
"""

import json

import numpy as np
import pytest

from denjoy_twist.circle_map import (derivative_jump_scan, derivative_jump_table,
                                     rotation_number_estimate)
from denjoy_twist.cli import main as cli_main
from denjoy_twist.layout import SemiConjugacy
from denjoy_twist.reporting import deterministic_dump
from denjoy_twist.sequences import (SeqParams, recurrence_residuals,
                                    sweep_alphas)
from denjoy_twist.twist_map import (base_segments, curve_side_check,
                                    manifold_iterate_check)

from conftest import Built


def _line(num, name, ok, measured, tol):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): "
          f"measured {measured}, tolerance {tol}")
    assert ok, f"criterion {num} ({name}): {measured} vs {tol}"


@pytest.fixture(scope="module")
def desk_big_C(profiles):
    """The same configuration rebuilt with C = 10^4 for criterion 7."""
    return Built(SeqParams(bigC=1e4), profiles)


def test_criterion_1_invariance(desk):
    rep = desk.system.verify_invariant_curve(10000, seed=101)
    _line(1, "invariant curve residual", rep["max_residual"] <= 1e-10,
          rep["max_residual"], 1e-10)


def test_criterion_2_rotation_number(desk):
    n = 100000
    worst = 0.0
    for x0 in (0.0, 0.37, 0.73):
        est = rotation_number_estimate(desk.g, x0, n)
        worst = max(worst, abs(est - desk.params.omega))
    _line(2, "rotation number gap", worst < 1.0 / n, worst, 1.0 / n)


def test_criterion_3_signs_bounds_residuals(desk):
    seqs = desk.seqs
    M, C = seqs.M, desk.params.bigC
    n = np.arange(1, M + 1)
    signs = bool(np.all(seqs.alpha(n) > 0.0)
                 and np.all(seqs.alpha(-np.arange(0, M + 1)) < 0.0))
    scaled = float(np.max(seqs.beta(n) * (n + C)))
    resid = float(recurrence_residuals(seqs).max())
    ok = signs and scaled <= 10.0 and resid <= 1e-13
    _line(3, "signs, beta bound, recurrence residual", ok,
          {"signs": signs, "beta_scaled_max": scaled, "residual": resid},
          {"beta_scaled_max": 10.0, "residual": 1e-13})


def test_criterion_4_zero_seed(desk):
    seqs = desk.seqs
    _, beta0 = sweep_alphas(seqs.K_arr.tolist(), seqs.M, 0.0, 0.0)
    drift = float(np.max(np.abs(beta0 - seqs.K_arr[1:])))
    _line(4, "zero-seed fixed point", drift <= 1e-12, drift, 1e-12)


def test_criterion_5_phi_linearity(desk):
    rep = desk.system.phi_linearity_check()
    ok = (rep["max_fit_deviation"] <= 1e-11
          and rep["max_slope_deviation"] <= 1e-10)
    _line(5, "phi linear on middle segments", ok,
          {"fit": rep["max_fit_deviation"], "slope": rep["max_slope_deviation"]},
          {"fit": 1e-11, "slope": 1e-10})


def test_criterion_6_manifolds(desk):
    mi = manifold_iterate_check(desk.system, 50)
    cs = curve_side_check(desk.system)
    mu1, gamma_mu1 = (float(a[0]) for a in base_segments(desk.system, [1])[:2])
    ok = (mi["max_image_distance"] <= 1e-10
          and mi["max_ratio_error"] <= 1e-10
          and cs["max_formula_dev"] <= 1e-12
          and cs["strict_sign_ok"] and cs["zone_below_curve"]
          and abs(float(desk.system.curve_height(mu1)) - gamma_mu1) <= 1e-12)
    _line(6, "segment dynamics and curve side", ok,
          {"image": mi["max_image_distance"], "ratio": mi["max_ratio_error"],
           "side_formula": cs["max_formula_dev"],
           "strictly_under": cs["strict_sign_ok"]},
          {"image": 1e-10, "ratio": 1e-10, "side_formula": 1e-12})


def test_criterion_7_regularity(desk, desk_big_C):
    rep = desk.system.second_derivative_scan()
    summ = rep.summary()
    rep2 = desk_big_C.system.second_derivative_scan()
    summ2 = rep2.summary()
    ratio_off = summ["sup_off_crossing"] / summ2["sup_off_crossing"]
    ratio_all = summ["sup_all"] / summ2["sup_all"]
    # The large-C comparison is taken over the gaps governed by the
    # difference estimates. The two gaps pairing indices across the symmetry
    # center (k = 0: K flips sign there; k = 1: the seed jump of alpha) have
    # second-derivative suprema that do not shrink with C -- the measured
    # all-gaps ratio below makes that visible -- so they are excluded from
    # the asserted factor and reported alongside.
    print(f"        criterion 7 detail: sup_all {summ['sup_all']:.4g} -> "
          f"{summ2['sup_all']:.4g} (ratio {ratio_all:.3g}); off-crossing "
          f"{summ['sup_off_crossing']:.4g} -> {summ2['sup_off_crossing']:.4g} "
          f"(ratio {ratio_off:.3g})")
    ok = (summ["tail_below_head"]
          and summ["max_rel_fd_dev"] <= 1e-6
          and ratio_off >= 5.0
          and 40.0 <= ratio_off <= 110.0)  # frozen regression window (~71.7)
    _line(7, "second-derivative decay", ok,
          {"tail_below_head": summ["tail_below_head"],
           "rel_fd": summ["max_rel_fd_dev"], "C_ratio_off_crossing": ratio_off,
           "C_ratio_all_gaps": ratio_all},
          {"rel_fd": 1e-6, "C_ratio_off_crossing": ">=5 and in [40,110]"})


def test_criterion_8_derivative_jumps(desk):
    g, seqs = desk.g, desk.seqs
    worst = 0.0
    for k, _l, _r, jump in derivative_jump_table(g):
        expected = float(seqs.alpha(k)) if k >= 1 else -float(seqs.alpha(k))
        worst = max(worst, abs(jump - expected))
    scan = derivative_jump_scan(g, 10000, seed=108)
    min_jump = min(abs(float(seqs.alpha(k))) for k in range(-g.M, g.M))
    only = scan["max_offmid_jump"] < 1e-6 < min_jump
    ok = worst <= 1e-14 and only
    _line(8, "derivative jumps", ok,
          {"jump_match": worst, "spurious_scan": scan["max_offmid_jump"],
           "smallest_true_jump": min_jump},
          {"jump_match": 1e-14, "spurious_scan": 1e-6})


def test_criterion_9_structural(desk):
    sysm = desk.system
    rt = sysm.roundtrip_check(10000, seed=109)
    det = sysm.det_check(1000, seed=110)
    vt = sysm.vertical_translation_check(seed=111)
    j = SemiConjugacy(desk.table)
    worst_j = 0.0
    for k in range(-desk.table.M, desk.table.M):
        x = float(desk.table.mu_of(k))
        d = j.eval(desk.g.eval(x)) - (j.eval(x) + desk.params.omega)
        worst_j = max(worst_j, abs(d - round(d)))
    ok = (rt <= 1e-12 and det <= 1e-9 and vt["max_theta_dev"] == 0.0
          and vt["max_r_dev"] <= 5e-16 and worst_j <= 1e-10)
    _line(9, "structural suite", ok,
          {"roundtrip": rt, "det": det, "translate_theta": vt["max_theta_dev"],
           "translate_r": vt["max_r_dev"], "semiconjugacy": worst_j},
          {"roundtrip": 1e-12, "det": 1e-9, "translate_theta": 0.0,
           "translate_r": 5e-16, "semiconjugacy": 1e-10})


def test_criterion_10_determinism(tmp_path):
    # full desk build through the CLI twice; the deterministic report parts
    # must agree byte for byte (sampling counts reduced to keep the double
    # run quick; determinism is independent of them)
    args = ["verify", "--set", "verify.rotation_n=2000",
            "--set", "verify.invariance_samples=2000",
            "--set", "verify.roundtrip_samples=1000",
            "--set", "verify.det_samples=200",
            "--set", "verify.jump_scan_samples=1000"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    a = json.loads((tmp_path / "a" / "verify.json").read_text())
    b = json.loads((tmp_path / "b" / "verify.json").read_text())
    same = deterministic_dump(a) == deterministic_dump(b)
    _line(10, "deterministic reports", same and a["pass"],
          {"identical": same, "verify_pass": a["pass"]}, True)
