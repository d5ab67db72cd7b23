"""Command-line surface: build the system, run verification suites, emit data.

Subcommands: build | verify | regularity | portrait | manifolds | diffusion,
each driven by one config file plus --set overrides. Exit codes: 0 all checks
pass, 1 a check failed, 2 a construction, configuration or output error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import os
import sys

import numpy as np

from .circle_map import (RigidRotation, build_circle_homeo, derivative_jump_scan,
                         derivative_jump_table, rotation_number_estimate,
                         wandering_interval_check)
from .config import ConfigError, RunConfig, load_config, parse_float_list
from .layout import SemiConjugacy, build_gap_table, dump_gap_table_csv, points
from .profiles import CalibrationError, calibrate_profiles, export_profile_csv
from .reporting import BOUNDS, ReportBuilder, fork_map, timed, write_report
from .sequences import (ConstructionError, build_sequences, dump_sequences_csv,
                        sweep_alphas, verify_sequence_estimates)
from .twist_map import (build_twist_system, curve_side_check, diffusion_probe,
                        dump_json, dump_phase_portrait_csv, dump_segments_csv,
                        manifold_iterate_check, orbit_convergence_check)


def build_full_system(seq_params, profiles, swap_gamma, timings=None):
    """Sequences, gap table, g and the twist system on calibrated profiles;
    the wall time of each layer goes to timings, when given."""
    timings = {} if timings is None else timings
    with timed(timings, "sequences"):
        seqs = build_sequences(seq_params)
    with timed(timings, "layout"):
        table = build_gap_table(seqs)
    with timed(timings, "piece_table"):
        g = build_circle_homeo(table, seqs, profiles, swap_gamma=swap_gamma)
    with timed(timings, "twist_system"):
        system = build_twist_system(g, table, seqs)
    return seqs, table, g, system


class BuiltSystem:
    """Everything a command body needs, built once per invocation; timings
    holds the wall time of each layer of the full build."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.timings = {}
        p = cfg["params"]
        self.rigid = p["mode"] == "rigid_rotation"
        if self.rigid:
            self.profiles = None
            self.seqs = None
            self.table = None
            self.g = RigidRotation(p["omega"])
            self.system = build_twist_system(self.g)
        else:
            with timed(self.timings, "profiles"):
                self.profiles = calibrate_profiles()
            self.seqs, self.table, self.g, self.system = build_full_system(
                cfg.seq_params, self.profiles, p["swap_gamma"], self.timings)

    def summary(self) -> dict:
        if self.rigid:
            return {"mode": "rigid_rotation", "omega": self.cfg["params"]["omega"]}
        return {
            "mode": "full",
            "a_C": self.seqs.a_C,
            "residual_mass": self.seqs.residual_mass,
            "alpha1": self.seqs.alpha1,
            "alpha0": self.seqs.alpha0,
            "m1_adjusted": self.seqs.m1_adjusted,
            "n_pieces": self.g.n_pieces,
            "patch_widths": list(self.g.patch_widths),
        }


def _outdir(cfg: RunConfig, override=None) -> str:
    d = override or cfg["output"]["directory"]
    try:
        os.makedirs(d, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{'--out' if override else 'output.directory'}: cannot "
                          f"make the directory {d!r}: {exc.strerror}") from None
    return d


def _build(built: BuiltSystem, rb: ReportBuilder, outdir: str) -> None:
    if not built.rigid:
        if built.cfg["output"]["write_csv"]:
            fork_map(lambda job: job[0](job[1], os.path.join(outdir, job[2])), (
                (dump_sequences_csv, built.seqs, "sequences.csv"),
                (dump_gap_table_csv, built.table, "gaps.csv"),
                (export_profile_csv, built.profiles, "profiles.csv")))
        dump_json(_estimate_checks(built, rb), os.path.join(outdir, "estimates.json"))
    failed = [entry["name"] for entry in rb.checks if not entry["pass"]]
    print(f"build: FAIL ({', '.join(failed)})" if failed else "build: PASS")


def _estimate_checks(built: BuiltSystem, rb: ReportBuilder) -> dict:
    """The sequence-estimate checks of build and verify; returns the
    estimates."""
    est = verify_sequence_estimates(built.seqs)
    rb.check_true("sequence_estimates", est["pass"], detail=est["estimates"])
    rb.check_true("sign_pattern", est["estimates"]["sign_pattern"]["pass"])
    rb.check_leq("beta_scaled_bound",
                 est["estimates"]["beta_forward"]["max_scaled"],
                 built.cfg["params"]["B"])
    rb.check_leq("recurrence_residual",
                 est["estimates"]["recurrence_residual"]["max"])
    return est


def _manifold_checks(built: BuiltSystem, rb: ReportBuilder) -> int:
    """The segment, curve-side, orbit-convergence and base-orbit checks of
    verify and manifolds, over the segments |k| <= manifolds.k_max that the
    stored range holds; returns that k_max."""
    sysm, tb = built.system, built.table
    k_max = min(built.cfg["manifolds"]["k_max"], tb.M - 2)
    mi = manifold_iterate_check(sysm, k_max)
    rb.check_leq("manifold_image_distance", mi["max_image_distance"])
    rb.check_leq("manifold_ratio_error", mi["max_ratio_error"])
    cs = curve_side_check(sysm)
    rb.check_leq("curve_side_formula", cs["max_formula_dev"])
    rb.check_true("curve_side_strict", cs["strict_sign_ok"],
                  detail={"zone_below_curve": cs["zone_below_curve"]})
    # an off-base point halfway along the first stable segment's half-width
    oc = orbit_convergence_check(sysm, float(tb.ell_of(1)) / 16.0,
                                 min(20, tb.M - 1))
    rb.check_leq("orbit_convergence_rel", oc["max_rel_ratio_error"])
    rb.check_leq("manifold_base_orbit", mi["max_base_orbit_error"])
    return k_max


def _verify(built: BuiltSystem, rb: ReportBuilder, outdir: str) -> None:
    """verify's checks in independent blocks, each on a builder of its own,
    shared out by fork_map; the entries and wall time of each block are
    replayed into rb in block order, so the report is one process's. The
    rigid rotation runs the blocks that need no construction, after the two
    checks only phi = 0 allows."""
    cfg = built.cfg
    sysm, seqs, g, table = built.system, built.seqs, built.g, built.table
    v, p = cfg["verify"], cfg["params"]
    seed = p["seed"]

    def rigid(rb):
        xs = points(1000, seed)
        rb.check_leq("phi_identically_zero", float(np.max(np.abs(sysm.phi(xs)))))
        rb.check_leq("rotation_number_exact",
                     abs(rotation_number_estimate(g, 0.25, 1000) - p["omega"]))

    def invariance(rb):
        inv = sysm.verify_invariant_curve(v["invariance_samples"], seed=seed)
        rb.check_leq("invariance_residual", inv["max_residual"])
        rb.check_leq("invariance_residual_translated", inv["max_residual_translated"])

    def rotation(rb):
        n = v["rotation_n"]
        worst = 0.0
        for x0 in parse_float_list(v["rotation_starts"]):
            worst = max(worst, abs(rotation_number_estimate(g, x0, n) - p["omega"]))
        rb.check_leq("rotation_number_gap_times_n", worst * n, detail={"n": n})

    def estimates(rb):
        _estimate_checks(built, rb)
        # zero-seed oracle: sweeping from alpha1 = alpha0 = 0 reproduces K
        beta0 = seqs.K_arr[1:] + sweep_alphas(seqs.K_arr.tolist(), seqs.M, 0.0, 0.0)
        rb.check_leq("zero_seed_fixed_point",
                     float(np.max(np.abs(beta0 - seqs.K_arr[1:]))))

    def linearity(rb):
        lin = sysm.phi_linearity_check()
        rb.check_leq("phi_fit_deviation", lin["max_fit_deviation"])
        rb.check_leq("phi_slope_deviation", lin["max_slope_deviation"])
        rb.check_leq("phi_local_offset_k1", lin["local_offset_dev_k1"])

    def manifolds(rb):
        _manifold_checks(built, rb)

    def jumps(rb):
        *_, found = derivative_jump_table(g)
        expected = np.where(g.local.plus, g.local.alpha, -g.local.alpha)
        rb.check_leq("jump_match", float(np.max(np.abs(found - expected))))
        sc = derivative_jump_scan(g, v["jump_scan_samples"], seed=seed)
        rb.check_leq("jump_no_spurious", sc["max_offmid_jump"])

    def structural(rb):
        rb.check_leq("roundtrip", sysm.roundtrip_check(v["roundtrip_samples"], seed=seed))
        rb.check_leq("det_df", sysm.det_check(v["det_samples"], seed=seed))
        vt = sysm.vertical_translation_check(seed=seed)
        rb.check_leq("vertical_translate_theta", vt["max_theta_dev"])
        rb.check_leq("vertical_translate_r", vt["max_r_dev"])
        rb.check_leq("twist_positive", sysm.twist_check(seed=seed)["max_fd_dev"])
        rb.check_leq("phi_periodicity", sysm.periodicity_check(seed=seed))
        # the rigid rotation truncates no mass
        rb.check_leq("phi_mean", abs(sysm.mean_check()),
                     (0.0 if built.rigid else seqs.residual_mass)
                     + BOUNDS["mean_budget_extra"])

    def wandering(rb):
        j = SemiConjugacy(table)
        mu = table.mu_of(np.arange(-table.M, table.M))
        d = j.eval(g.lift_many(mu)) - (j.eval(mu) + p["omega"])
        rb.check_leq("semiconjugacy_midpoints", float(np.max(np.abs(d - np.round(d)))))
        wr = wandering_interval_check(g, min(50, table.M))
        rb.check_leq("wandering_forward", wr["max_endpoint_deviation_forward"])
        rb.check_leq("wandering_backward", wr["max_endpoint_deviation_backward"])
        rb.check_true("wandering_lengths_decreasing", wr["lengths_decreasing"])

    def run_block(block):
        block_rb = ReportBuilder({})
        with timed(block_rb.timings, block.__name__):
            block(block_rb)
        return block_rb.checks, block_rb.timings

    blocks = ((rigid, invariance, structural) if built.rigid else
              (invariance, rotation, estimates, linearity,
               manifolds, jumps, structural, wandering))
    for checks, timings in fork_map(run_block, blocks):
        for e in checks:
            rb.add_check(e["name"], e["measured"], e["tolerance"], e["pass"],
                         e.get("detail"))
        rb.timings.update(timings)
    for entry in rb.checks:
        print(f"[{'PASS' if entry['pass'] else 'FAIL'}] {entry['name']}: "
              f"{entry['measured']} (tolerance {entry['tolerance']})")
    print(f"overall: {'PASS' if rb.report['pass'] else 'FAIL'}")


def _scan(system, cfg: RunConfig, rb: ReportBuilder, name: str):
    with timed(rb.timings, name):
        return system.second_derivative_scan(n_grid=cfg["regularity"]["grid"])


def _regularity(built: BuiltSystem, rb: ReportBuilder, outdir: str) -> None:
    cfg = built.cfg
    rep = _scan(built.system, cfg, rb, "scan")
    summ = rep.summary()
    rb.set_summary(regularity=summ)
    rep.to_csv(os.path.join(outdir, "regularity.csv"))
    rb.check_true("tail_below_head", summ["tail_below_head"],
                  detail={"sup_tail": summ["sup_tail"],
                          "sup_head": summ["sup_head"]})
    rb.check_leq("term_sum_vs_fd_rel", summ["max_rel_fd_dev"])
    factor = cfg["regularity"]["compare_C_factor"]
    if factor:
        big_C = cfg["params"]["C"] * factor
        try:
            *_, big = build_full_system(dataclasses.replace(cfg.seq_params, bigC=big_C),
                                        built.profiles, cfg["params"]["swap_gamma"])
        except (ConstructionError, ValueError) as exc:
            raise ConfigError(f"regularity.compare_C_factor: the rebuild at "
                              f"C={big_C:g} failed: {exc}") from None
        summ2 = _scan(big, cfg, rb, "scan_big_C").summary()
        ratios = {
            "sup_all_ratio": summ["sup_all"] / summ2["sup_all"],
            "sup_off_crossing_ratio":
                summ["sup_off_crossing"] / summ2["sup_off_crossing"],
        }
        rb.set_summary(c_comparison=dict(ratios, big_C=big_C,
                                         regularity_big_C=summ2))
        # the uniform-in-C smallness governs the gaps away from the symmetry
        # crossing (where the two-sided estimates fail by construction); the
        # all-gaps ratio is reported alongside but not asserted
        rb.check_geq("c_comparison_off_crossing",
                     ratios["sup_off_crossing_ratio"], detail=ratios)
    print(f"regularity: {'PASS' if rb.report['pass'] else 'FAIL'} "
          f"(sup_all={summ['sup_all']:.4g}, tail={summ['sup_tail']:.4g})")


def _portrait(built: BuiltSystem, rb: ReportBuilder, outdir: str) -> None:
    po, p = built.cfg["portrait"], built.cfg["params"]
    band = po["r_band"]
    orbits = [(th, float(built.system.curve_height(th)) + (2.0 * v - 1.0) * band)
              for th, v in points(po["orbits"], p["seed"], 2).tolist()]
    dump_phase_portrait_csv(built.system, orbits, po["steps"],
                            os.path.join(outdir, "portrait.csv"),
                            curve_samples=po["curve_samples"])
    print(f"portrait: {po['orbits']} orbits x {po['steps']} steps written")


def _manifolds(built: BuiltSystem, rb: ReportBuilder, outdir: str) -> None:
    k_max = _manifold_checks(built, rb)
    dump_segments_csv(built.system, -k_max, k_max,
                      os.path.join(outdir, "segments.csv"))
    print(f"manifolds: {'PASS' if rb.report['pass'] else 'FAIL'}")


def _diffusion(built: BuiltSystem, rb: ReportBuilder, outdir: str) -> None:
    d = built.cfg["diffusion"]
    if str(d["theta0"]) == "mu1":
        theta0 = float(built.table.mu_of(1)) + float(built.table.ell_of(1)) / 16.0
    else:
        theta0 = float(d["theta0"])
    thresholds = tuple(parse_float_list(d["thresholds"]))

    def run_probe(job):
        # timed in the share that runs it, replayed in offset order
        i, off = job
        timings = {}
        with timed(timings, f"probe_{i}"):
            probe = diffusion_probe(built.system, theta0, off, d["n"], thresholds=thresholds)
        return probe, timings

    probes = []
    for probe, timings in fork_map(run_probe, enumerate(parse_float_list(d["offsets"]))):
        probes.append(probe)
        rb.timings.update(timings)
    rb.set_summary(probes=probes)
    for pr in probes:
        print(f"diffusion offset={pr['offset']:+.3e}: "
              f"max excursion {pr['max_excursion']:.6e} over {pr['n_steps']} steps")


# command -> (body, report file or None, refusal in rigid-rotation mode or None)
_COMMANDS = {
    "build": (_build, "build.json", None),
    "verify": (_verify, "verify.json", None),
    "regularity": (_regularity, "regularity.json",
                   "regularity scan requires mode=full"),
    "portrait": (_portrait, None, None),
    "manifolds": (_manifolds, "manifolds.json", "manifold checks require mode=full"),
    "diffusion": (_diffusion, "diffusion.json", "diffusion probe requires mode=full"),
}


def run(command: str, cfg: RunConfig, outdir: str) -> int:
    """Build the system once, run the command's body, write its report;
    exit 0 when every check passed and 1 otherwise."""
    body, report_file, rigid_refusal = _COMMANDS[command]
    rb = ReportBuilder(cfg.echo())
    with timed(rb.timings, "build"):
        built = BuiltSystem(cfg)
    rb.timings.update(built.timings)
    if built.rigid and rigid_refusal:
        raise ConfigError(rigid_refusal)
    rb.set_summary(**built.summary())
    body(built, rb, outdir)
    if report_file:
        write_report(rb.finish(), os.path.join(outdir, report_file))
    return 0 if rb.report["pass"] else 1


# glibc's malloc maps each request of 128 KiB or more afresh and unmaps it on
# free, and returns the heap's free top once past 128 KiB, until some large
# block is freed. The blocked passes make and drop 2**14-point arrays (128 KiB)
# many times per block, and each would cost a map, page faults and an unmap.
# Fixed settings keep requests up to 1 MiB on the heap, and its free top up to
# 8 MiB, above a blocked pass's working set of a few MB.
_MALLOC_OPTIONS = ((-3, 2**20), (-1, 2**23))   # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def _set_malloc_options() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return   # not glibc: its allocator keeps its own rules
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOC_OPTIONS:
        mallopt(param, value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="denjoy-twist",
        description="Build and verify the twist map with a Denjoy-type "
                    "invariant graph.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--set", action="append", default=[], metavar="S.K=V",
                        help="override a config value (section.key=value)")
    parser.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)
    _set_malloc_options()
    try:
        cfg = load_config(args.config, args.set)
        outdir = _outdir(cfg, args.out)
        return run(args.command, cfg, outdir)
    except (ConfigError, ConstructionError, CalibrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # an output that cannot be written, here or in a fork_map share
        if exc.filename is None:
            raise
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
