import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import denjoy_twist
from denjoy_twist import circle_map, cli, twist_map
from denjoy_twist.cli import BuiltSystem, main
from denjoy_twist.config import _SETTINGS, ConfigError, load_config, parse_float_list
from denjoy_twist.profiles import calibrate_profiles
from denjoy_twist.reporting import BOUNDS, deterministic_dump
from denjoy_twist.sequences import ConstructionError, build_sequences

FAST = ["--set", "params.M=32", "--set", "verify.rotation_n=500",
        "--set", "verify.invariance_samples=500",
        "--set", "verify.roundtrip_samples=300",
        "--set", "verify.det_samples=60",
        "--set", "verify.jump_scan_samples=500"]


def run(args, tmp_path, sub):
    return main(args + ["--out", str(tmp_path / sub)])


def _python(*args):
    """A fresh interpreter on the package under test, output captured."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(denjoy_twist.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_build_writes_summary_and_csvs(tmp_path, capsys):
    code = run(["build", "--set", "params.M=32"], tmp_path, "b")
    assert code == 0
    assert capsys.readouterr().out == "build: PASS\n"
    rep = json.loads((tmp_path / "b" / "build.json").read_text())
    assert 0.0 < rep["summary"]["residual_mass"] < 1.0
    for name in ("sequences.csv", "gaps.csv", "profiles.csv"):
        assert (tmp_path / "b" / name).exists()


def test_run_path_imports_no_scipy(tmp_path):
    # a fresh interpreter: importing the CLI and running a build loads no scipy
    code = ("import sys\n"
            "from denjoy_twist import cli\n"
            f"assert cli.main(['build', '--set', 'params.M=16', '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "build.json").exists()


def test_sampling_commands_import_no_numpy_random(tmp_path):
    # the checks and the portrait read a Kronecker point set: numpy.random,
    # and OpenSSL through secrets and hmac, stay unloaded
    args = ([["verify"] + FAST + ["--set", "params.M=16"]]
            + [["portrait", "--set", "params.M=16", "--set", "portrait.orbits=2",
                "--set", "portrait.steps=30"]])
    code = ("import sys\n"
            "from denjoy_twist import cli\n"
            f"for i, a in enumerate({args!r}):\n"
            f"    assert cli.main(a + ['--out', {str(tmp_path)!r} + str(i)]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
            "             ('secrets', 'hmac', '_hashlib') or m.startswith('numpy.random')))\n")
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_build_minimal_truncation(tmp_path):
    code = run(["build", "--set", "params.M=8"], tmp_path, "m8")
    assert code == 0
    lines = (tmp_path / "m8" / "sequences.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 17


def test_build_rejects_bad_delta(tmp_path):
    assert run(["build", "--set", "params.delta=-1"], tmp_path, "bad") == 2


@pytest.mark.parametrize("command, where, name", [
    ("build", ["--out", "{}"], "--out"),
    ("verify", ["--set", "output.directory={}"], "output.directory")])
def test_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys, command,
                                                      where, name):
    # an existing file where the output directory should be
    path = tmp_path / "file"
    path.write_text("")
    assert main([command, "--set", "params.M=16"]
                + [arg.format(path) for arg in where]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}: ") and str(path) in err
    assert "Traceback" not in err


def test_build_asserts_its_estimates(tmp_path, capsys):
    # at delta = 20 the ratio bound leaves its window: the estimates.json that
    # build writes reads false, and so must its report, exit code and the
    # PASS/FAIL line, which names each failing check
    assert run(["build", "--set", "params.M=16", "--set", "params.delta=20"],
               tmp_path, "b") == 1
    assert capsys.readouterr().out == "build: FAIL (sequence_estimates)\n"
    rep = json.loads((tmp_path / "b" / "build.json").read_text())
    est = json.loads((tmp_path / "b" / "estimates.json").read_text())
    failed = [c["name"] for c in rep["checks"] if not c["pass"]]
    assert failed == ["sequence_estimates"] and not est["pass"]


def test_verify_passes_and_is_deterministic(tmp_path):
    assert run(["verify"] + FAST, tmp_path, "v1") == 0
    assert run(["verify"] + FAST, tmp_path, "v2") == 0
    a = json.loads((tmp_path / "v1" / "verify.json").read_text())
    b = json.loads((tmp_path / "v2" / "verify.json").read_text())
    assert deterministic_dump(a) == deterministic_dump(b)
    assert a["pass"] and all(c["pass"] for c in a["checks"])


def test_verify_builds_sequences_once(tmp_path, monkeypatch):
    # the zero-seed oracle sweeps the built K; it does not rebuild
    calls = []

    def counting(params):
        calls.append(params)
        return build_sequences(params)

    monkeypatch.setattr(cli, "build_sequences", counting)
    assert run(["verify"] + FAST, tmp_path, "v") == 0
    assert len(calls) == 1


def test_verify_calls_no_numpy_linalg(tmp_path, monkeypatch):
    # the linearity fit is closed form: no LAPACK routine on verify's path
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in np.linalg.__all__:
        f = getattr(np.linalg, name)
        if callable(f) and not isinstance(f, type):
            monkeypatch.setattr(np.linalg, name, refuse)
    assert run(["verify"] + FAST, tmp_path, "v") == 0


@pytest.mark.parametrize("seed", [0, 20260809, 2**70])
def test_verify_passes_at_any_seed(tmp_path, seed):
    # the seed shifts every check's Kronecker set: exact on Python ints, so
    # a seed past 2**64 reaches numpy reduced
    assert run(["verify"] + FAST + ["--set", "params.M=16",
                                    "--set", f"params.seed={seed}"], tmp_path, "v") == 0


def test_verify_passes_at_large_M(tmp_path):
    # the global fit differenced O(1) phi values over ell_k/4 and read
    # phi_slope_deviation 2.7e-9 here; the gap-local fit reads about 1e-15
    assert run(["verify"] + FAST + ["--set", "params.M=32000"], tmp_path, "v") == 0


def test_regularity_calibrates_profiles_once(tmp_path, monkeypatch):
    # the profiles do not depend on C: the large-C rebuild reuses them
    calls = []

    def counting(*args):
        calls.append(args)
        return calibrate_profiles(*args)

    monkeypatch.setattr(cli, "calibrate_profiles", counting)
    assert run(["regularity", "--set", "params.M=32",
                "--set", "regularity.compare_C_factor=100"], tmp_path, "r") == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command, args", [
    ("build", ["--set", "params.M=16"]),
    ("verify", FAST),
    ("regularity", ["--set", "params.M=16"]),
    ("manifolds", ["--set", "params.M=16"]),
    ("diffusion", ["--set", "params.M=16", "--set", "diffusion.n=100"]),
], ids=["build", "verify", "regularity", "manifolds", "diffusion"])
def test_every_report_has_one_schema(tmp_path, command, args):
    assert run([command] + args, tmp_path, "s") == 0
    rep = json.loads((tmp_path / "s" / f"{command}.json").read_text())
    assert set(rep) == {"schema_version", "config", "summary", "checks", "pass",
                        "timings"}
    assert rep["timings"]["build"] > 0.0


def test_build_timings_split_by_layer(tmp_path):
    assert run(["build", "--set", "params.M=16"], tmp_path, "t") == 0
    timings = json.loads((tmp_path / "t" / "build.json").read_text())["timings"]
    layers = ("profiles", "sequences", "layout", "piece_table", "twist_system")
    assert set(timings) == {"build", *layers}
    assert all(timings[name] > 0.0 for name in layers)
    assert sum(timings[name] for name in layers) <= timings["build"]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_cpu", "two_cpus"])
def test_diffusion_times_each_probe(tmp_path, monkeypatch, cpus):
    # each probe is timed in the share that ran it, one key per offset in
    # offset order, beside the build's; the deterministic dump leaves them out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert run(["diffusion", "--set", "params.M=16", "--set", "diffusion.n=100",
                "--set", "diffusion.offsets=-1e-3,1e-3,2e-3"], tmp_path, "d") == 0
    rep = json.loads((tmp_path / "d" / "diffusion.json").read_text())
    probes = [name for name in rep["timings"] if name.startswith("probe")]
    assert probes == ["probe_0", "probe_1", "probe_2"]
    assert all(rep["timings"][name] > 0.0 for name in probes)
    assert "probe_0" not in deterministic_dump(rep)


@pytest.mark.parametrize("command, message", [
    ("regularity", "regularity scan requires mode=full"),
    ("manifolds", "manifold checks require mode=full"),
    ("diffusion", "diffusion probe requires mode=full"),
])
def test_rigid_rotation_refused_where_the_full_map_is_needed(tmp_path, capsys,
                                                             command, message):
    assert run([command, "--set", "params.mode=rigid_rotation"], tmp_path, "r") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list((tmp_path / "r").iterdir()) == []


def test_verify_unattainable_tolerance_fails(tmp_path, monkeypatch):
    monkeypatch.setitem(BOUNDS, "invariance_residual", 1e-20)
    code = run(["verify"] + FAST, tmp_path, "vf")
    assert code == 1
    rep = json.loads((tmp_path / "vf" / "verify.json").read_text())
    failing = [c for c in rep["checks"] if not c["pass"]]
    assert {c["name"] for c in failing} == {"invariance_residual",
                                           "invariance_residual_translated"}
    assert all(c["measured"] > 0.0 for c in failing)


def test_verify_smallest_truncation(tmp_path):
    # the orbit-convergence check shortens its orbit to the stored range
    assert run(["verify"] + FAST + ["--set", "params.M=8"], tmp_path, "v8") == 0
    rep = json.loads((tmp_path / "v8" / "verify.json").read_text())
    assert rep["pass"] and all(c["pass"] for c in rep["checks"])


def test_unconfirmable_quadrature_tolerance_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "calibrate_profiles", lambda: calibrate_profiles(1e-20))
    code = run(["build"], tmp_path, "q")
    assert code == 2
    assert "kernel mass check failed" in capsys.readouterr().err


def test_non_monotone_gap_diffeo_exits_2(tmp_path, capsys):
    assert run(["build", "--set", "params.C=10"], tmp_path, "c10") == 2
    err = capsys.readouterr().err
    assert "h_0 is not monotone" in err and "minimum slope -0.0153" in err
    assert run(["build", "--set", "params.C=20"], tmp_path, "c20") == 0
    assert run(["build"], tmp_path, "c100") == 0


def test_nonconvergent_inversion_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(circle_map, "_INVERT_MAX_ITER", 1)
    assert run(["verify", "--set", "params.M=16"], tmp_path, "nc") == 2
    err = capsys.readouterr().err
    assert "failed to converge" in err and "Traceback" not in err


def test_verify_rigid_rotation_mode(tmp_path):
    code = run(["verify", "--set", "params.mode=rigid_rotation"], tmp_path, "vr")
    assert code == 0
    rep = json.loads((tmp_path / "vr" / "verify.json").read_text())
    # the two checks only phi = 0 allows, then the blocks that need no
    # construction, which full mode runs too
    assert [c["name"] for c in rep["checks"]] == [
        "phi_identically_zero", "rotation_number_exact",
        "invariance_residual", "invariance_residual_translated",
        "roundtrip", "det_df", "vertical_translate_theta", "vertical_translate_r",
        "twist_positive", "phi_periodicity", "phi_mean"]


def test_regularity_csv_row_contract(tmp_path):
    code = run(["regularity", "--set", "params.M=16"], tmp_path, "r")
    assert code == 0
    lines = (tmp_path / "r" / "regularity.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 16 - 1


def test_portrait_row_contract(tmp_path):
    code = run(["portrait", "--set", "params.M=16",
                "--set", "portrait.orbits=2", "--set", "portrait.steps=30",
                "--set", "portrait.curve_samples=8"], tmp_path, "p")
    assert code == 0
    lines = (tmp_path / "p" / "portrait.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 8 + 2 * 31
    rows = [line.split(",") for line in lines[1:]]
    order = [(int(o), int(s)) for o, s, _, _ in rows]
    assert order == ([(0, j) for j in range(8)]
                     + [(i, s) for i in (1, 2) for s in range(31)])
    # every orbit row, re-stepped through the scalar map, gives the next row
    system = BuiltSystem(load_config(None, ["params.M=16"])).system
    for row, nxt in zip(rows[8:], rows[9:]):
        if nxt[1] != "0":
            assert system.forward(float(row[2]), float(row[3])) == (
                float(nxt[2]), float(nxt[3]))


def test_manifolds_cmd(tmp_path):
    assert run(["manifolds", "--set", "params.M=32"], tmp_path, "mf") == 0
    rep = json.loads((tmp_path / "mf" / "manifolds.json").read_text())
    assert rep["pass"]


def test_verify_and_manifolds_share_their_checks(tmp_path):
    shared = ["manifold_image_distance", "manifold_ratio_error",
              "curve_side_formula", "curve_side_strict", "orbit_convergence_rel",
              "manifold_base_orbit"]
    assert run(["verify"] + FAST, tmp_path, "v") == 0
    assert run(["manifolds", "--set", "params.M=32"], tmp_path, "m") == 0
    measured = []
    for sub, name in (("v", "verify.json"), ("m", "manifolds.json")):
        rep = json.loads((tmp_path / sub / name).read_text())
        by_name = {c["name"]: c["measured"] for c in rep["checks"]}
        measured.append([by_name[n] for n in shared])
    assert measured[0] == measured[1]


# configs that load_config accepts and that fail, each with its exact set of
# failing checks: verify at FAST counts, the two omega rows at default counts
# and M=16, and regularity at the defaults
_FAILING_CONFIGS = {
    "delta=0.01,M=500": (["verify"] + FAST + ["--set", "params.delta=0.01",
                                              "--set", "params.M=500"],
                         {"manifold_ratio_error"}),
    "delta=0.01,M=32": (["verify"] + FAST + ["--set", "params.delta=0.01"],
                        {"manifold_ratio_error"}),
    "C=1e4,M=16": (["verify"] + FAST + ["--set", "params.C=1e4", "--set", "params.M=16"],
                   {"manifold_ratio_error"}),
    "omega=0.999999999": (["verify", "--set", "params.omega=0.999999999",
                           "--set", "params.M=16"], {"invariance_residual_translated"}),
    # g~^{-1}(g~(x)) misses x by 2.1e-11 here, yet no check inverts g
    "omega=0.500000001": (["verify", "--set", "params.omega=0.500000001",
                           "--set", "params.M=16"], set()),
    "alpha1=1e-12": (["verify"] + FAST + ["--set", "params.alpha1_policy=value:1e-12",
                                          "--set", "params.M=16"], {"curve_side_strict"}),
    "omega=1/sqrt2,delta=1,C=20": (
        ["verify"] + FAST + ["--set", "params.omega=0.7071067811865476",
                             "--set", "params.delta=1", "--set", "params.C=20",
                             "--set", "params.M=64"],
        {"phi_fit_deviation", "phi_slope_deviation", "manifold_image_distance",
         "manifold_ratio_error"}),
    "compare_C_factor=5": (["regularity", "--set", "regularity.compare_C_factor=5"],
                           {"c_comparison_off_crossing"}),
}


@pytest.mark.parametrize("row", sorted(_FAILING_CONFIGS))
def test_failing_config_table_pinned(tmp_path, row):
    args, failing = _FAILING_CONFIGS[row]
    assert run(args, tmp_path, "f") == (1 if failing else 0)
    rep = json.loads((tmp_path / "f" / f"{args[0]}.json").read_text())
    assert {c["name"] for c in rep["checks"] if not c["pass"]} == failing


def test_diffusion_cmd_deterministic(tmp_path):
    args = ["diffusion", "--set", "params.M=16", "--set", "diffusion.n=300"]
    assert run(args, tmp_path, "d1") == 0
    assert run(args, tmp_path, "d2") == 0
    a = json.loads((tmp_path / "d1" / "diffusion.json").read_text())
    b = json.loads((tmp_path / "d2" / "diffusion.json").read_text())
    assert deterministic_dump(a) == deterministic_dump(b)
    probes = a["summary"]["probes"]
    assert len(probes) == 2
    assert probes[0]["max_excursion"] <= 2e-3


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of outputs that no benchmark workload pins: segments.csv and the
# deterministic manifolds.json dump at M=32, without and with the jump
# profiles exchanged; and, at M=16 with 2000 steps, diffusion.json's probes
# (json.dumps with indent=2, sort_keys=True) and its deterministic dump
MANIFOLD_DIGESTS = {
    "false": ("609b7b862068f73426a6b20e456febdf5e7d156f75600b0f36d105943027c7a3",
              "027f2bee322d7a8603376811ea3ee29d86aa58b21f42b423e101b10f2523f57f"),
    "true": ("609b7b862068f73426a6b20e456febdf5e7d156f75600b0f36d105943027c7a3",
             "c4f514000b3e6c06d5fc2fc2ce50b7d56c92ff9d49346a6e33b78afc6af781b6"),
}
DIFFUSION_DIGEST = ("2bd450cb1e49edcb467690ff704e71b8d091fdc856093f2ba9368325e00cae3d",
                    "01dd8d28e9f6030622a94bf14c22c33b103ce138174b8c7225db45581ea9d46d")


# sha256 of every file a command writes, its report through
# deterministic_dump and the other files as bytes: verify under FAST in full
# (at M=32 and M=300) and in rigid-rotation mode, regularity at M=32 with
# the large-C comparison, build at M=64, portrait at M=32 (4 orbits x 100
# steps) without and with the jump profiles exchanged, and diffusion as
# DIFFUSION_DIGEST pins it
PORTRAIT = ["portrait", "--set", "params.M=32", "--set", "portrait.orbits=4",
            "--set", "portrait.steps=100"]
OUTPUT_DIGESTS = {
    "verify": (["verify"] + FAST, {
        "verify.json": "0cee16144a3d34b11b62de6f0ea5d2e54a967ab58bc9080566ee9677d90f0268"}),
    # 599 gaps: the linearity check fits two full blocks of 256 gaps and a
    # partial one
    "verify_blocks": (["verify"] + FAST + ["--set", "params.M=300"], {
        "verify.json": "3cd56885e24050923f4e7b3090e28a1ca6852e7970d30152accc48c87bde67eb"}),
    "verify_rigid": (["verify"] + FAST + ["--set", "params.mode=rigid_rotation"], {
        "verify.json": "d5adbea6a290b2436d71ccc23c1bcd7a9ac58cffaf77da6977e1fe27cc66c147"}),
    "regularity": (["regularity", "--set", "params.M=32",
                    "--set", "regularity.compare_C_factor=100"], {
        "regularity.csv": "9470c9d034d701dd2924475a20b416a5a717abe953630d922d0e4411dddc38ff",
        "regularity.json": "d9920fac00d9de4c7446ec8baa53558aba6f96fc0b23ff76d0b818d5e983d9c0"}),
    # odd M: M // 2 is the tail index of the estimates
    "build_odd": (["build", "--set", "params.M=33"], {
        "build.json": "93dc50e75fdfaa80188023cfc325ad9c787348f551bacb033c549c1d5766f941",
        "estimates.json": "7a3f1ae81f7527ef958180dffa4364abb3332e52cfd011841aa75da8693b2099",
        "gaps.csv": "6f2f431a0baae378de1fb65a554fe33c5eff2a3e16864b19330eedca49208fbe",
        "profiles.csv": "ed9725c2f5e9a24860f7d8878323f814572fb1c28473c23ee42d5620e0e8d51a",
        "sequences.csv": "10d36f1d5dcbd039b4a3dea3a379adf186904e5ce5814d6e8761c881ed7ee16c"}),
    # 65 gaps: the scan joins a 64-gap block and a 1-gap block
    "regularity_odd": (["regularity", "--set", "params.M=33"], {
        "regularity.csv": "5ba62da67fb533824e478538c7559a1f03f022080ae5ce89cb3a77652f357b1f",
        "regularity.json": "0029b9198e2c303577bdaa13a3be733f3f52c4ce24119940a6a806584ab76094"}),
    "build": (["build", "--set", "params.M=64"], {
        "build.json": "86d2eef784de65aae3016b27f884cb59a962c8507b6a0d91ee5865cc0aae0bc5",
        "estimates.json": "b374be38320dd88ecd20181cd9f95dd6842c8d3ee1e510b6ba3f478c53942ad2",
        "gaps.csv": "8fe8afa8dffd1d17d7ef78bce3dcb372f61dc620c8e36e6416a998b47cb27d9a",
        "profiles.csv": "ed9725c2f5e9a24860f7d8878323f814572fb1c28473c23ee42d5620e0e8d51a",
        "sequences.csv": "7495801efd9892479b4f9125241f840d5258e5291d63898ec458777af9c00e1b"}),
    # 10000 gaps and 10001 CSV rows: the breakpoint pass of the gap family
    # and each CSV writer run several full blocks and a partial one
    "build_blocks": (["build", "--set", "params.M=5000"], {
        "build.json": "bd90652b106dcec2d42e526bac9eddacfbfa8ec8395623bdb456cb76b8903448",
        "estimates.json": "e4c54d60e9d3a7d02960b68903475b29096208cd8637a1887cc871b0fcdae791",
        "gaps.csv": "a07fdac61cb55b0cbca3c0f7de581e75c6a6b3b8565b156fb0aaecbcc24aa530",
        "profiles.csv": "ed9725c2f5e9a24860f7d8878323f814572fb1c28473c23ee42d5620e0e8d51a",
        "sequences.csv": "e4a003bb5c58f031e7f67cf5204c3e106e9042bf401db060d25843baf00a7f40"}),
    # 1039 gaps: regularity.csv is written in a full block and a partial one
    "regularity_blocks": (["regularity", "--set", "params.M=520"], {
        "regularity.csv": "170ab0083440fe8c14a57e0832c2261ff45b78c1f974ca1ae2ecf5f99216d14a",
        "regularity.json": "2102f5db7fd4696c36e212235d52651786185cb937a6d5bb4d32861be09b3ea7"}),
    "portrait": (PORTRAIT, {
        "portrait.csv": "b6f1385d30c2798f2c99d0290214666cc2fa8024a3b4233ec5ac3420f0248ea3"}),
    "portrait_swap": (PORTRAIT + ["--set", "params.swap_gamma=true"], {
        "portrait.csv": "983b767f68f44747848dbed3de91ff7c6d5d4efa60ee4f47b8102a1c61fd0c4c"}),
    "diffusion": (["diffusion", "--set", "params.M=16", "--set", "diffusion.n=2000"], {
        "diffusion.json": DIFFUSION_DIGEST[1]}),
}


def _assert_outputs_pinned(tmp_path, name):
    args, digests = OUTPUT_DIGESTS[name]
    assert run(args, tmp_path, "o") == 0
    report = f"{args[0]}.json"
    assert {path.name: _sha256(
        deterministic_dump(json.loads(path.read_text())).encode()
        if path.name == report else path.read_bytes())
        for path in (tmp_path / "o").iterdir()} == digests


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_outputs_byte_identical(tmp_path, name):
    # at the machine's own affinity: every command shares its work out over
    # every CPU the process may use
    _assert_outputs_pinned(tmp_path, name)


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_outputs_byte_identical_on_one_cpu(tmp_path, one_cpu, name):
    # the same pins where fork_map forks nothing
    _assert_outputs_pinned(tmp_path, name)


@pytest.mark.parametrize("name", ["diffusion", "verify", "verify_blocks",
                                  "verify_rigid"])
def test_verify_and_diffusion_pinned_on_two_cpus(tmp_path, monkeypatch, name):
    # verify's check blocks and diffusion's probes shared over two CPUs
    # whatever the machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _assert_outputs_pinned(tmp_path, name)


@pytest.mark.parametrize("exc", [ValueError, ConstructionError])
def test_failing_verify_block_exits_2_by_name(tmp_path, capsys, monkeypatch, exc):
    # on two CPUs the wandering block runs in the child's share: its error
    # reaches the CLI as the parent's own, and the child is reaped
    parent = os.getpid()

    def refuse(*args):
        raise exc("boom" if os.getpid() != parent else "ran in the parent")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cli, "wandering_interval_check", refuse)
    assert run(["verify"] + FAST, tmp_path, "v") == 2
    err = capsys.readouterr().err
    assert err == "error: boom\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("rows", [1, 101, 202])
def test_portrait_pinned_across_fork_map_calls(tmp_path, monkeypatch, rows):
    # the pinned portrait's 4 orbits of 101 rows, streamed row by row (an
    # orbit longer than a call), or one or two per fork_map call, on two
    # CPUs whatever the machine has
    monkeypatch.setattr(twist_map, "_PORTRAIT_ROWS", rows)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    _assert_outputs_pinned(tmp_path, "portrait")


@pytest.mark.parametrize("swap", sorted(MANIFOLD_DIGESTS))
def test_manifold_outputs_byte_identical(tmp_path, swap):
    assert run(["manifolds", "--set", "params.M=32", "--set",
                f"params.swap_gamma={swap}"], tmp_path, "m") == 0
    rep = json.loads((tmp_path / "m" / "manifolds.json").read_text())
    assert (_sha256((tmp_path / "m" / "segments.csv").read_bytes()),
            _sha256(deterministic_dump(rep).encode())) == MANIFOLD_DIGESTS[swap]


def test_diffusion_output_byte_identical(tmp_path):
    assert run(["diffusion", "--set", "params.M=16", "--set", "diffusion.n=2000"],
               tmp_path, "d") == 0
    rep = json.loads((tmp_path / "d" / "diffusion.json").read_text())
    probes = json.dumps(rep["summary"]["probes"], indent=2, sort_keys=True)
    assert (_sha256(probes.encode()),
            _sha256(deterministic_dump(rep).encode())) == DIFFUSION_DIGEST


def test_config_file_roundtrip(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text("[params]\nM = 16\ndelta = 0.5\n\n[verify]\n"
                        "rotation_n = 100\n")
    cfg = load_config(str(cfg_path))
    assert cfg["params"]["M"] == 16
    assert cfg["verify"]["rotation_n"] == 100


def test_config_rejects_unknown(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[params]\nnot_a_key = 3\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text("[nonsense]\nM = 3\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    with pytest.raises(ConfigError):
        load_config(None, ["params.M"])
    with pytest.raises(ConfigError):
        load_config(None, ["params.unknown=3"])
    with pytest.raises(ConfigError):
        load_config(None, ["params.mode=sideways"])


def test_config_file_cannot_set_a_bound(tmp_path, capsys):
    # the deleted [tolerances] section is refused by name, as any unknown one
    ini = tmp_path / "loose.ini"
    ini.write_text("[params]\nM = 16\n\n[tolerances]\nroundtrip = 1\n")
    assert run(["verify", "--config", str(ini)], tmp_path, "t") == 2
    err = capsys.readouterr().err
    assert "[tolerances]" in err and "Traceback" not in err


@pytest.mark.parametrize("text", [
    "[params]\nM = 16\nM = 32\n",
    "[params]\nM = 16\n\n[params]\nB = 3\n",
    "M = 16\n",
    "[params]\nM\n",
    "[params]\nM = 16\xff\n",
    "[params]\nM = 16\n\n[output]\ndirectory = out50%\n",
], ids=["repeated-option", "repeated-section", "no-section-header", "no-equals",
        "not-utf8", "percent"])
def test_malformed_config_file_exits_2_naming_it(tmp_path, capsys, text):
    # configparser's own errors are config errors, on one stderr line naming
    # the file; a value is literal, as --set reads it, so '%' is no error
    ini = tmp_path / "f.ini"
    ini.write_bytes(text.encode("latin-1"))
    if "%" in text:
        assert load_config(str(ini))["output"]["directory"] == "out50%"
        return
    assert run(["build", "--config", str(ini)], tmp_path, "c") == 2
    err = capsys.readouterr().err
    assert str(ini) in err and err.count("\n") == 1 and "Traceback" not in err


_BAD_SETTINGS = [
    ("verify", "verify.rotation_starts="),
    ("verify", "verify.rotation_starts= , "),
    ("verify", "verify.rotation_n=0"),
    ("verify", "verify.roundtrip_samples=0"),
    ("verify", "verify.jump_scan_samples=0"),
    ("verify", "verify.det_samples=0"),
    ("verify", "verify.invariance_samples=0"),
    ("verify", "manifolds.k_max=0"),
    ("manifolds", "manifolds.k_max=0"),
    ("regularity", "regularity.grid=0"),
    ("verify", "params.M=abc"),
    ("verify", "verify.rotation_starts=a,b"),
    ("diffusion", "diffusion.thresholds=a"),
    ("diffusion", "diffusion.theta0=abc"),
    ("diffusion", "diffusion.theta0=0.3,"),
    ("diffusion", "diffusion.n=-5"),
    ("diffusion", "diffusion.offsets="),
    ("portrait", "portrait.steps=-3"),
    ("portrait", "portrait.r_band=-1"),
    ("portrait", "portrait.r_band=inf"),
    ("portrait", "portrait.curve_samples=-1"),
    # the sampling stream is seeded by a non-negative integer
    ("portrait", "params.seed=-1"),
    ("regularity", "regularity.compare_C_factor=-3"),
    # an odd grid puts a point on a gap midpoint, and from 1/(4 FD_STEP_REL)
    # = 2500 on the scan's five-point stencil, which lands on u +- 2 hstep
    # where h_{k-1} is affine, leaves its half-gap
    ("regularity", "regularity.grid=3"),
    ("regularity", "regularity.grid=2500"),
    # the large-C rebuild is refused by the construction: C * factor < 10,
    # and a C so large that the seed underflows
    ("regularity", "regularity.compare_C_factor=1e-3"),
    ("regularity", "regularity.compare_C_factor=1e300"),
    # deleted keys: no code read the first two, verify's manifold checks
    # read manifolds.k_max, and every acceptance bound and difference step is
    # the program's own (reporting.BOUNDS, FD_STEP and FD_STEP_REL), which no
    # run can set, loosened or not
    ("manifolds", "manifolds.extend_to=5"),
    ("build", "tolerances.normalizer_rel=1e-10"),
    ("verify", "verify.manifold_k_max=50"),
    ("verify", "tolerances.roundtrip=1"),
    ("verify", "tolerances.roundtrip=nan"),
    ("verify", "tolerances.roundtrip=-1"),
    ("verify", "tolerances.roundtrip=inf"),
    ("build", "params.quadrature_tolerance=1"),
    ("build", "params.quadrature_tolerance=inf"),
    ("build", "params.quadrature_tolerance=-1"),
    ("verify", "verify.fd_step=0"),
    ("verify", "verify.fd_step=nan"),
    ("verify", "verify.fd_step=inf"),
    ("regularity", "regularity.fd_step_rel=0"),
    ("regularity", "regularity.fd_step_rel=-1e-4"),
]
# and one value against each setting's own rule in config's table, under the
# command of its section
_BAD_SETTINGS += [row for row in (
    (sec if sec in cli._COMMANDS else "build",
     f"{sec}.{key}=" + {"positive": "0", "non-negative": "-1", "numbers": "a",
                        "some numbers": ""}[rule])
    for sec, rows in _SETTINGS.items() for key, (_, rule) in rows.items() if rule)
    if row not in _BAD_SETTINGS]


@pytest.mark.parametrize("command, override", _BAD_SETTINGS)
def test_checks_with_nothing_to_measure_exit_2(tmp_path, capsys, command, override):
    # each would otherwise pass a check on no samples, die inside numpy, or
    # be accepted and ignored
    assert run([command, "--set", "params.M=16", "--set", override],
               tmp_path, "z") == 2
    err = capsys.readouterr().err
    assert override.split("=")[0] in err and "Traceback" not in err


def test_rotation_estimate_from_a_far_start(tmp_path):
    # ulp(1e12) is ~1.2e-4, so n steps stepped from 1e12 itself would swamp
    # the 1/n bound; the estimate starts from 1e12 % 1.0 = 0.0 instead
    measured = []
    for sub, start in (("far", "1e12"), ("zero", "0.0")):
        assert run(["verify"] + FAST + ["--set", "verify.rotation_n=100000",
                                        "--set", f"verify.rotation_starts={start}"],
                   tmp_path, sub) == 0
        rep = json.loads((tmp_path / sub / "verify.json").read_text())
        measured += [c["measured"] for c in rep["checks"]
                     if c["name"] == "rotation_number_gap_times_n"]
    assert measured[0] == measured[1] < 1.0


def test_diffusion_numeric_theta0(tmp_path):
    assert run(["diffusion", "--set", "params.M=16", "--set", "diffusion.n=200",
                "--set", "diffusion.theta0=0.3"], tmp_path, "d") == 0
    rep = json.loads((tmp_path / "d" / "diffusion.json").read_text())
    probes = rep["summary"]["probes"]
    assert len(probes) == 2 and all(pr["theta0"] == 0.3 for pr in probes)


@pytest.mark.parametrize("policy", ["zero", "half_K1_negated", "bogus", "value:nan",
                                    "value:", "value:1,2"])
def test_alpha1_policy_outside_the_construction_exits_2(tmp_path, capsys, policy):
    # the CLI builds the paper's seed or an explicit finite one
    assert run(["build", "--set", "params.M=16", "--set",
                f"params.alpha1_policy={policy}"], tmp_path, "p") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: params.alpha1_policy:") and "Traceback" not in err


@pytest.mark.parametrize("seed", ["0", "-0.0", "-0.001"])
def test_seed_outside_the_admissible_range_exits_2(tmp_path, capsys, seed):
    # a zero or wrong-signed seed builds a map without the paper's jump,
    # whose checks would fail; it is refused before anything is built
    assert run(["verify", "--set", "params.M=16", "--set",
                f"params.alpha1_policy=value:{seed}"], tmp_path, "s") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed alpha1=") and "admissible range" in err


@pytest.mark.parametrize("overrides, message", [
    (["C=nan"], "C must be finite and at least 10"),
    (["delta=inf"], "delta must be positive and finite"),
    (["B=inf"], "B must be finite and at least 3"),
    (["delta=1e300"], "delta=1e+300 is too large: the length normalizer overflows"),
    (["delta=330"], "delta=330 is too large: the length normalizer overflows"),
    (["delta=300"], "h_0 is not monotone"),
    (["delta=280"], "h_0 is not monotone"),
    # the gap lengths reach past the normalizer's head
    (["delta=300", "M=200000"],
     "delta=300 is too large at M=200000: the gap lengths overflow"),
], ids=["C=nan", "delta=inf", "B=inf", "delta=1e300", "delta=330", "delta=300",
        "delta=280", "delta=300,M=200000"])
def test_non_finite_parameter_exits_2_by_name(tmp_path, overrides, message):
    # stderr is the one error line: no numpy warning from a NaN running on,
    # nor from an overflowing length normalizer or gap length
    sets = [a for o in overrides for a in ("--set", f"params.{o}")]
    out = _python("-m", "denjoy_twist.cli", "build", "--set", "params.M=16", *sets,
                  "--out", str(tmp_path))
    assert out.returncode == 2
    assert out.stderr.startswith(f"error: {message}")
    assert out.stderr.count("\n") == 1 and out.stderr.endswith("\n")


def test_unresolvable_seed_exits_2(tmp_path, capsys):
    # 1e-16 cancels in the head relation to alpha0 = +1.1e-16, a map with the
    # wrong sign pattern; a seed the relation resolves still verifies
    small = FAST + ["--set", "params.M=16"]
    assert run(["verify"] + small + ["--set", "params.alpha1_policy=value:1e-16"],
               tmp_path, "s") == 2
    assert capsys.readouterr().err.startswith(
        "error: seed alpha1=1.000e-16 is below what the head relation resolves")
    assert run(["verify"] + small + ["--set", "params.alpha1_policy=value:1e-8"],
               tmp_path, "ok") == 0


def test_alpha1_policy_value_accepted(tmp_path):
    assert run(["build", "--set", "params.M=16", "--set",
                "params.alpha1_policy=value:0.001"], tmp_path, "v") == 0


def test_parse_float_list():
    assert parse_float_list("-1e-3, 2.5,") == [-1e-3, 2.5]
