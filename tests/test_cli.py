import hashlib
import json
import os
import subprocess
import sys

import pytest

import denjoy_twist
from denjoy_twist import circle_map, cli
from denjoy_twist.cli import BuiltSystem, main
from denjoy_twist.config import ConfigError, load_config, parse_float_list
from denjoy_twist.reporting import deterministic_dump
from denjoy_twist.sequences import build_sequences

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


def test_build_writes_summary_and_csvs(tmp_path):
    code = run(["build", "--set", "params.M=32"], tmp_path, "b")
    assert code == 0
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


def test_build_minimal_truncation(tmp_path):
    code = run(["build", "--set", "params.M=8"], tmp_path, "m8")
    assert code == 0
    lines = (tmp_path / "m8" / "sequences.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 17


def test_build_rejects_bad_delta(tmp_path):
    assert run(["build", "--set", "params.delta=-1"], tmp_path, "bad") == 2


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


def test_verify_unattainable_tolerance_fails(tmp_path):
    code = run(["verify"] + FAST
               + ["--set", "tolerances.invariance_residual=1e-20"],
               tmp_path, "vf")
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


def test_unconfirmable_quadrature_tolerance_exits_2(tmp_path, capsys):
    code = run(["build", "--set", "params.quadrature_tolerance=1e-20"],
               tmp_path, "q")
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
    names = [c["name"] for c in rep["checks"]]
    assert "phi_identically_zero" in names


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
              "curve_side_formula", "curve_side_strict", "orbit_convergence_rel"]
    assert run(["verify"] + FAST, tmp_path, "v") == 0
    assert run(["manifolds", "--set", "params.M=32"], tmp_path, "m") == 0
    measured = []
    for sub, name in (("v", "verify.json"), ("m", "manifolds.json")):
        rep = json.loads((tmp_path / sub / name).read_text())
        by_name = {c["name"]: c["measured"] for c in rep["checks"]}
        measured.append([by_name[n] for n in shared])
    assert measured[0] == measured[1]


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
    "false": ("0e4439b21642a02572458b0622d230b26811657f702e8c604d405346046a2f71",
              "fd3c478c7011373c86109a71fb53e0d1f2d45bbdc7f5401c3db378984e5cad6c"),
    "true": ("0e4439b21642a02572458b0622d230b26811657f702e8c604d405346046a2f71",
             "47d5200fe25cf0e3299f00006c1b4fcfa27506ad66307e40bcde2e0c6956ec86"),
}
DIFFUSION_DIGEST = ("2351ec185fccd57490b95cf26d0afafcd49c63335a77d81c2a5b652e4dd4c214",
                    "0506ae7a905ebff8682b905c211b985fd9ce5e89878d5eaaef04900986ac202e")


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


@pytest.mark.parametrize("command, override", [
    ("verify", "verify.rotation_starts="),
    ("verify", "verify.rotation_starts= , "),
    ("verify", "verify.rotation_n=0"),
    ("verify", "verify.roundtrip_samples=0"),
    ("verify", "verify.jump_scan_samples=0"),
    ("verify", "verify.det_samples=0"),
    ("verify", "verify.invariance_samples=0"),
    ("verify", "verify.manifold_k_max=0"),
    ("verify", "verify.fd_step=0"),
    ("verify", "verify.fd_step=nan"),
    ("manifolds", "manifolds.k_max=0"),
    ("regularity", "regularity.grid=0"),
    ("regularity", "regularity.fd_step_rel=-1e-4"),
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
    ("verify", "verify.fd_step=inf"),
    ("portrait", "portrait.curve_samples=-1"),
    ("regularity", "regularity.compare_C_factor=-3"),
])
def test_checks_with_nothing_to_measure_exit_2(tmp_path, capsys, command, override):
    # each would otherwise pass a check on no samples, or die inside numpy
    assert run([command, "--set", "params.M=16", "--set", override],
               tmp_path, "z") == 2
    err = capsys.readouterr().err
    assert override.split("=")[0] in err and "Traceback" not in err


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


@pytest.mark.parametrize("override, message", [
    ("C=nan", "C must be finite and at least 10"),
    ("delta=inf", "delta must be positive and finite"),
    ("B=inf", "B must be finite and at least 3"),
    ("delta=1e300", "delta=1e+300 is too large: the length normalizer overflows"),
    ("delta=300", "delta=300 is too large: the length normalizer overflows"),
    ("delta=280", "delta=280 is too large: the length normalizer overflows"),
], ids=["C=nan", "delta=inf", "B=inf", "delta=1e300", "delta=300", "delta=280"])
def test_non_finite_parameter_exits_2_by_name(tmp_path, override, message):
    # stderr is the one error line: no numpy warning from a NaN running on,
    # nor from an overflowing length normalizer
    out = _python("-m", "denjoy_twist.cli", "build", "--set", "params.M=16",
                  "--set", f"params.{override}", "--out", str(tmp_path))
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
