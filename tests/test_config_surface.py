"""The config surface holds only settings that some command reads, the bound
table only bounds that some check reads, and the README documents only
settings that exist."""

import re
import sys
from pathlib import Path

import pytest

from denjoy_twist import cli
from denjoy_twist.config import _DEFAULTS, _SETTINGS, load_config
from denjoy_twist.reporting import BOUNDS

README = Path(__file__).resolve().parents[1] / "README.md"


class _Recording(dict):
    """A config section or the bound table, recording each key read from it
    by subscript."""

    def __init__(self, section, values, seen):
        super().__init__(values)
        self.section, self.seen = section, seen

    def __getitem__(self, key):
        self.seen.add((self.section, key))
        return super().__getitem__(key)


# the six commands on small sizes, regularity with its large-C comparison
_SMALL = ["--set", "params.M=16"]
_VERIFY = ["verify", "--set", "verify.rotation_n=500",
           "--set", "verify.invariance_samples=200", "--set", "verify.roundtrip_samples=100",
           "--set", "verify.det_samples=20", "--set", "verify.jump_scan_samples=200"]
_RUNS = [
    ["build"],
    _VERIFY,
    ["regularity", "--set", "regularity.compare_C_factor=100"],
    ["portrait", "--set", "portrait.orbits=2", "--set", "portrait.steps=10",
     "--set", "portrait.curve_samples=8"],
    ["manifolds"],
    ["diffusion", "--set", "diffusion.n=100"],
]


def _record_setting_reads(monkeypatch) -> set:
    """The (section, key) of each setting that a command of cli.main reads
    from here on; load_config's own value checks and the report's config echo
    are not reads, as they run before or beside the recording (the echo
    iterates items). A read in a child of fork_map is recorded in the child
    only, so callers run on one CPU."""
    seen = set()

    def recording(*args):
        cfg = load_config(*args)
        cfg.sections = {sec: _Recording(sec, kv, seen)
                        for sec, kv in cfg.sections.items()}
        return cfg

    monkeypatch.setattr(cli, "load_config", recording)
    return seen


def test_every_setting_is_read(tmp_path, monkeypatch, one_cpu):
    # the six commands on small sizes
    seen = _record_setting_reads(monkeypatch)
    for i, args in enumerate(_RUNS):
        assert cli.main(args + _SMALL + ["--out", str(tmp_path / str(i))]) == 0
    # output.directory is read only when --out is not given
    monkeypatch.chdir(tmp_path)
    assert cli.main(["build"] + _SMALL) == 0
    assert (tmp_path / _DEFAULTS["output"]["directory"] / "build.json").exists()
    unread = {(sec, key) for sec, kv in _DEFAULTS.items() for key in kv} - seen
    assert not unread, f"settings no command reads: {sorted(unread)}"


def test_rigid_verify_reads_the_verify_settings(tmp_path, monkeypatch, one_cpu):
    # rigid-rotation verify runs the shared invariance and structural blocks,
    # with their sample counts
    seen = _record_setting_reads(monkeypatch)
    assert cli.main(_VERIFY + ["--set", "params.mode=rigid_rotation",
                               "--out", str(tmp_path)]) == 0
    read = {("verify", key) for key in ("invariance_samples", "roundtrip_samples",
                                        "det_samples")}
    assert read <= seen


def test_every_bound_is_read(tmp_path, monkeypatch, one_cpu):
    # the six commands and rigid-rotation verify, with every module's binding
    # of the bound table recording its reads, on one CPU as above
    seen = set()
    recording = _Recording("bounds", BOUNDS, seen)
    for name, module in list(sys.modules.items()):
        if name.startswith("denjoy_twist.") and getattr(module, "BOUNDS", None) is BOUNDS:
            monkeypatch.setattr(module, "BOUNDS", recording)
    runs = _RUNS + [_VERIFY + ["--set", "params.mode=rigid_rotation"]]
    for i, args in enumerate(runs):
        assert cli.main(args + _SMALL + ["--out", str(tmp_path / str(i))]) == 0
    unread = {("bounds", key) for key in BOUNDS} - seen
    assert not unread, f"bounds no check reads: {sorted(unread)}"


def _sets(*overrides):
    return [arg for item in overrides for arg in ("--set", item)]


# every setting a check reads, at the low end of what load_config accepts:
# each verify count at 1, one manifold segment, far rotation starts, and the
# smallest and largest grids
_LOW_ENDS = {
    "verify": ["verify"] + _sets(
        *(f"verify.{key}=1" for key, (_, rule) in _SETTINGS["verify"].items()
          if rule == "positive"),
        "manifolds.k_max=1", "verify.rotation_starts=1e300,-1e300"),
    "manifolds": ["manifolds"] + _sets("manifolds.k_max=1"),
    "grid=2": ["regularity"] + _sets("regularity.grid=2"),
    "grid=2498": ["regularity"] + _sets("regularity.grid=2498"),
}


@pytest.mark.parametrize("name", sorted(_LOW_ENDS))
def test_low_end_settings_pass_the_sound_map(tmp_path, name):
    assert cli.main(_LOW_ENDS[name] + _SMALL + ["--out", str(tmp_path)]) == 0


@pytest.mark.xfail(strict=True, reason="FOUND 38: at compare_C_factor=1 the "
                   "rebuild is the same map, so c_comparison_off_crossing reads "
                   "1.0 against its floor 5 (ROADMAP item 6)")
def test_compare_C_factor_1_passes_the_sound_map(tmp_path):
    args = ["regularity"] + _sets("regularity.compare_C_factor=1")
    assert cli.main(args + _SMALL + ["--out", str(tmp_path)]) == 0


def test_readme_example_config_gives_the_defaults(tmp_path):
    # the README's example INI block loads, and its values are the defaults
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    path = tmp_path / "example.ini"
    path.write_text(blocks[0])
    assert "[params]" in blocks[0]
    assert load_config(str(path)).echo() == load_config().echo()


def test_readme_names_only_existing_settings():
    # every section.key whose section is a config section; output file names
    # such as verify.json are not settings
    text = README.read_text()
    sections = "|".join(_DEFAULTS)
    named = set(re.findall(rf"\b({sections})\.([A-Za-z_][A-Za-z_0-9]*)", text))
    assert named, "the README names no setting"
    missing = sorted(f"{sec}.{key}" for sec, key in named
                     if key not in _DEFAULTS[sec] and key not in ("json", "csv"))
    assert not missing, f"README names settings that do not exist: {missing}"
