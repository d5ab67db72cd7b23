"""Run configuration: one INI-style file plus command-line overrides.

Every figure and report is reproducible from a single config file. Unknown
sections or keys are rejected. No setting is an acceptance bound or a
difference step: those are the program's own (reporting.BOUNDS, FD_STEP and
FD_STEP_REL). Every sampled check and portrait's start points read one
Kronecker point set (`layout.points`), shifted by the seed recorded in
[params].
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .reporting import FD_STEP_REL
from .sequences import SeqParams


class ConfigError(ValueError):
    pass


# [params] key -> SeqParams field; SeqParams declares their defaults
_SEQ_FIELDS = {"omega": "omega", "delta": "delta", "C": "bigC", "B": "bigB",
               "M": "truncation_M", "alpha1_policy": "alpha1_policy"}

# the rule each value must meet, with the message naming what it failed: the
# sample counts and orbit lengths are positive (at zero a check would pass
# having measured nothing); counts, widths and factors for which 0 means none
# or off, and the sampling seed, are 0 or more; lists are comma-separated
# numbers, kept as written, some needing at least one
_RULES = {
    "positive": (lambda v: 0 < v < math.inf, "must be positive and finite"),
    "non-negative": (lambda v: 0 <= v < math.inf, "must be finite and 0 or more"),
    "numbers": (lambda v: _finite_numbers(v) is not None,
                "expected finite numbers separated by commas"),
    "some numbers": (lambda v: bool(_finite_numbers(v)),
                     "expected finite numbers separated by commas, at least one"),
}

# section -> key -> (default, rule or None); the rules that read a string or
# the grid's parity are in _check_values
_SETTINGS = {
    "params": {
        **{key: (getattr(SeqParams, name), None) for key, name in _SEQ_FIELDS.items()},
        "swap_gamma": (False, None),
        "mode": ("full", None),             # full | rigid_rotation
        "seed": (20260809, "non-negative"),
    },
    "verify": {
        "invariance_samples": (10000, "positive"),
        "rotation_n": (100000, "positive"),
        "rotation_starts": ("0.0,0.37,0.73", "some numbers"),
        "jump_scan_samples": (10000, "positive"),
        "roundtrip_samples": (10000, "positive"),
        "det_samples": (1000, "positive"),
    },
    "regularity": {
        "grid": (256, "positive"),
        "compare_C_factor": (0.0, "non-negative"),
    },
    "portrait": {
        "orbits": (20, "non-negative"),
        "steps": (10000, "positive"),
        "r_band": (0.05, "non-negative"),
        "curve_samples": (512, "non-negative"),
    },
    "manifolds": {
        "k_max": (50, "positive"),
    },
    "diffusion": {
        "offsets": ("-1e-3,1e-3", "some numbers"),
        "n": (100000, "positive"),
        "theta0": ("mu1", None),
        "thresholds": ("1e-3,1e-2,1e-1", "numbers"),
    },
    "output": {
        "directory": ("out", None),
        "write_csv": (True, None),
    },
}

_DEFAULTS = {sec: {key: default for key, (default, _) in rows.items()}
             for sec, rows in _SETTINGS.items()}


@dataclass
class RunConfig:
    """Parsed configuration with defaults filled in."""

    sections: dict = field(default_factory=dict)

    def __getitem__(self, section):
        return self.sections[section]

    @property
    def seq_params(self) -> SeqParams:
        p = self.sections["params"]
        return SeqParams(**{name: p[key] for key, name in _SEQ_FIELDS.items()})

    def echo(self) -> dict:
        return {s: {k: v for k, v in kv.items()}
                for s, kv in self.sections.items()}


def _coerce(name: str, default, raw: str):
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {raw!r}")
    if isinstance(default, (int, float)):
        try:
            return type(default)(raw)
        except ValueError:
            raise ConfigError(f"{name}: expected {type(default).__name__}, got {raw!r}") from None
    return raw.strip()


def _finite_numbers(raw: str):
    """The comma-separated numbers in raw, or None unless all are finite."""
    try:
        values = parse_float_list(raw)
    except ValueError:
        return None
    return values if all(map(math.isfinite, values)) else None


def _one_finite(raw: str) -> bool:
    """Whether raw is one finite number."""
    return "," not in raw and len(_finite_numbers(raw) or ()) == 1


def _check_values(sections) -> None:
    """ConfigError naming the key of the first value no command can run with."""
    def bad(sec, key, why):
        return ConfigError(f"{sec}.{key}: {why}, got {sections[sec][key]!r}")

    if sections["params"]["mode"] not in ("full", "rigid_rotation"):
        raise bad("params", "mode", "must be 'full' or 'rigid_rotation'")
    policy = sections["params"]["alpha1_policy"]
    if policy != "half_K1" and not (policy.startswith("value:")
                                    and _one_finite(policy[len("value:"):])):
        raise bad("params", "alpha1_policy",
                  "expected 'half_K1' or 'value:<finite number>'")
    for sec, rows in _SETTINGS.items():
        for key, (_, rule) in rows.items():
            if rule is not None and not _RULES[rule][0](sections[sec][key]):
                raise bad(sec, key, _RULES[rule][1])
    # an odd grid puts a point on a gap midpoint, and where h_{k-1} is affine
    # the scan's five-point stencil lands on u +- 2 FD_STEP_REL ell, inside
    # its half-gap while 4 grid FD_STEP_REL < 1
    grid = sections["regularity"]["grid"]
    if grid % 2 or 4 * grid * FD_STEP_REL >= 1:
        raise bad("regularity", "grid", f"must be even and below {0.25 / FD_STEP_REL:g}")
    theta0 = sections["diffusion"]["theta0"]
    if theta0 != "mu1" and not _one_finite(theta0):
        raise bad("diffusion", "theta0", "expected 'mu1' or a finite number")


def load_config(path=None, overrides=()) -> RunConfig:
    """Read the INI file (optional) and apply key=value overrides.

    Overrides use the form section.key=value. Unknown sections or keys are
    rejected so that typos cannot silently fall back to defaults.
    """
    sections = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    if path is not None:
        # values are literal, as --set takes them ('out50%' is a directory);
        # no header is empty, so [DEFAULT] is a section like any other
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        parser.optionxform = str  # keys are case-sensitive (C vs c)
        try:
            read = parser.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path}: {' '.join(str(exc).split())}") from None
        if not read:
            raise ConfigError(f"config file {path} not found or unreadable")
        for sec in parser.sections():
            if sec not in sections:
                raise ConfigError(f"config file {path}: unknown section [{sec}]")
            for key, raw in parser.items(sec):
                if key not in sections[sec]:
                    raise ConfigError(f"config file {path}: unknown key {key!r} "
                                      f"in section [{sec}]")
                sections[sec][key] = _coerce(f"{sec}.{key}", sections[sec][key], raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, raw = item.split("=", 1)
        sec, key = target.split(".", 1)
        if sec not in sections or key not in sections[sec]:
            raise ConfigError(f"unknown override target {target!r}")
        sections[sec][key] = _coerce(target, sections[sec][key], raw)
    _check_values(sections)
    return RunConfig(sections=sections)


def parse_float_list(raw: str) -> list:
    return [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]
