"""Run configuration: one INI-style file plus command-line overrides.

Every figure and report is reproducible from a single config file. Unknown
sections or keys are rejected. The [tolerances] section can override any
named tolerance; all sampling randomness is drawn from the seed recorded
in [params].
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .sequences import DEFAULT_TOLERANCES, SeqParams


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "params": {
        "omega": (math.sqrt(5.0) - 1.0) / 2.0,
        "delta": 0.5,
        "C": 100.0,
        "B": 10.0,
        "M": 500,
        "alpha1_policy": "half_K1",
        "swap_gamma": False,
        "mode": "full",             # full | rigid_rotation
        "seed": 20260809,
        "quadrature_tolerance": 1e-13,
    },
    "tolerances": {
        **DEFAULT_TOLERANCES,
        "invariance_residual": 1e-10,
        "roundtrip": 1e-12,
        "det_df": 1e-9,
        "twist_fd": 1e-9,
        "vertical_translate_r": 5e-16,
        "phi_periodicity": 1e-13,
        "phi_fit_deviation": 1e-11,
        "phi_slope_deviation": 1e-10,
        "semiconjugacy": 1e-10,
        "wandering": 1e-10,
        "manifold_map": 1e-10,
        "contraction_ratio": 1e-10,
        "curve_side": 1e-12,
        "jump_match": 1e-14,
        "jump_detect": 1e-6,
        "regularity_term_rel": 1e-6,
        "c_comparison_factor_min": 5.0,
        "orbit_convergence_rel": 1e-6,
        "mean_budget_extra": 1e-6,
    },
    "verify": {
        "invariance_samples": 10000,
        "rotation_n": 100000,
        "rotation_starts": "0.0,0.37,0.73",
        "manifold_k_max": 50,
        "jump_scan_samples": 10000,
        "roundtrip_samples": 10000,
        "det_samples": 1000,
        "fd_step": 1e-6,
    },
    "regularity": {
        "grid": 256,
        "fd_step_rel": 1e-4,
        "compare_C_factor": 0.0,
    },
    "portrait": {
        "orbits": 20,
        "steps": 10000,
        "r_band": 0.05,
        "curve_samples": 512,
    },
    "manifolds": {
        "k_max": 50,
        "extend_to": 5,
    },
    "diffusion": {
        "offsets": "-1e-3,1e-3",
        "n": 100000,
        "theta0": "mu1",
        "thresholds": "1e-3,1e-2,1e-1",
    },
    "output": {
        "directory": "out",
        "write_csv": True,
    },
}


# sample counts, orbit lengths and difference steps of the checks: at zero
# a check would pass having measured nothing; likewise the orbit lengths of
# portrait and diffusion
_POSITIVE = (
    ("verify", "invariance_samples"), ("verify", "rotation_n"),
    ("verify", "manifold_k_max"), ("verify", "jump_scan_samples"),
    ("verify", "roundtrip_samples"), ("verify", "det_samples"),
    ("verify", "fd_step"), ("regularity", "grid"),
    ("regularity", "fd_step_rel"), ("manifolds", "k_max"),
    ("portrait", "steps"), ("diffusion", "n"),
)
# counts, widths and factors for which 0 means none or off
_NON_NEGATIVE = (
    ("portrait", "orbits"), ("portrait", "r_band"), ("portrait", "curve_samples"),
    ("regularity", "compare_C_factor"),
)
# comma-separated numbers, kept as written; True: at least one is needed
_FLOAT_LISTS = {
    ("verify", "rotation_starts"): True, ("diffusion", "offsets"): True,
    ("diffusion", "thresholds"): False,
}


@dataclass
class RunConfig:
    """Parsed configuration with defaults filled in."""

    sections: dict = field(default_factory=dict)

    def __getitem__(self, section):
        return self.sections[section]

    @property
    def seq_params(self) -> SeqParams:
        p = self.sections["params"]
        return SeqParams(omega=p["omega"], delta=p["delta"], bigC=p["C"],
                         bigB=p["B"], truncation_M=p["M"],
                         alpha1_policy=p["alpha1_policy"],
                         tolerances=dict(self.sections["tolerances"]))

    def tol(self, name: str) -> float:
        return self.sections["tolerances"][name]

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


def _check_values(sections) -> None:
    """ConfigError naming the key of the first value no command can run with."""
    def bad(sec, key, why):
        return ConfigError(f"{sec}.{key}: {why}, got {sections[sec][key]!r}")

    if sections["params"]["mode"] not in ("full", "rigid_rotation"):
        raise bad("params", "mode", "must be 'full' or 'rigid_rotation'")
    for sec, key in _POSITIVE:
        if not 0 < sections[sec][key] < math.inf:
            raise bad(sec, key, "must be positive and finite")
    for sec, key in _NON_NEGATIVE:
        if not 0 <= sections[sec][key] < math.inf:
            raise bad(sec, key, "must be finite and 0 or more")
    for (sec, key), needed in _FLOAT_LISTS.items():
        values = _finite_numbers(sections[sec][key])
        if values is None or (needed and not values):
            raise bad(sec, key, "expected finite numbers separated by commas"
                      + (", at least one" if needed else ""))
    theta0 = sections["diffusion"]["theta0"]
    if theta0 != "mu1" and ("," in theta0 or len(_finite_numbers(theta0) or ()) != 1):
        raise bad("diffusion", "theta0", "expected 'mu1' or a finite number")


def load_config(path=None, overrides=()) -> RunConfig:
    """Read the INI file (optional) and apply key=value overrides.

    Overrides use the form section.key=value. Unknown sections or keys are
    rejected so that typos cannot silently fall back to defaults.
    """
    sections = {s: dict(kv) for s, kv in _DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keys are case-sensitive (C vs c)
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file {path} not found or unreadable")
        for sec in parser.sections():
            if sec not in sections:
                raise ConfigError(f"unknown config section [{sec}]")
            for key, raw in parser.items(sec):
                if key not in sections[sec]:
                    raise ConfigError(f"unknown key {key!r} in section [{sec}]")
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
