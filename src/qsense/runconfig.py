"""Config-file parsing for the command-line runs.

Configs are human-readable key-value documents (YAML; JSON parses as a
YAML subset). Unknown keys are rejected rather than ignored, because a
silent typo in a physics parameter is the dominant user error; missing
keys fall back to documented defaults, and the fully resolved config is
echoed into every output file.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, asdict, fields

import yaml

from .protocol import AdaptiveConfig

# Config-file key for the coupling strength; the dataclass attribute is
# `lam` because the canonical name is a Python keyword.
_LAMBDA_KEY = "lambda"


def _key(name: str) -> str:
    return _LAMBDA_KEY if name == "lam" else name


# The adaptive-run schema is AdaptiveConfig's fields under config-file
# names: a field without a default is required, an `int` field takes
# integers only, and a `... | None` field accepts null.
_TYPES = typing.get_type_hints(AdaptiveConfig)
ADAPTIVE_KEYS = tuple(_key(f.name) for f in fields(AdaptiveConfig))
_REQUIRED_ADAPTIVE = tuple(_key(f.name) for f in fields(AdaptiveConfig) if f.default is MISSING)
_INT_FIELDS = {_key(name) for name, t in _TYPES.items() if t is int} | {"n_reps"}
_OPTIONAL_FIELDS = {_key(name) for name, t in _TYPES.items() if type(None) in typing.get_args(t)}

HARNESS_KEYS = ("n_reps", "out_prefix", "fit_tail_fraction")
HARNESS_DEFAULTS = {"n_reps": 500, "out_prefix": "adapt", "fit_tail_fraction": 0.6}

COMPARE_KEYS = ("omega", _LAMBDA_KEY, "nbar", "t2", "k_factor")
COMPARE_DEFAULTS = {"nbar": 0.0, "k_factor": 1.0}
_REQUIRED_COMPARE = ("omega", _LAMBDA_KEY, "t2")


class ConfigError(Exception):
    """Invalid config with per-field diagnostics."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _load_mapping(path: str, overrides: dict | None, known, required) -> dict:
    """Read a config file, apply the non-None overrides, and check its keys."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError([f"config root must be a mapping, got {type(doc).__name__}"])
    if overrides:
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    problems = [f"{key}: unknown key" for key in sorted(set(doc) - set(known), key=str)]
    problems += [f"{key}: required key missing" for key in required if key not in doc]
    if problems:
        raise ConfigError(problems)
    return doc


def _coerce(key: str, value, problems: list[str]):
    if value is None and key in _OPTIONAL_FIELDS:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        problems.append(f"{key}: expected a number, got {value!r}")
        return None
    try:
        num = float(value)
    except (TypeError, ValueError):
        problems.append(f"{key}: expected a number, got {value!r}")
        return None
    if not math.isfinite(num):
        problems.append(f"{key}: expected a finite number, got {value!r}")
        return None
    if key in _INT_FIELDS:
        if num != int(num):
            problems.append(f"{key}: expected an integer, got {value!r}")
            return None
        return int(num)
    return num


def load_adaptive_config(path: str, overrides: dict | None = None):
    """Parse an adaptive-run config file into (AdaptiveConfig, harness dict).

    overrides (from command-line flags) replace file values; unknown
    keys anywhere raise ConfigError with one message per offending
    field.
    """
    doc = _load_mapping(path, overrides, ADAPTIVE_KEYS + HARNESS_KEYS, _REQUIRED_ADAPTIVE)
    problems = []
    values = {}
    for key in ADAPTIVE_KEYS:
        if key in doc:
            values[key] = _coerce(key, doc[key], problems)
    harness = dict(HARNESS_DEFAULTS)
    for key in HARNESS_KEYS:
        if key in doc:
            if key == "out_prefix":
                if not isinstance(doc[key], str) or not doc[key]:
                    problems.append(f"{key}: expected a nonempty string")
                else:
                    harness[key] = doc[key]
            else:
                val = _coerce(key, doc[key], problems)
                if val is not None:
                    harness[key] = val
    if problems:
        raise ConfigError(problems)

    kwargs = {("lam" if k == _LAMBDA_KEY else k): v for k, v in values.items()}
    try:
        cfg = AdaptiveConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc).split("; ")) from exc
    if not 0.0 < harness["fit_tail_fraction"] <= 1.0:
        raise ConfigError(["fit_tail_fraction: must lie in (0, 1]"])
    if harness["n_reps"] < 1:
        raise ConfigError(["n_reps: must be >= 1"])
    return cfg, harness


def load_compare_config(path: str, overrides: dict | None = None) -> dict:
    """Parse a controlled-vs-free comparison config into keyword arguments."""
    doc = _load_mapping(path, overrides, COMPARE_KEYS, _REQUIRED_COMPARE)
    problems = []
    out = dict(COMPARE_DEFAULTS)
    for key in COMPARE_KEYS:
        if key in doc:
            val = _coerce(key, doc[key], problems)
            if val is not None:
                out[key] = val
    if problems:
        raise ConfigError(problems)
    return {("lam" if k == _LAMBDA_KEY else k): v for k, v in out.items()}


def config_keys(values: dict) -> dict:
    """The mapping under config-file key names: `lam` becomes `lambda`."""
    return {_key(k): v for k, v in values.items()}


def adaptive_echo(cfg: AdaptiveConfig) -> dict:
    """Resolved config as a flat mapping under canonical key names."""
    return config_keys(asdict(cfg))
