"""Config-file parsing for the command-line runs.

Configs are human-readable key-value documents (YAML; JSON parses as a
YAML subset). Unknown keys and keys set twice are rejected rather than
resolved silently, because a silent typo in a physics parameter is the
dominant user error; missing keys fall back to documented defaults, and
the fully resolved config is echoed into every output file. The YAML
parser is imported by the first config read, not with the package.

A config's schema is the signature of the callable it feeds
(`AdaptiveConfig` for `adapt`, `compare_control` for `compare`), so the
keys, their defaults and their types are declared once, there.
"""

from __future__ import annotations

import inspect
import math
import typing

from .information import compare_control
from .protocol import AdaptiveConfig

__all__ = ["ConfigError", "load_adaptive_config", "load_compare_config", "echo"]

# Config-file names of the parameters whose Python name differs: the
# coupling strength is `lam` because `lambda` is a Python keyword.
_FILE_KEYS = {"lam": "lambda"}
_PARAMS = {key: name for name, key in _FILE_KEYS.items()}

# Keys `adapt` accepts beyond AdaptiveConfig's fields, all integers.
HARNESS_DEFAULTS = {"n_reps": 500}


class ConfigError(Exception):
    """Invalid config with per-field diagnostics."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def echo(values: dict) -> dict:
    """The mapping under config-file key names: `lam` becomes `lambda`."""
    return {_FILE_KEYS.get(k, k): v for k, v in values.items()}


def _schema(target):
    """Config keys of target's parameters: (all, required, integer).

    A parameter without a default is required, and an `int` one takes
    integers only.
    """
    params = inspect.signature(target).parameters.values()
    hints = typing.get_type_hints(target)
    keys = {p.name: _FILE_KEYS.get(p.name, p.name) for p in params}
    return (tuple(keys.values()),
            tuple(keys[p.name] for p in params if p.default is p.empty),
            {keys[name] for name in keys if hints[name] is int})


def _coerce(key: str, value, problems: list[str], integer=False):
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        problems.append(f"{key}: expected a number, got {value!r}")
        return None
    if integer and isinstance(value, (int, str)):
        try:
            return int(value)  # exact, where float() rounds above 2**53
        except ValueError:
            pass
    try:
        num = float(value)
    except (TypeError, ValueError):
        problems.append(f"{key}: expected a number, got {value!r}")
        return None
    if not math.isfinite(num):
        problems.append(f"{key}: expected a finite number, got {value!r}")
        return None
    if integer:
        if num != int(num):
            problems.append(f"{key}: expected an integer, got {value!r}")
            return None
        return int(num)
    return num


def _parse(fh):
    """The YAML document in fh, as yaml.safe_load reads it, except that a
    key set twice in one mapping raises ConfigError naming it (safe_load
    keeps the last value). A malformed or non-UTF-8 file raises
    ConfigError too.
    """
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            # a merge key (<<) brings in keys that the mapping may override
            keys = [self.construct_object(k, deep=True) for k, _ in node.value
                    if k.tag != "tag:yaml.org,2002:merge"]
            twice = []
            for i, key in enumerate(keys):
                if key in keys[:i] and key not in twice:
                    twice.append(key)
            if twice:
                raise ConfigError([f"{key}: key set more than once" for key in twice])
            return super().construct_mapping(node, deep=deep)

    try:
        return yaml.load(fh, Loader=UniqueKeyLoader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        # one line, where a YAML error's message spans several
        raise ConfigError(["malformed config file: " + " ".join(str(exc).split())]) from exc


def _load(target, path: str, overrides: dict | None, harness_defaults: dict):
    """Read a config file and call target with its values: (result, harness).

    overrides (from command-line flags) replace file values unless
    None. Keys in harness_defaults, which take integers, are accepted
    besides target's parameters and returned in the harness dict. Every
    problem, target's
    own ValueError included, raises one ConfigError with one line per
    problem.
    """
    keys, required, integer = _schema(target)
    with open(path, "r", encoding="utf-8") as fh:
        doc = _parse(fh)
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError([f"config root must be a mapping, got {type(doc).__name__}"])
    if overrides:
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    known = set(keys) | set(harness_defaults)
    problems = [f"{key}: unknown key" for key in sorted(set(doc) - known, key=str)]
    problems += [f"{key}: required key missing" for key in required if key not in doc]
    if problems:
        raise ConfigError(problems)

    kwargs = {_PARAMS.get(key, key): _coerce(key, doc[key], problems, key in integer)
              for key in keys if key in doc}
    harness = {**harness_defaults, **{key: _coerce(key, doc[key], problems, integer=True)
                                      for key in harness_defaults if key in doc}}
    if problems:
        raise ConfigError(problems)
    try:
        return target(**kwargs), harness
    except ValueError as exc:
        # a message that leads with a parameter name names its file key instead
        lines = [line.partition(" ") for line in str(exc).split("; ")]
        raise ConfigError([_FILE_KEYS.get(name, name) + sep + rest
                           for name, sep, rest in lines]) from exc


def load_adaptive_config(path: str, overrides: dict | None = None):
    """Parse an adaptive-run config file into (AdaptiveConfig, harness dict).

    The harness dict holds n_reps.
    """
    cfg, harness = _load(AdaptiveConfig, path, overrides, HARNESS_DEFAULTS)
    if harness["n_reps"] < 1:
        raise ConfigError(["n_reps: must be >= 1"])
    return cfg, harness


def load_compare_config(path: str, overrides: dict | None = None):
    """Parse a controlled-vs-free comparison config into its ComparisonReport."""
    return _load(compare_control, path, overrides, {})[0]
