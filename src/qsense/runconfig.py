"""Config-file parsing for the command-line runs.

A config is a JSON object of key-value pairs, read with the standard
library. Unknown keys and keys set twice are rejected rather than
resolved silently, because a silent typo in a physics parameter is the
dominant user error; missing keys fall back to documented defaults.
Each loader returns, beside its result, the fully resolved config: every
accepted key with the value used, which `cli` echoes into every output.

A config's schema is the signature of the callable it feeds
(`AdaptiveConfig` for `adapt`, `compare_control` for `compare`), so the
keys, their defaults and their types are declared once, there.
"""

from __future__ import annotations

import inspect
import json
import math
import typing

from .information import compare_control
from .protocol import AdaptiveConfig

__all__ = ["ConfigError", "load_adaptive_config", "load_compare_config"]

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


def _unique_keys(pairs):
    """A JSON object as a dict, or ConfigError naming each key it sets twice."""
    keys = [key for key, _ in pairs]
    twice = dict.fromkeys(key for i, key in enumerate(keys) if key in keys[:i])
    if twice:
        raise ConfigError([f"{key}: key set more than once" for key in twice])
    return dict(pairs)


def _load(target, path: str, overrides: dict | None, harness_defaults: dict):
    """Read a JSON config file and call target with its values: (result, resolved).

    overrides (from command-line flags) replace file values unless
    None. Keys in harness_defaults, which take integers, are accepted
    besides target's parameters. resolved maps every accepted key to
    the value used: the file or flag value, else the default. Every
    problem, target's own ValueError included, raises one ConfigError
    with one line per problem.
    """
    keys, required, integer = _schema(target)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as exc:
            # a JSONDecodeError, a UnicodeDecodeError, or an integer literal
            # longer than Python's int-to-string digit limit
            raise ConfigError([f"malformed config file: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([f"config root must be a mapping, got {type(doc).__name__}"])
    if overrides:
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    known = set(keys) | set(harness_defaults)
    problems = [f"{key}: unknown key" for key in sorted(set(doc) - known)]
    problems += [f"{key}: required key missing" for key in required if key not in doc]
    if problems:
        raise ConfigError(problems)

    kwargs = {_PARAMS.get(key, key): _coerce(key, doc[key], problems, key in integer)
              for key in keys if key in doc}
    harness = {key: _coerce(key, doc.get(key, default), problems, integer=True)
               for key, default in harness_defaults.items()}
    if problems:
        raise ConfigError(problems)
    try:
        result = target(**kwargs)
    except ValueError as exc:
        # a message that leads with a parameter name names its file key instead
        lines = [line.partition(" ") for line in str(exc).split("; ")]
        raise ConfigError([_FILE_KEYS.get(name, name) + sep + rest
                           for name, sep, rest in lines]) from exc
    bound = inspect.signature(target).bind(**kwargs)
    bound.apply_defaults()
    return result, {**{_FILE_KEYS.get(k, k): v for k, v in bound.arguments.items()}, **harness}


def load_adaptive_config(path: str, overrides: dict | None = None):
    """Parse an adaptive-run config file into (AdaptiveConfig, resolved config).

    The resolved config holds n_reps besides the AdaptiveConfig fields.
    """
    cfg, resolved = _load(AdaptiveConfig, path, overrides, HARNESS_DEFAULTS)
    if resolved["n_reps"] < 1:
        raise ConfigError(["n_reps: must be >= 1"])
    return cfg, resolved


def load_compare_config(path: str):
    """Parse a controlled-vs-free comparison config into (ComparisonReport, resolved config)."""
    return _load(compare_control, path, None, {})
