"""INI run configuration: parameters, initial state, integration limits.

The file format has three sections. ``[parameters]`` must list all
fourteen model parameters by their external names (the strain-one
transmission rate is spelled ``lambda``). ``[initial]`` optionally gives
the start state as ``P``, ``S``, ``V``, ``W``. ``[integration]``
optionally overrides integrator knobs. Unknown sections or keys are
rejected outright: silently ignoring a typo like ``lamda`` would change
the model being run.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .integrate import IntegrationConfig
from .model import ModelParameters, PARAMETER_KEYS, StateVector

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "dump_config"]

# Every field is settable from its section, in declaration order.
_INITIAL_KEYS = tuple(field.name for field in dataclasses.fields(StateVector))
_INTEGRATION_KEYS = tuple(field.name for field in dataclasses.fields(IntegrationConfig))
_SECTIONS = ("parameters", "initial", "integration")


class ConfigError(ValueError):
    """The configuration file is malformed or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration; ``initial`` is None when not given."""

    params: ModelParameters
    initial: StateVector | None
    integration: IntegrationConfig

    def require_initial(self) -> StateVector:
        if self.initial is None:
            raise ConfigError("this command needs an [initial] section (keys P, S, V, W)")
        return self.initial


def _float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from err


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; raises ConfigError on any defect."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keys are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from err

    unknown_sections = set(cp.sections()) - set(_SECTIONS)
    if unknown_sections:
        raise ConfigError(f"unknown sections: {sorted(unknown_sections)}")
    if not cp.has_section("parameters"):
        raise ConfigError("missing [parameters] section")

    raw_params = dict(cp.items("parameters"))
    unknown = set(raw_params) - set(PARAMETER_KEYS)
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    missing = set(PARAMETER_KEYS) - set(raw_params)
    if missing:
        raise ConfigError(f"missing parameter keys: {sorted(missing)}")
    values = {k: _float("parameters", k, v) for k, v in raw_params.items()}
    try:
        params = ModelParameters.from_dict(values)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid parameters: {err}") from err

    initial = None
    if cp.has_section("initial"):
        raw_init = dict(cp.items("initial"))
        unknown = set(raw_init) - set(_INITIAL_KEYS)
        if unknown:
            raise ConfigError(f"unknown initial-state keys: {sorted(unknown)}")
        missing = set(_INITIAL_KEYS) - set(raw_init)
        if missing:
            raise ConfigError(f"missing initial-state keys: {sorted(missing)}")
        try:
            initial = StateVector(**{k: _float("initial", k, raw_init[k]) for k in _INITIAL_KEYS})
        except ValueError as err:
            raise ConfigError(f"invalid initial state: {err}") from err

    integration = IntegrationConfig()
    if cp.has_section("integration"):
        raw_int = dict(cp.items("integration"))
        unknown = set(raw_int) - set(_INTEGRATION_KEYS)
        if unknown:
            raise ConfigError(f"unknown integration keys: {sorted(unknown)}")
        overrides = {k: _float("integration", k, v) for k, v in raw_int.items()}
        try:
            integration = dataclasses.replace(integration, **overrides)
        except ValueError as err:
            raise ConfigError(f"invalid integration settings: {err}") from err

    return RunConfig(params=params, initial=initial, integration=integration)


def load_config(path: str | Path) -> RunConfig:
    """Read and parse a config file; missing files raise ConfigError."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return parse_config(text)


def dump_config(config: RunConfig) -> str:
    """Render a RunConfig as canonical INI text.

    Keys appear in declaration order, floats in round-trip precision, so
    parse(dump(parse(text))) is the identity regardless of the original
    key order.
    """
    lines = ["[parameters]"]
    for key, value in config.params.as_dict().items():
        lines.append(f"{key} = {value!r}")
    if config.initial is not None:
        lines.append("")
        lines.append("[initial]")
        for key, value in zip(_INITIAL_KEYS, config.initial):
            lines.append(f"{key} = {value!r}")
    lines.append("")
    lines.append("[integration]")
    for key in _INTEGRATION_KEYS:
        lines.append(f"{key} = {getattr(config.integration, key)!r}")
    lines.append("")
    return "\n".join(lines)
