"""Configuration files for the harness.

A config file is a JSON object with up to three sections -- ``search``,
``vehicle`` and ``sut`` -- whose keys mirror the corresponding parameter
dataclasses. Every key is optional (an empty file means "all defaults");
unknown keys are an error so typos cannot silently change a run. The road
geometry and the map are module constants, not settings.
"""
from __future__ import annotations

import json
from dataclasses import fields

from .search import SearchConfig
from .simulator import VehicleParams
from .protocol import SutDescriptor

__all__ = ["ConfigError", "parse_config_dict", "read_config", "serialize_config"]

_SECTIONS = {
    "search": SearchConfig,
    "vehicle": VehicleParams,
    "sut": SutDescriptor,
}


class ConfigError(ValueError):
    """Configuration problem; the message names the offending key path."""


def parse_config_dict(data: dict, overrides: dict | None = None):
    """Validate a config dictionary.

    Returns ``(SearchConfig, VehicleParams, SutDescriptor)``
    with every omitted key at its documented default. ``overrides`` maps a
    section to settings laid over the file's (the command-line flags).
    """
    if not isinstance(data, dict):
        raise ConfigError("top level: expected a JSON object")
    unknown = set(data) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}")

    parsed = {}
    for section, cls in _SECTIONS.items():
        raw = data.get(section, {})
        if not isinstance(raw, dict):
            raise ConfigError(f"{section}: expected an object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(f"{section}.{key}: unknown key")
        try:
            parsed[section] = cls(**{**raw, **(overrides or {}).get(section, {})})
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{section}: {exc}") from exc
    return (parsed["search"], parsed["vehicle"], parsed["sut"])


def read_config(path) -> dict:
    """Read a JSON config file, unvalidated; an empty file reads as {}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not text.strip():
        return {}
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested deeper than it goes
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def serialize_config(search: SearchConfig, vehicle: VehicleParams,
                     sut: SutDescriptor) -> dict:
    """Inverse of :func:`parse_config_dict`: parse(serialize(c)) == c."""
    return {section: {f.name: getattr(obj, f.name) for f in fields(obj)}
            for section, obj in (("search", search), ("vehicle", vehicle), ("sut", sut))}
