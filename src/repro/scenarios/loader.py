"""Scenario documents: YAML/JSON in, validated :class:`Scenario` out.

The schema dataclasses are the only description of the document: one
reader walks each spec's ``dataclasses.fields`` and type hints, so the
document keys are exactly the field names (validation-first, fail-fast —
the AsyncFlow input-contract discipline):

* an unknown key is rejected with its document path;
* a key may be omitted exactly when its field has a default;
* values follow the annotation — ``str`` is a string, ``int`` an integer
  (an integral float is accepted), ``float`` a finite number (or a string
  that parses as one: PyYAML reads ``1e-3`` as a string), ``bool`` a
  boolean; a bool is never a number, NaN and ±inf are never accepted,
  ``X | None`` accepts null, and ``tuple[T, ...]`` needs a list;
* two entries have their own readers: a link's document form is flat
  (``src``, ``dst`` and the :class:`LinkParams` keys), and fault entries
  belong to :mod:`repro.net.faults`.

The resulting :class:`~repro.scenarios.schema.Scenario` re-validates all
cross-references on construction.  YAML support uses PyYAML when the
interpreter has it (the standard toolchain does) and falls back to JSON
otherwise — ``.json`` scenarios always work.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from pathlib import Path

from repro.net.faults import Fault, FaultPlanError, _fault_from_dict, finite_number
from repro.scenarios.schema import LinkParams, LinkSpec, Scenario, ScenarioError


def _check_keys(raw, known: set[str], path: str) -> None:
    if not isinstance(raw, dict):
        raise ScenarioError(path, f"expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - known
    if unknown:
        raise ScenarioError(path, f"unknown keys {sorted(unknown, key=str)} "
                                  f"(known: {sorted(known)})")


def _str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(path, f"expected a string, got {value!r}")
    return value


def _int(value, path: str) -> int:
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ScenarioError(path, f"expected an integer, got {value!r}")
    return int(value)


def _float(value, path: str) -> float:
    number = finite_number(value)
    if number is None:
        raise ScenarioError(path, f"expected a finite number, got {value!r}")
    return number


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(path, f"expected a boolean, got {value!r}")
    return value


_SCALARS = {str: _str, int: _int, float: _float, bool: _bool}


@functools.cache
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _value(hint, value, path: str):
    """Read one document value as the annotation ``hint`` says."""
    if dataclasses.is_dataclass(hint):
        return _read(hint, value, path)
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = (arg for arg in args if arg is not type(None))
        return _value(hint, value, path)
    if typing.get_origin(hint) is tuple:  # tuple[T, ...]
        if not isinstance(value, list):
            raise ScenarioError(path, f"expected a list, got {type(value).__name__}")
        return tuple(_value(args[0], item, f"{path}[{i}]")
                     for i, item in enumerate(value))
    return _SCALARS[hint](value, path)


def _values(cls, fields, raw: dict, path: str) -> dict:
    """Constructor arguments for ``fields`` of ``cls`` read from ``raw``."""
    values = {}
    for f in fields:
        key_path = f"{path}.{f.name}" if path else f.name
        if f.name in raw:
            values[f.name] = _value(_hints(cls)[f.name], raw[f.name], key_path)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ScenarioError(key_path, "missing required key")
    return values


def _read(cls, raw, path: str):
    """One spec from its document mapping (``path`` is ``""`` at the root)."""
    reader = _READERS.get(cls)
    if reader is not None:
        return reader(raw, path)
    fields = dataclasses.fields(cls)
    _check_keys(raw, {f.name for f in fields}, path or "scenario")
    return cls(**_values(cls, fields, raw, path))


def _read_link(raw, path: str) -> LinkSpec:
    """A link is flat: ``src``, ``dst`` and the :class:`LinkParams` keys."""
    ends = [f for f in dataclasses.fields(LinkSpec) if f.name != "params"]
    end_names = {f.name for f in ends}
    _check_keys(raw, end_names | {f.name for f in dataclasses.fields(LinkParams)}, path)
    params = {k: v for k, v in raw.items() if k not in end_names}
    return LinkSpec(**_values(LinkSpec, ends, raw, path),
                    params=_read(LinkParams, params, path))


def make_fault(raw, path: str) -> Fault:
    """Build one :class:`~repro.net.faults.Fault` from a scenario dict,
    translating structural errors into :class:`ScenarioError` with path."""
    try:
        return _fault_from_dict(raw)
    except FaultPlanError as exc:
        raise ScenarioError(path, str(exc)) from None


_READERS = {LinkSpec: _read_link, Fault: make_fault}


def scenario_from_dict(raw: dict) -> Scenario:
    """Build and fully validate a scenario from a parsed document."""
    return _read(Scenario, raw, "")


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse a YAML or JSON scenario document from a string."""
    try:
        import yaml
    except ImportError:  # pragma: no cover - PyYAML ships with the toolchain
        yaml = None
    if yaml is not None:
        try:
            raw = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError(source, f"not valid YAML: {exc}") from None
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                source, f"not valid JSON (and PyYAML is unavailable): {exc}"
            ) from None
    if not isinstance(raw, dict):
        raise ScenarioError(source, "document root must be a mapping")
    return scenario_from_dict(raw)


def load_scenario(path) -> Scenario:
    """Load and validate one scenario file (``.yaml``/``.yml``/``.json``)."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(str(path), "no such scenario file")
    return parse_scenario(path.read_text(), source=str(path))


def discover_scenarios(directory) -> list[Path]:
    """Scenario files under ``directory``, sorted by name."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        p for p in directory.iterdir()
        if p.suffix in (".yaml", ".yml", ".json") and p.is_file()
    )
