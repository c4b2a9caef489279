"""Mutation fuzzer over the committed scenario corpus.

Every leaf, mapping and list of every ``scenarios/*.yaml`` document is
replaced in turn by a wrong-typed value (a bool, a list, a mapping with an
unknown key, a non-numeric string, NaN, ±inf), and every key is deleted.
Each mutant must either load or raise :class:`ScenarioError` — no other
exception may escape the loader.  Where the mutant contradicts the
schema's annotation for that position (or deletes a key whose field has
no default), loading must fail, with an error path naming the mutated key
or its parent (inside a fault entry: the entry itself).  A seeded pass
then stacks several mutations per document and checks that only
:class:`ScenarioError` escapes.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import random
import types
import typing
from pathlib import Path

import pytest
import yaml

from repro.scenarios import ScenarioError, discover_scenarios, scenario_from_dict
from repro.scenarios.schema import LinkParams, LinkSpec, Scenario

CORPUS = discover_scenarios(Path(__file__).resolve().parents[2] / "scenarios")

MUTANTS = {
    "bool": True,
    "list": ["~fuzz"],
    "mapping": {"~fuzz": 1},
    "string": "~fuzz",
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
}
DELETE = object()


def _slots(node, tokens=()):
    """Every (tokens, value) position below the document root."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield tokens + (key,), value
        yield from _slots(value, tokens + (key,))


def _path(tokens) -> str:
    out = ""
    for tok in tokens:
        out += f"[{tok}]" if isinstance(tok, int) else (f".{tok}" if out else tok)
    return out


def _strip_optional(hint):
    """``X`` for ``X | None``; any other hint unchanged."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    return hint


def _schema_slot(tokens):
    """(annotation, required) of the schema field at ``tokens``."""
    hint, required = Scenario, True
    for tok in tokens:
        hint = _strip_optional(hint)
        if isinstance(tok, int):
            args = typing.get_args(hint)
            hint = args[0] if args[-1] is Ellipsis else args[tok]
            required = True
            continue
        cls = LinkParams if hint is LinkSpec and tok not in ("src", "dst") else hint
        field = {f.name: f for f in dataclasses.fields(cls)}[tok]
        hint = typing.get_type_hints(cls)[tok]
        required = (field.default is dataclasses.MISSING
                    and field.default_factory is dataclasses.MISSING)
    return _strip_optional(hint), required


def _kind(hint):
    if dataclasses.is_dataclass(hint):
        return "mapping"
    if typing.get_origin(hint) is tuple:
        return "list"
    return {bool: "bool", str: "string"}.get(hint, "number")


def _must_raise(mutant: str, tokens) -> bool:
    hint, required = _schema_slot(tokens)
    if mutant == "delete":
        return required
    return mutant not in ("bool", "list", "string") or _kind(hint) != mutant


def _allowed_paths(tokens) -> set[str]:
    allowed = {_path(tokens), _path(tokens[:-1]) or "scenario"}
    if tokens[:2] == ("settings", "faults") and len(tokens) > 2:
        allowed.add(_path(tokens[:3]))
    return allowed


def _mutate(doc: dict, tokens, value) -> dict:
    mutant = copy.deepcopy(doc)
    parent = mutant
    for tok in tokens[:-1]:
        parent = parent[tok]
    if value is DELETE:
        del parent[tokens[-1]]
    else:
        parent[tokens[-1]] = copy.deepcopy(value)
    return mutant


def _load(doc) -> ScenarioError | None:
    """Load ``doc``; any exception other than ScenarioError fails the test."""
    try:
        scenario_from_dict(doc)
    except ScenarioError as exc:
        return exc
    return None


def _cases(doc):
    for tokens, _ in _slots(doc):
        for mutant, value in MUTANTS.items():
            yield tokens, mutant, value
        if isinstance(tokens[-1], str):
            yield tokens, "delete", DELETE


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_every_single_mutation_fails_closed(path):
    doc = yaml.safe_load(path.read_text())
    assert _load(doc) is None
    checked = 0
    for tokens, mutant, value in _cases(doc):
        where = f"{path.name}: {_path(tokens)} <- {mutant}"
        error = _load(_mutate(doc, tokens, value))
        if _must_raise(mutant, tokens):
            assert error is not None, f"{where} loaded"
            assert error.path in _allowed_paths(tokens), f"{where}: {error}"
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_seeded_stacked_mutations_fail_closed(path):
    doc = yaml.safe_load(path.read_text())
    rng = random.Random(f"scenario-fuzz:{path.stem}")
    for _ in range(40):
        mutant = doc
        for _ in range(rng.randint(2, 4)):
            slots = [tokens for tokens, _ in _slots(mutant)]
            if not slots:
                break
            tokens = rng.choice(slots)
            choice = rng.choice([*MUTANTS, "delete"])
            value = DELETE if choice == "delete" else MUTANTS[choice]
            if value is DELETE and isinstance(tokens[-1], int):
                value = MUTANTS["string"]
            mutant = _mutate(mutant, tokens, value)
        _load(mutant)
