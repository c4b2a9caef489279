#!/usr/bin/env python3
"""Dump or diff the replay planes behind the pinned scenario digests.

Each digest in ``tests/scenarios/replay_digests.json`` is the SHA-256 of
one scenario's ``ScenarioResult.deterministic_view()``.  When a change
moves a digest, dump the views at the parent and at the change, then diff
them to see exactly which leaves moved:

    PYTHONPATH=src python tools/replay_plane.py --out change.json
    PYTHONPATH=../parent/src python tools/replay_plane.py \\
        --scenarios ../parent/scenarios --out parent.json
    python tools/replay_plane.py --diff parent.json change.json

A dump maps each scenario name to its digest, its envelope verdict and
its view.  ``--diff A B`` prints one line per changed leaf, as
``scenario: path: A-value -> B-value`` (``<absent>`` where a side lacks
the leaf), and then the scenarios with no change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ABSENT = "<absent>"


def dump(scenario_dir: Path) -> dict:
    """Run every scenario under ``scenario_dir``; name -> digest, verdict, view."""
    from repro.scenarios.loader import discover_scenarios, load_scenario
    from repro.scenarios.runner import run_scenario

    planes = {}
    for path in discover_scenarios(scenario_dir):
        result = run_scenario(load_scenario(path))
        planes[path.stem] = {
            "digest": result.digest(),
            "verdict": "pass" if result.passed else "fail",
            "view": result.deterministic_view(),
        }
        print(f"{path.stem}: {planes[path.stem]['digest']}", file=sys.stderr)
    return planes


def leaves(value, path: str = ""):
    """Yield (path, leaf) for every scalar under ``value``."""
    if isinstance(value, dict):
        for key in value:
            yield from leaves(value[key], f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def diff(a: dict, b: dict) -> list[str]:
    """One ``scenario: path: a -> b`` line per leaf that differs."""
    lines, unchanged = [], []
    for name in sorted(set(a) | set(b)):
        left = dict(leaves(a.get(name, {})))
        right = dict(leaves(b.get(name, {})))
        changed = [
            f"{name}: {path}: {left.get(path, ABSENT)} -> {right.get(path, ABSENT)}"
            for path in sorted(set(left) | set(right), key=str)
            if left.get(path, ABSENT) != right.get(path, ABSENT)
        ]
        lines += changed
        if not changed:
            unchanged.append(name)
    lines.append(f"unchanged: {', '.join(unchanged) if unchanged else '-'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenarios", type=Path, default=Path("scenarios"),
                        help="directory of scenario documents (default: scenarios)")
    parser.add_argument("--out", type=Path, help="write the dump here (default: stdout)")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two dumps instead of running anything")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(path.read_text()) for path in args.diff)
        print("\n".join(diff(a, b)))
        return 0
    text = json.dumps(dump(args.scenarios), indent=1, sort_keys=True)
    if args.out is None:
        print(text)
    else:
        args.out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
