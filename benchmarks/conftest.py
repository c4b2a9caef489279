"""Benchmark-suite fixtures and reproduction-report plumbing.

Every benchmark module reproduces one table or figure of the paper.  Each
appends a formatted text block to the session-wide report; at the end of
the run the report is printed in the terminal summary and merged into
``benchmarks/results/report.txt`` so that ``bench_output.txt`` and the
repository both carry the regenerated tables.  The merge replaces each
block by its ``== title ==`` line and keeps every block this session did
not regenerate, so running one benchmark module updates only its section.

Methodology (see DESIGN.md §2 and EXPERIMENTS.md): per-block and
per-operation costs are *measured* on this machine with the paper's own
parameter sizes (|p| = 160 bits, |q| = 512 bits); totals for the paper's
2 GB workload are *extrapolated* through the closed-form cost model — the
same linearity the paper itself relies on.
"""

from __future__ import annotations

import os
import random
import re

import pytest

from repro.analysis.calibrate import calibrate
from repro.analysis.cost_model import CostModel
from repro.core.params import setup
from repro.pairing import TYPE_A_PARAM_SETS, TypeAPairingGroup

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

_REPORT_BLOCKS: list[str] = []


def record_report(title: str, lines: list[str]) -> None:
    """Register one experiment's reproduced table for the final report."""
    block = "\n".join([f"== {title} ==", *lines])
    _REPORT_BLOCKS.append(block)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    safe = title.split(":")[0].strip().lower().replace(" ", "_").replace("(", "").replace(")", "")
    with open(os.path.join(RESULTS_DIR, f"{safe}.txt"), "w") as fh:
        fh.write(block + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _REPORT_BLOCKS:
        return
    terminalreporter.section("paper reproduction report")
    for block in _REPORT_BLOCKS:
        terminalreporter.write_line("")
        for line in block.splitlines():
            terminalreporter.write_line(line)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "report.txt")
    blocks = _read_report_blocks(path)
    for block in _REPORT_BLOCKS:
        blocks[block.splitlines()[0]] = block  # same title: replaced in place
    with open(path, "w") as fh:
        fh.write("\n\n".join(blocks.values()) + "\n")


def _read_report_blocks(path: str) -> dict[str, str]:
    """The blocks of an existing report, keyed by their ``== title ==`` line."""
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        text = fh.read().removesuffix("\n")
    chunks = re.split(r"\n\n(?=== .* ==$)", text, flags=re.M) if text else []
    return {chunk.split("\n", 1)[0]: chunk for chunk in chunks}


@pytest.fixture(scope="session")
def paper_group():
    """The paper's parameterization: |r| = 160, |q| = 512."""
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["paper-160"])


@pytest.fixture(scope="session")
def fast_group():
    """Small parameters for functional (non-timing) benchmark setup."""
    return TypeAPairingGroup.from_params(TYPE_A_PARAM_SETS["toy-64"])


@pytest.fixture(scope="session")
def units(paper_group):
    """Calibrated unit costs of this machine at paper-scale parameters."""
    return calibrate(paper_group, repeats=8, rng=random.Random(42))


@pytest.fixture(scope="session")
def model(units):
    return CostModel(units)


@pytest.fixture(scope="session")
def paper_params_factory(paper_group):
    """Cached setup(paper_group, k) across benchmark modules."""
    cache: dict[int, object] = {}

    def factory(k: int):
        if k not in cache:
            cache[k] = setup(paper_group, k)
        return cache[k]

    return factory


@pytest.fixture()
def rng():
    return random.Random(20130708)
