"""The documentation stays true: CLI invocations parse, links resolve.

Four checks keep the prose and the code from drifting apart:

* every ``repro-pdp ...`` command shown in a fenced code block of the
  documentation parses against the real argparse tree;
* every relative markdown link (and ``#anchor``) in README/DESIGN/
  EXPERIMENTS/docs/*.md points at a file (and heading) that exists;
* the bench ``--suite`` help text names exactly the registered suites;
* every ``repro.<module>:<Symbol>`` code anchor in docs/PROTOCOL.md, and
  every backticked ``repro.<dotted.name>`` in any document, imports and
  resolves, so the narrative cannot name code that is gone.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.obs.bench import SUITES

REPO = Path(__file__).resolve().parents[2]
DOC_FILES = sorted(
    [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md"]
    + list((REPO / "docs").glob("*.md"))
)


def _fenced_blocks(text: str) -> list[str]:
    return re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.DOTALL)


def _documented_commands() -> list[tuple[str, str]]:
    """Every ``repro-pdp ...`` line in a fenced block, per source file."""
    commands = []
    for path in DOC_FILES:
        for block in _fenced_blocks(path.read_text()):
            # Join backslash line continuations before scanning.
            joined = re.sub(r"\\\n\s*", " ", block)
            for line in joined.splitlines():
                line = line.strip()
                if not line.startswith("repro-pdp"):
                    continue
                # Keep only the repro-pdp command of a shell pipeline.
                line = re.split(r"\s(?:&&|\|\||\|)\s", line)[0].strip()
                commands.append((path.name, line))
    return commands


DOCUMENTED = _documented_commands()


def test_docs_actually_document_the_cli():
    assert len(DOCUMENTED) >= 8, DOCUMENTED


@pytest.mark.parametrize(
    "source,command", DOCUMENTED, ids=[f"{s}:{c[:60]}" for s, c in DOCUMENTED]
)
def test_documented_invocation_parses(source, command):
    argv = shlex.split(command, comments=True)[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports errors via sys.exit
        pytest.fail(f"{source}: `{command}` does not parse (exit {exc.code})")
    assert callable(args.fn)


def test_bench_suite_help_matches_registry():
    parser = build_parser()
    # Find the bench run --suite help string through the subparser tree.
    bench = next(
        a for a in parser._subparsers._group_actions[0].choices.items()
        if a[0] == "bench"
    )[1]
    run = bench._subparsers._group_actions[0].choices["run"]
    suite_action = next(a for a in run._actions if "--suite" in a.option_strings)
    documented = set(re.findall(r"[a-z0-9_]+", suite_action.help)) - {
        "suite", "name", "or", "all",
    }
    assert documented == set(SUITES), (
        f"--suite help names {sorted(documented)}, registry has {sorted(SUITES)}"
    )


def test_docs_document_the_scenario_engine():
    """The scenario command group is load-bearing documentation: at least
    one documented invocation per subcommand must appear (and therefore
    parse, via test_documented_invocation_parses)."""
    scenario_lines = [c for _, c in DOCUMENTED if c.startswith("repro-pdp scenario")]
    for sub in ("validate", "run", "list"):
        assert any(f"scenario {sub}" in line for line in scenario_lines), (
            f"no doc shows `repro-pdp scenario {sub} ...`: {scenario_lines}"
        )


def test_docs_document_the_ledger_commands():
    """The flight-recorder verification workflow must be documented: at
    least one parseable invocation per ledger subcommand."""
    ledger_lines = [c for _, c in DOCUMENTED if c.startswith("repro-pdp ledger")]
    for sub in ("verify", "show", "head"):
        assert any(f"ledger {sub}" in line for line in ledger_lines), (
            f"no doc shows `repro-pdp ledger {sub} ...`: {ledger_lines}"
        )
    # The recorder itself must be shown attached to a run.
    assert any("--ledger" in c for _, c in DOCUMENTED), (
        "no doc shows a run with --ledger PATH"
    )


def test_docs_referenced_scenarios_exist_and_validate():
    """Every ``scenarios/*.yaml`` path the docs mention is a real,
    schema-valid document in the committed corpus."""
    from repro.scenarios import load_scenario

    pattern = re.compile(r"scenarios/[\w.-]+\.(?:ya?ml|json)")
    referenced = set()
    for path in DOC_FILES:
        referenced.update(pattern.findall(path.read_text()))
    assert referenced, "docs never reference a scenario document"
    for rel in sorted(referenced):
        target = REPO / rel
        assert target.exists(), f"docs reference {rel}, which does not exist"
        load_scenario(target)  # raises ScenarioError on an invalid document


def test_docs_document_the_dynamic_tier():
    """The dynamic-data workflow must be documented end to end: create,
    audit, status, and at least one batched update invocation (all of
    which therefore parse, via test_documented_invocation_parses), plus
    the committed dynamic scenario corpus."""
    lines = [c for _, c in DOCUMENTED]
    for needle in ("dynamic create", "dynamic audit", "dynamic status"):
        assert any(needle in line for line in lines), (
            f"no doc shows `repro-pdp {needle} ...`"
        )
    assert any(line.startswith("repro-pdp update ") for line in lines), (
        "no doc shows a `repro-pdp update <member> <file> ...` batch"
    )
    corpus = "".join(p.read_text() for p in DOC_FILES)
    for name in ("dynamic_churn", "dynamic_log_append", "dynamic_hot_block"):
        assert f"scenarios/{name}.yaml" in corpus, (
            f"docs never reference scenarios/{name}.yaml"
        )


_CODE_ANCHOR = re.compile(r"`(repro\.[\w.]+):([\w.]+)`")
_DOTTED_NAME = re.compile(r"`(repro(?:\.\w+)+)")


def _resolve_dotted(name: str):
    """Import the longest module prefix of ``name``, getattr the rest."""
    import importlib

    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ModuleNotFoundError(name)


def test_protocol_code_anchors_resolve():
    """docs/PROTOCOL.md annotates every flow step with
    ``repro.<module>:<Symbol>.<attr>`` anchors, and every document may
    name code as a backticked ``repro.<dotted.name>``; each one must
    import and getattr-resolve against the current tree, so a deleted
    module or function cannot stay documented."""
    refs = sorted(set(_CODE_ANCHOR.findall(
        (REPO / "docs" / "PROTOCOL.md").read_text())))
    assert len(refs) >= 30, f"PROTOCOL.md lost its code anchors: {refs}"
    names = {("PROTOCOL.md", f"{module}.{symbol}") for module, symbol in refs}
    for path in DOC_FILES:
        names.update((path.name, n) for n in _DOTTED_NAME.findall(path.read_text()))
    broken = []
    for source, name in sorted(names):
        try:
            _resolve_dotted(name)
        except (ImportError, AttributeError) as exc:
            broken.append(f"{source}: {name} ({exc})")
    assert not broken, "stale code references: " + "; ".join(broken)


def test_protocol_names_every_dynamic_ledger_kind():
    """The update lifecycle's ledger records are part of the documented
    contract; PROTOCOL.md must name each kind the dynamic tier writes."""
    text = (REPO / "docs" / "PROTOCOL.md").read_text()
    for kind in ("dyn_create", "dyn_update_begin", "dyn_update_commit",
                 "dyn_audit"):
        assert f"`{kind}`" in text, f"PROTOCOL.md never names {kind}"


def _github_anchor(heading: str) -> str:
    """GitHub's heading → anchor slug (lowercase, punctuation dropped)."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading.strip())
    heading = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)  # linked headings
    heading = heading.lower()
    heading = re.sub(r"[^\w\- ]", "", heading, flags=re.UNICODE)
    return heading.replace(" ", "-")


def _anchors(path: Path) -> set:
    anchors = set()
    in_fence = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        elif not in_fence and re.match(r"#{1,6}\s", line):
            anchors.add(_github_anchor(line.lstrip("#")))
    return anchors


_LINK = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")


@pytest.mark.parametrize("path", DOC_FILES, ids=[p.name for p in DOC_FILES])
def test_relative_links_resolve(path):
    text = path.read_text()
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        dest = (path.parent / file_part).resolve() if file_part else path
        if not dest.exists():
            broken.append(f"{target}: {file_part} does not exist")
            continue
        if anchor and dest.suffix == ".md" and anchor not in _anchors(dest):
            broken.append(f"{target}: no heading for #{anchor} in {dest.name}")
    assert not broken, f"{path.name}: " + "; ".join(broken)


def test_readme_mentions_every_top_level_command():
    readme = (REPO / "README.md").read_text()
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    missing = [name for name in commands if name not in readme]
    assert not missing, f"README.md never mentions: {missing}"
