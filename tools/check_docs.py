#!/usr/bin/env python
"""Docs gate: internal links, doctests, and public-docstring audit.

Run from the repo root (CI's docs job does exactly this):

    PYTHONPATH=src python tools/check_docs.py

Six checks, all stdlib-only:

1. every relative markdown link in ``docs/*.md`` and ``README.md``
   resolves to an existing file;
2. ``doctest`` passes on the doctest-bearing modules;
3. every public module/class/function/method in the documented modules
   (the directions server and the system facade, the serving layer,
   the engine registry, the MSMD processors, the workload replay
   format) has a docstring — the stdlib mirror of
   ruff's D1 rules, so the gate also runs where ruff isn't installed;
4. the first column of README's engine table equals
   ``repro.search.list_engines()``, so an engine added to or deleted
   from the table in ``repro/search/__init__.py`` cannot leave the docs
   behind;
5. every ``repro <subcommand> ... --flag`` written in README,
   ``docs/*.md``, the verify skill and the ``python -m repro ...``
   commands of ``.github/workflows/ci.yml`` names a flag that
   subcommand's parser in ``repro.cli`` accepts, so a removed or renamed
   flag cannot survive in an example or fail only when CI runs;
6. every ``json`` example under "Request documents", "Response
   documents" and "Errors" in ``docs/API.md`` decodes with the live wire
   class named nearest above it (``RouteRequest``, ``BatchRequest``,
   ``RouteResponse``, ``BatchResponse`` or ``ErrorResponse``), carries
   ``"schema": WIRE_SCHEMA_VERSION`` and is exactly the document that
   class encodes for what it decoded, so an example cannot outlive a
   schema change (a body of an older schema fails on its stamp) and
   shows no entry or message the live encoder would not send.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

MARKDOWN_FILES = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]

DOCTEST_MODULES = [
    "repro",
    "repro.service.cache",
    "repro.obs.metrics",
]

DOCSTRING_AUDIT_FILES = [
    "src/repro/core/server.py",
    "src/repro/core/system.py",
    "src/repro/network/csr.py",
    "src/repro/network/partition.py",
    "src/repro/obs/__init__.py",
    "src/repro/obs/metrics.py",
    "src/repro/obs/trace.py",
    "src/repro/search/__init__.py",
    "src/repro/search/ch/__init__.py",
    "src/repro/search/ch/contract.py",
    "src/repro/search/ch/persist.py",
    "src/repro/search/kernels.py",
    "src/repro/search/multi.py",
    "src/repro/search/vectorized.py",
    "src/repro/service/__init__.py",
    "src/repro/service/blob.py",
    "src/repro/service/cache.py",
    "src/repro/service/gateway.py",
    "src/repro/service/serving.py",
    "src/repro/service/simulator.py",
    "src/repro/service/stats.py",
    "src/repro/service/wire.py",
    "src/repro/workloads/loadgen.py",
    "src/repro/workloads/replay.py",
    "src/repro/workloads/scenarios.py",
]

# Dunders where a docstring adds nothing over the data-model contract.
_EXEMPT = {"__init__", "__repr__", "__str__", "__post_init__"}

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def check_links() -> list[str]:
    """Return one error string per broken relative markdown link."""
    errors = []
    for md in MARKDOWN_FILES:
        for target in _LINK.findall(md.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = (md.parent / target.split("#", 1)[0]).resolve()
            if not path.exists():
                errors.append(f"{md.relative_to(REPO)}: broken link -> {target}")
    return errors


def run_doctests() -> list[str]:
    """Return one error string per failing doctest module."""
    errors = []
    for name in DOCTEST_MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module)
        if result.failed:
            errors.append(
                f"{name}: {result.failed}/{result.attempted} doctests failed"
            )
    return errors


def _audit_node(node: ast.AST, where: str, errors: list[str]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            name = child.name
            public = not name.startswith("_") or (
                name.startswith("__") and name.endswith("__")
                and name not in _EXEMPT
            )
            if public and ast.get_docstring(child) is None:
                errors.append(f"{where}: missing docstring on {name!r}")
            if isinstance(child, ast.ClassDef) and public:
                _audit_node(child, f"{where}::{name}", errors)


def audit_docstrings() -> list[str]:
    """Return one error string per public symbol lacking a docstring."""
    errors: list[str] = []
    for rel in DOCSTRING_AUDIT_FILES:
        path = REPO / rel
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if ast.get_docstring(tree) is None:
            errors.append(f"{rel}: missing module docstring")
        _audit_node(tree, rel, errors)
    return errors


_ENGINE_ROW = re.compile(r"^\| `([a-z0-9-]+)`\s*\|")


def check_engine_table() -> list[str]:
    """Return the engines README's table and the registry disagree on."""
    from repro.search import list_engines, numpy_available

    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Search engines", 1)[1].split("\n## ", 1)[0]
    documented = {
        match.group(1)
        for match in map(_ENGINE_ROW.match, section.splitlines())
        if match
    }
    registered = set(list_engines())
    if not numpy_available():
        registered.add("dijkstra-vec")  # registers only with numpy
    return [
        f"README.md engine table: {name!r} is {problem}"
        for names, problem in (
            (registered - documented, "registered but has no row"),
            (documented - registered, "not a registered engine"),
        )
        for name in sorted(names)
    ]


VERIFY_SKILL = REPO / ".claude" / "skills" / "verify" / "SKILL.md"
CI_WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"

_FENCED = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
_CODE_SPAN = re.compile(r"`([^`]+)`")
_COMMAND = re.compile(r"\brepro\s+([a-z][a-z-]*)((?:[ \t]+[^\s#&|]+)*)")
_FLAG = re.compile(r"(?<!\S)(--[a-z][a-z0-9-]*)")


def _command_lines(text: str) -> list[str]:
    """Lines of fenced blocks plus inline code spans (re-joined if wrapped)."""
    text = text.replace("\\\n", " ")
    lines = [
        line for block in _FENCED.findall(text) for line in block.splitlines()
    ]
    prose = _FENCED.sub("", text)
    return lines + [" ".join(s.split()) for s in _CODE_SPAN.findall(prose)]


def _ci_command_lines(text: str) -> list[str]:
    """The workflow's ``python -m repro ...`` lines, ``\\``-continuations joined."""
    text = re.sub(r"\\\n\s*", " ", text)
    return [line for line in text.splitlines() if "python -m repro " in line]


def check_cli_flags(ci_workflow: Path = CI_WORKFLOW) -> list[str]:
    """Return one error per documented ``repro`` flag the CLI lacks."""
    import argparse

    from repro.cli import build_parser

    subcommands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    sources = [
        (md, _command_lines(md.read_text(encoding="utf-8")))
        for md in MARKDOWN_FILES + [VERIFY_SKILL]
        if md.exists()
    ]
    if ci_workflow.exists():
        sources.append(
            (ci_workflow, _ci_command_lines(ci_workflow.read_text("utf-8")))
        )
    errors = set()
    for path, lines in sources:
        where = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        for line in lines:
            for name, rest in _COMMAND.findall(line):
                if name not in subcommands:
                    continue
                known = subcommands[name]._option_string_actions
                errors.update(
                    f"{where}: `repro {name}` has no {flag}"
                    for flag in _FLAG.findall(rest)
                    if flag not in known
                )
    return sorted(errors)


API_DOC = REPO / "docs" / "API.md"
WIRE_SECTIONS = ("Request documents", "Response documents", "Errors")
WIRE_CLASSES = (
    "RouteRequest", "BatchRequest", "RouteResponse", "BatchResponse",
    "ErrorResponse",
)
_JSON_BLOCK = re.compile(r"^```json\n(.*?)^```", re.MULTILINE | re.DOTALL)


def check_wire_examples(api_doc: Path = API_DOC) -> list[str]:
    """Return one error per API example its wire class does not decode
    to itself under the current schema stamp."""
    from repro.service import wire

    text = api_doc.read_text(encoding="utf-8")
    errors = []
    for section in WIRE_SECTIONS:
        parts = text.split(f"\n## {section}\n", 1)
        if len(parts) < 2:
            errors.append(f"{api_doc.name}: no section {section!r}")
            continue
        body = parts[1].split("\n## ", 1)[0]
        for block in _JSON_BLOCK.finditer(body):
            above = body[: block.start()]
            at, name = max((above.rfind(f"`{c}`"), c) for c in WIRE_CLASSES)
            if at < 0:
                errors.append(
                    f"{api_doc.name} {section}: example names no wire class"
                )
                continue
            where = f"{api_doc.name} {section}: {name} example"
            try:
                decoded = getattr(wire, name).from_json(block.group(1))
            except wire.WireError as exc:
                errors.append(f"{where} does not decode ({exc})")
                continue
            doc = json.loads(block.group(1))
            if doc.get("schema") != wire.WIRE_SCHEMA_VERSION:
                errors.append(
                    f"{where} is not stamped schema "
                    f"{wire.WIRE_SCHEMA_VERSION}"
                )
            elif decoded.to_dict() != doc:
                errors.append(f"{where} is not what {name} encodes for it")
    return errors


def main() -> int:
    """Run all six checks; print a summary and return an exit code."""
    failures = []
    for label, check in (
        ("links", check_links),
        ("doctests", run_doctests),
        ("docstrings", audit_docstrings),
        ("engine table", check_engine_table),
        ("cli flags", check_cli_flags),
        ("wire examples", check_wire_examples),
    ):
        errors = check()
        status = "ok" if not errors else f"{len(errors)} error(s)"
        print(f"[check_docs] {label}: {status}")
        for error in errors:
            print(f"  - {error}")
        failures.extend(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
