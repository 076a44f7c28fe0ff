"""The docs gate's wire-example check: live API examples pass, and a
body of an older schema or one the encoder would not send fails."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _api_doc(tmp_path, route_example: str) -> Path:
    doc = tmp_path / "API.md"
    doc.write_text(
        "# API\n\n## Request documents\n\n`RouteRequest`:\n\n```json\n"
        '{"schema": 3, "sources": [1], "destinations": [2]}\n```\n\n'
        "## Response documents\n\n`RouteResponse`:\n\n```json\n"
        f"{route_example}\n```\n\n"
        "## Errors\n\n`ErrorResponse`:\n\n```json\n"
        '{"schema": 3, "error": "internal",'
        ' "message": "internal server error"}\n```\n',
        encoding="utf-8",
    )
    return doc


def test_the_live_api_examples_pass(check_docs):
    assert check_docs.check_wire_examples() == []


def test_a_current_example_passes(check_docs, tmp_path):
    doc = _api_doc(
        tmp_path,
        '{"schema": 3, "paths": [[2.0, 0, 0, 0, 0, 17, 1, 37]],'
        ' "from_cache": false, "coalesced": false}',
    )
    assert check_docs.check_wire_examples(doc) == []


@pytest.mark.parametrize(
    "example",
    [
        # schema 2: full node ids, stamped 2
        '{"schema": 2, "paths": [[2.0, 0, 0, 0, 0, 17, 18, 55]],'
        ' "from_cache": false, "coalesced": false}',
        # no stamp at all
        '{"paths": [[2.0, 0, 0, 0, 0, 17, 1, 37]],'
        ' "from_cache": false, "coalesced": false}',
        # a listed prefix the encoder would send as a reference
        '{"schema": 3, "paths": [[2.0, 0, 0, 0, 0, 17, 1],'
        ' [2.0, 0, 0, 0, 0, 17, 2]],'
        ' "from_cache": false, "coalesced": false}',
    ],
)
def test_a_stale_example_fails(check_docs, tmp_path, example):
    errors = check_docs.check_wire_examples(_api_doc(tmp_path, example))
    assert len(errors) == 1
    assert "RouteResponse example" in errors[0]
