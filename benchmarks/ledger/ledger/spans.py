"""The ledger's own span recorder (deliberately not ``repro.obs``).

Spans are ``(name, start, end, parent, request_id, attrs)`` rows kept in
memory and written to ``trace.jsonl`` when the run ends.  ``attrs``
carry sizes and counts only, never node ids or paths: the same
redaction rule the program's own telemetry obeys.

A span's *self time* is its duration minus the durations of its direct
children.  Children of one span never overlap (a protected request is
strictly sequential), so summing durations equals interval coverage —
and it also holds for the replayed server-side spans, which are
measured in-process after the fact and attached under the HTTP span
they explain.
"""

from __future__ import annotations

import json
from collections import defaultdict

ROOT = "request"

#: span name -> the layer (module) whose self time it counts toward
LAYER_OF = {
    "core.obfuscator.obfuscate": "obfuscator",
    "service.wire.encode_request": "wire",
    "service.wire.decode_request": "wire",
    "service.wire.encode_response": "wire",
    "service.wire.decode_response": "wire",
    "service.gateway.http": "gateway",
    "service.serving.answer": "serving",
    "search.process": "search",
    "core.filter.extract": "filter",
    "ledger.adapt": "adapt",
}


class Recorder:
    """In-memory span table; ids are row indexes."""

    def __init__(self) -> None:
        self.rows: list[list] = []

    def add(self, name, start, end, parent, request_id, **attrs) -> int:
        self.rows.append([name, start, end, parent, request_id, attrs])
        return len(self.rows) - 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, rid, attrs) in enumerate(
                self.rows
            ):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request_id": rid, **attrs,
                }) + "\n")


def self_times(rows: list[list]) -> list[float]:
    """Each span's duration minus its direct children's (row order)."""
    children = defaultdict(float)
    for _, start, end, parent, _, _ in rows:
        if parent is not None:
            children[parent] += end - start
    return [
        end - start - children[sid]
        for sid, (_, start, end, _, _, _) in enumerate(rows)
    ]


def reconcile(rows: list[list]) -> dict:
    """Per-layer self time against the end-to-end total.

    Returns ``{"e2e": Σ root durations, "layers": {layer: Σ self},
    "residual": e2e − Σ layers}``.  Self times are summed signed — one
    replayed answer outlasting the round trip it explains is timing
    noise that its neighbours cancel — and a layer whose *sum* is
    negative is clamped to zero, so systematically over-explained time
    lands in the residual with a negative sign: as much a bug as
    unexplained time.
    """
    e2e = 0.0
    layers: dict[str, float] = defaultdict(float)
    for (name, start, end, _, _, _), own in zip(rows, self_times(rows)):
        if name == ROOT:
            e2e += end - start
        elif name in LAYER_OF:
            layers[LAYER_OF[name]] += own
    layers = {layer: max(0.0, total) for layer, total in layers.items()}
    return {
        "e2e": e2e,
        "layers": layers,
        "residual": e2e - sum(layers.values()),
    }
