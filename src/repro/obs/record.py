"""Kernel profiling hooks: a recorder protocol with a zero-cost default.

The CSR kernels (:mod:`repro.search.kernels`), the partition overlay
(:mod:`repro.search.overlay`) and the CH query loops
(:mod:`repro.search.ch.query`) each consult this module **once per
kernel invocation**, at the point where their locally accumulated
counters are merged into :class:`~repro.search.result.SearchStats`:

.. code-block:: python

    rec = record.RECORDER
    if rec is not None:
        rec.record("csr_dijkstra", settled, relaxed, pushes)

Disabled (the default, ``RECORDER is None``) the hook costs one module
attribute read and one ``is None`` branch per kernel call — never
anything inside the search loops.  ``tests/test_work_counters.py``
checks that a recording collector sees exactly one ``record`` call per
kernel invocation.

Recorders receive aggregate counters and partition cell ids only —
never node ids — matching the package-wide privacy invariant.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Protocol, runtime_checkable

from repro.obs.metrics import MetricsRegistry, sanitize_metric_name

__all__ = [
    "Recorder",
    "MetricsRecorder",
    "RECORDER",
    "set_recorder",
    "get_recorder",
    "recording",
]


@runtime_checkable
class Recorder(Protocol):
    """What a kernel profiling collector must implement."""

    def record(
        self,
        kernel: str,
        settled: int = 0,
        relaxed: int = 0,
        pushes: int = 0,
        cells: tuple[int, ...] = (),
    ) -> None:
        """Account one kernel invocation's aggregate counters.

        Parameters
        ----------
        kernel:
            Static kernel identifier (``"csr_dijkstra"``,
            ``"overlay_route"``, ...).
        settled, relaxed, pushes:
            The invocation's settled-node / relaxed-edge / heap-push
            counts.
        cells:
            Partition cell ids the invocation touched (overlay queries
            only; cell ids are aggregate layout facts, not endpoints).
        """
        ...  # pragma: no cover - protocol


#: the process-wide active recorder; ``None`` = profiling disabled.
#: Kernels read this module attribute directly so the disabled cost is
#: one attribute load and one branch per kernel call.
RECORDER: Recorder | None = None

_lock = threading.Lock()


def set_recorder(recorder: Recorder | None) -> Recorder | None:
    """Install ``recorder`` process-wide; returns the previous one."""
    global RECORDER
    with _lock:
        previous = RECORDER
        RECORDER = recorder
        return previous


def get_recorder() -> Recorder | None:
    """The currently installed recorder (``None`` when disabled)."""
    return RECORDER


@contextmanager
def recording(recorder: Recorder):
    """Install ``recorder`` for the duration of a ``with`` block.

    Restores whatever was installed before, so scoped profiling (a
    bench section, one experiment run) cannot leak into later code.
    """
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


class MetricsRecorder:
    """Recorder feeding per-kernel counters into a metrics registry.

    Creates four counters per distinct kernel name on first sight —
    ``repro_kernel_<kernel>_{calls,settled,relaxed,pushes}_total`` —
    plus ``repro_kernel_cells_touched_total`` for overlay cell visits.
    Instruments are cached on this recorder, so the steady-state cost
    per invocation is a few dict lookups and counter increments.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._by_kernel: dict[str, tuple] = {}
        self._cells = self.registry.counter(
            "repro_kernel_cells_touched_total",
            desc="partition cells touched by overlay kernel invocations",
        )
        self._lock = threading.Lock()

    def _instruments(self, kernel: str) -> tuple:
        instruments = self._by_kernel.get(kernel)
        if instruments is None:
            base = f"repro_kernel_{sanitize_metric_name(kernel)}"
            instruments = (
                self.registry.counter(
                    f"{base}_calls_total", desc=f"{kernel} invocations"
                ),
                self.registry.counter(
                    f"{base}_settled_total", desc=f"nodes settled by {kernel}"
                ),
                self.registry.counter(
                    f"{base}_relaxed_total", desc=f"edges relaxed by {kernel}"
                ),
                self.registry.counter(
                    f"{base}_pushes_total", desc=f"heap pushes by {kernel}"
                ),
            )
            with self._lock:
                instruments = self._by_kernel.setdefault(kernel, instruments)
        return instruments

    def record(
        self,
        kernel: str,
        settled: int = 0,
        relaxed: int = 0,
        pushes: int = 0,
        cells: tuple[int, ...] = (),
    ) -> None:
        """Accumulate one invocation into the registry's counters."""
        calls, c_settled, c_relaxed, c_pushes = self._instruments(kernel)
        calls.inc()
        if settled:
            c_settled.inc(settled)
        if relaxed:
            c_relaxed.inc(relaxed)
        if pushes:
            c_pushes.inc(pushes)
        if cells:
            self._cells.inc(len(cells))
