"""The request ledger: an end-to-end protected-request benchmark.

See ``benchmarks/ledger/README.md``.  The package imports ``repro`` only
through its public API and never ``repro.obs``, so a later change to the
program's own telemetry cannot move this instrument.
"""
