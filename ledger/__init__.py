"""The repository benchmark: seven workloads, two clocks, per-layer attribution.

See ``ledger/README.md``.  Run with ``python3 ledger/run.py``; nothing in
here is imported by, or imports anything private from, the program under
``src/``.
"""
