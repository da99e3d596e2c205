"""Schedule-space model checking for the runtime protocol layer.

The paper's §2.5 correctness properties are normally checked along the one
schedule the deterministic simulator happens to execute.  ``repro.verify``
drives the same :class:`~repro.sim.engine.SimEngine` through *all* relevant
schedules instead:

* :mod:`repro.verify.monitor` — a vector-clock happens-before layer over
  data-manager / index / lock operations, doubling as a race sanitizer
  (conflicting unordered fragment accesses become
  :class:`~repro.analysis.findings.Finding` errors) and as the DPOR
  independence relation (per-event dependence footprints);
* :mod:`repro.verify.oracle` — the pluggable tie-break oracle installed via
  :meth:`SimEngine.set_oracle`, recording a replayable decision trace;
* :mod:`repro.verify.explorer` — stateless DPOR exploration with sleep
  sets over the recorded traces, plus trace minimization;
* :mod:`repro.verify.scenarios` — small fixed 2–3 node scenarios
  (migration under read, balancer vs. pinned tasks, write-intent chains,
  replica-cache invalidation, service admission);
* :mod:`repro.verify.regressions` — mechanical reverts of the PR-6 and
  PR-8 protocol fixes, used to prove the checker rediscovers both bugs.

Run ``python -m repro.verify --help`` for the CLI.

The dependency points one way: the runtime knows nothing of this package.
The monitor reaches it as a subscriber of the runtime's probe
(:mod:`repro.runtime.probe`), installed through ``SimEngine.set_hb``.
"""
