"""Robustness layer for the crawl runtime (paper section 4.2, hardened).

The paper's crawl management knows three host states -- healthy, "slow"
and "bad" -- plus retries.  This package turns that sketch into an
operable subsystem:

* :mod:`repro.robust.retry` -- per-host retry policy with exponential
  backoff, deterministic jitter and a per-phase retry budget;
* :mod:`repro.robust.breaker` -- host circuit breakers: slow hosts get
  demoted priority and a longer politeness interval, bad hosts enter a
  quarantine with probation re-probes instead of permanent exclusion;
* :mod:`repro.robust.faults` -- deterministic fault injection on the
  synthetic Web (burst failure windows, flaky DNS, host flapping);
* :mod:`repro.robust.checkpoint` -- crawl checkpoint/resume: frontier,
  dedup tables, host states and counters serialize through
  :mod:`repro.storage.persistence` so an interrupted phase resumes to
  the same Table-1 counters as an uninterrupted run.
"""

from repro.robust.breaker import BreakerBoard, BreakerPolicy, HostBreaker
from repro.robust.checkpoint import (
    Checkpointer,
    load_checkpoint,
    restore_context,
    save_checkpoint,
    snapshot_context,
)
from repro.robust.faults import FaultInjector, FaultWindow
from repro.robust.retry import RetryPolicy

__all__ = [
    "RetryPolicy",
    "BreakerPolicy",
    "HostBreaker",
    "BreakerBoard",
    "FaultWindow",
    "FaultInjector",
    "Checkpointer",
    "snapshot_context",
    "save_checkpoint",
    "load_checkpoint",
    "restore_context",
]
