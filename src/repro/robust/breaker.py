"""Host circuit breakers: slow-host demotion and quarantine with probation.

The paper (section 4.2) tags hosts "slow" after failures and "bad" --
permanently excluded -- after ``max_retries`` failures.  The seed code
set the ``slow`` flag but never read it, and "bad" was forever.  The
breaker turns this into the classic three-state machine:

* **closed** (healthy): fetches pass; failures accumulate.  Once
  ``slow_after`` failures are on record the host is *slow*: its URLs
  get a demoted priority and a mandatory cool-down interval between
  consecutive fetches (a longer politeness interval).
* **open** (quarantined, the paper's "bad"): after ``open_after``
  *consecutive* failures no fetch passes until ``probe_at``.  URLs are
  deferred, not dropped, up to a bounded number of deferrals.
* **half-open** (probation): once ``probe_at`` passes, exactly one
  probe fetch is admitted.  Success closes the breaker and resets the
  host; failure re-opens it with the quarantine interval doubled (up to
  a cap), so a flapping host backs off geometrically.

All state is plain data and serializes into the crawl checkpoint;
``trips`` (every entry into open) and ``probes`` (every entry into
half-open) count the state changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BreakerPolicy", "HostBreaker", "BreakerBoard"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: admit() verdicts
ALLOW = "allow"
PROBE = "probe"
DEFER_SLOW = "defer_slow"
DEFER_QUARANTINE = "defer_quarantine"


@dataclass(frozen=True)
class BreakerPolicy:
    """Knobs of the per-host circuit breaker."""

    slow_after: int = 1
    """Failures on record before the host counts as slow."""
    open_after: int = 3
    """Consecutive failures before the breaker opens (host quarantined)."""
    quarantine: float = 600.0
    """Initial quarantine interval in simulated seconds."""
    quarantine_multiplier: float = 2.0
    """Growth factor per failed probation probe."""
    max_quarantine: float = 7200.0
    slow_priority_factor: float = 0.5
    """Priority multiplier for URLs of slow hosts."""
    slow_cooldown: float = 5.0
    """Extra politeness: minimum gap between fetch completions on a slow
    host and the next admitted fetch."""
    success_forgiveness: int = 1
    """Failures struck from the record per successful fetch."""
    max_deferrals: int = 3
    """Times one queue entry may be deferred by a quarantined host
    before it is dropped."""

    def validate(self) -> None:
        if self.open_after < 1:
            raise ValueError("open_after must be >= 1")
        if self.slow_after < 1:
            raise ValueError("slow_after must be >= 1")
        if self.quarantine <= 0 or self.max_quarantine < self.quarantine:
            raise ValueError("need 0 < quarantine <= max_quarantine")
        if self.quarantine_multiplier < 1.0:
            raise ValueError("quarantine_multiplier must be >= 1")
        if not 0.0 < self.slow_priority_factor <= 1.0:
            raise ValueError("slow_priority_factor must be in (0, 1]")
        if self.slow_cooldown < 0 or self.max_deferrals < 0:
            raise ValueError("slow_cooldown and max_deferrals must be >= 0")


@dataclass
class HostBreaker:
    """Failure state of one host (also carries the politeness slots)."""

    policy: BreakerPolicy = field(default_factory=BreakerPolicy)
    state: str = CLOSED
    failures: int = 0
    """Decaying failure record (drives the slow flag)."""
    consecutive: int = 0
    """Consecutive failures (drives the quarantine trip)."""
    probe_at: float = 0.0
    """When a quarantined host may be re-probed."""
    current_quarantine: float = 0.0
    next_ok: float = 0.0
    """Slow-host cool-down: no fetch admitted before this time."""
    trips: int = 0
    probes: int = 0
    busy_until: list[float] = field(default_factory=list)
    """Politeness slots (end times of in-flight fetches)."""

    # -- the two flags the rest of the engine reads ---------------------

    @property
    def slow(self) -> bool:
        return self.failures >= self.policy.slow_after

    @property
    def bad(self) -> bool:
        """Quarantined (the paper's "bad"), pending probation."""
        return self.state != CLOSED

    @property
    def priority_factor(self) -> float:
        return self.policy.slow_priority_factor if self.slow else 1.0

    # -- admission -------------------------------------------------------

    def admit(self, now: float) -> tuple[str, float]:
        """May a fetch start now?  Returns ``(verdict, ready_at)``.

        ``ALLOW``/``PROBE`` admit the fetch (ready_at == now); the defer
        verdicts carry the earliest time the URL should be offered again.
        """
        if self.state == OPEN:
            if now < self.probe_at:
                return DEFER_QUARANTINE, self.probe_at
            self.state = HALF_OPEN
            self.probes += 1
            return PROBE, now
        if self.state == HALF_OPEN:
            # a probe resolved against us since this entry was queued
            return DEFER_QUARANTINE, max(self.probe_at, now)
        if self.slow and now < self.next_ok:
            return DEFER_SLOW, self.next_ok
        return ALLOW, now

    def note_fetch_end(self, end: float) -> None:
        """Record the fetch completion time; slow hosts get a cool-down."""
        if self.slow:
            self.next_ok = max(self.next_ok, end + self.policy.slow_cooldown)

    # -- outcomes --------------------------------------------------------

    def record_success(self, now: float) -> None:
        """A fetch got a response (any response: the host is alive)."""
        if self.state in (HALF_OPEN, OPEN):
            # probation passed: full reset
            self.state = CLOSED
            self.failures = 0
            self.consecutive = 0
            self.current_quarantine = 0.0
            self.next_ok = 0.0
            return
        self.consecutive = 0
        self.failures = max(0, self.failures - self.policy.success_forgiveness)

    def record_failure(self, now: float) -> None:
        """A fetch timed out / 5xx'd / failed DNS resolution."""
        self.failures += 1
        self.consecutive += 1
        if self.state == HALF_OPEN:
            # failed probation probe: back off geometrically
            self.current_quarantine = min(
                self.current_quarantine * self.policy.quarantine_multiplier,
                self.policy.max_quarantine,
            )
            self.state = OPEN
            self.probe_at = now + self.current_quarantine
            self.trips += 1
            return
        if self.state == CLOSED and self.consecutive >= self.policy.open_after:
            self.state = OPEN
            self.current_quarantine = self.policy.quarantine
            self.probe_at = now + self.current_quarantine
            self.trips += 1

    # -- checkpoint ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "consecutive": self.consecutive,
            "probe_at": self.probe_at,
            "current_quarantine": self.current_quarantine,
            "next_ok": self.next_ok,
            "trips": self.trips,
            "probes": self.probes,
            "busy_until": list(self.busy_until),
        }

    @classmethod
    def from_dict(cls, data: dict, policy: BreakerPolicy) -> "HostBreaker":
        return cls(
            policy=policy,
            state=data["state"],
            failures=data["failures"],
            consecutive=data["consecutive"],
            probe_at=data["probe_at"],
            current_quarantine=data["current_quarantine"],
            next_ok=data["next_ok"],
            trips=data["trips"],
            probes=data["probes"],
            busy_until=list(data["busy_until"]),
        )


class BreakerBoard:
    """The registry of per-host breakers (one crawl's host table)."""

    def __init__(self, policy: BreakerPolicy | None = None) -> None:
        self.policy = policy or BreakerPolicy()
        self.policy.validate()
        self._hosts: dict[str, HostBreaker] = {}

    def get(self, host: str) -> HostBreaker:
        breaker = self._hosts.get(host)
        if breaker is None:
            breaker = HostBreaker(policy=self.policy)
            self._hosts[host] = breaker
        return breaker

    def admit(self, host: str, now: float) -> tuple[HostBreaker, str, float]:
        """One-call admission for the pipeline's admit stage: returns
        ``(breaker, verdict, ready_at)`` for ``host`` at ``now``."""
        breaker = self.get(host)
        verdict, ready_at = breaker.admit(now)
        return breaker, verdict, ready_at

    def priority_factor(self, host: str) -> float:
        """Demotion factor for links into ``host`` (1.0 for unknown
        hosts -- looking must not create a breaker)."""
        breaker = self._hosts.get(host)
        return breaker.priority_factor if breaker is not None else 1.0

    def __len__(self) -> int:
        return len(self._hosts)

    def __contains__(self, host: str) -> bool:
        return host in self._hosts

    def stats(self) -> dict[str, float]:
        """Board-level counters (:class:`repro.obs.api.Instrumented`)."""
        breakers = self._hosts.values()
        return {
            "hosts_tracked": float(len(self._hosts)),
            "hosts_quarantined": float(sum(1 for b in breakers if b.bad)),
            "hosts_slow": float(sum(1 for b in breakers if b.slow)),
            "breaker_trips": float(sum(b.trips for b in breakers)),
            "breaker_probes": float(sum(b.probes for b in breakers)),
        }

    def to_dict(self) -> dict:
        return {host: breaker.to_dict() for host, breaker in self._hosts.items()}

    def restore(self, data: dict) -> None:
        self._hosts = {
            host: HostBreaker.from_dict(state, self.policy)
            for host, state in data.items()
        }
