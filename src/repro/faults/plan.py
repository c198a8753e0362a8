"""Deterministic fault plans: *what* goes wrong, *where*, and *when*.

A :class:`FaultPlan` is a declarative list of :class:`FaultSpec` entries,
each naming an injection **site** (a string constant below).  Hardened
device/kernel code asks the plan — via the :class:`~repro.faults.inject.
FaultInjector` attached to the machine — whether a fault should fire at a
site it just reached.  All randomness flows through :func:`repro.common.
rng.make_rng` with one stream per site, so the same ``(plan, seed)``
always produces the same fault sequence regardless of which other streams
the scenario consumes.

Sites modelled (see docs/FAULTS.md for recovery semantics):

======================  =====================================================
site                    effect at the site
======================  =====================================================
``pcap.transfer_error``  the DevC transfer aborts with a CRC/DMA error
``pcap.hang``            the transfer stalls past its watchdog timeout
``bitstream.corrupt``    the streamed bitstream fails its checksum on landing
``prr.hang``             a started hardware task never signals DONE
``prr.spurious_done``    the PRR raises its PL IRQ with no completed work
``plirq.storm``          a burst of unsolicited PL IRQs on one line
``guest.bad_hypercall``  a guest issues malformed hypercalls (rogue module)
``guest.wild_pointer``   a guest programs wild DMA pointers (rogue module)
``service.crash``        the manager service dies at a named crashpoint
``service.hang``         the manager service stops draining its mailbox
``vm.kill``              a guest VM is killed outright (lifecycle recovery)
``board.crash``          a fleet board dies outright (docs/FLEET.md)
``board.hang``           a fleet board freezes: alive but makes no progress
``board.partition``      a fleet board is isolated from the dispatcher
``traffic.surge``        offered load multiplies for a window (flash crowd)
``retry.storm``          a board answers nothing while staying nominally up
======================  =====================================================

The ``board.*`` sites and the two overload sites are fleet-level fault
domains: they are
consulted by the dispatcher's :class:`~repro.fleet.rpc.BoardLink`
(not by on-board device code) and take a whole
:class:`~repro.fleet.board.BoardServer` with them — see docs/FLEET.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.rng import make_rng
from .registry import (  # noqa: F401  (canonical spellings, re-exported)
    ALL_SITES,
    BITSTREAM_CORRUPT,
    BOARD_CRASH,
    BOARD_HANG,
    BOARD_PARTITION,
    GUEST_BAD_HYPERCALL,
    GUEST_WILD_POINTER,
    PCAP_HANG,
    PCAP_TRANSFER_ERROR,
    PLIRQ_STORM,
    PRR_HANG,
    PRR_SPURIOUS_DONE,
    RETRY_STORM,
    SERVICE_CRASH,
    SERVICE_HANG,
    TRAFFIC_SURGE,
    VM_KILL,
    validate_spec_params,
)

#: max_fires value meaning "no limit".
UNLIMITED = -1


@dataclass(frozen=True)
class FaultSpec:
    """One armed fault: fire at ``site`` under the gating below.

    ``after``       skip the first N occurrences of the site entirely;
    ``every``       of the remaining occurrences, consider every Kth;
    ``max_fires``   stop after firing this many times (:data:`UNLIMITED`
                    for "keep firing");
    ``probability`` chance a considered occurrence actually fires, drawn
                    from the site's dedicated RNG stream (1.0 = always);
    ``params``      site-specific knobs (e.g. ``{"count": 8, "line": 3}``
                    for a :data:`PLIRQ_STORM` burst).
    """

    site: str
    after: int = 0
    max_fires: int = 1
    every: int = 1
    probability: float = 1.0
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.site not in ALL_SITES:
            raise ValueError(f"unknown fault site {self.site!r} "
                             f"(known: {', '.join(ALL_SITES)})")
        # Fail fast on a target that can never match (typo'd crashpoint,
        # unknown restart policy): such a spec would silently never fire
        # and the run would "pass" without testing anything.
        validate_spec_params(self.site, self.params)
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], "
                             f"got {self.probability}")

    def as_dict(self) -> dict:
        """JSON-stable form (explore schedules, shrinker repro files)."""
        return {"site": self.site, "after": self.after,
                "max_fires": self.max_fires, "every": self.every,
                "probability": self.probability,
                "params": dict(sorted(self.params.items()))}

    @classmethod
    def from_dict(cls, d: dict) -> "FaultSpec":
        """Inverse of :meth:`as_dict` (validates like the constructor)."""
        return cls(site=d["site"], after=int(d.get("after", 0)),
                   max_fires=int(d.get("max_fires", 1)),
                   every=int(d.get("every", 1)),
                   probability=float(d.get("probability", 1.0)),
                   params=dict(d.get("params", {})))


class FaultPlan:
    """A seeded set of :class:`FaultSpec` entries with firing state.

    ``should_fire(site)`` is the single decision point: it advances the
    per-site occurrence counter, applies the spec's gating, and returns
    the matching spec (so the caller can read ``params``) or ``None``.
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = (),
                 *, seed: int | None = None) -> None:
        self.seed = seed
        self.specs = tuple(specs)
        self._by_site: dict[str, FaultSpec] = {}
        for spec in self.specs:
            if spec.site in self._by_site:
                raise ValueError(f"duplicate spec for site {spec.site!r}")
            self._by_site[spec.site] = spec
        self._occurrences: dict[str, int] = {s: 0 for s in self._by_site}
        self._fires: dict[str, int] = {s: 0 for s in self._by_site}
        self._rngs = {s: make_rng(seed, stream=f"fault-{s}")
                      for s in self._by_site}

    # -- queries --------------------------------------------------------

    def spec_for(self, site: str) -> FaultSpec | None:
        return self._by_site.get(site)

    def fires(self, site: str) -> int:
        """How many times ``site`` has fired so far."""
        return self._fires.get(site, 0)

    def should_fire(self, site: str) -> FaultSpec | None:
        """Record an occurrence of ``site``; return its spec iff it fires."""
        spec = self._by_site.get(site)
        if spec is None:
            return None
        n = self._occurrences[site]
        self._occurrences[site] = n + 1
        if n < spec.after:
            return None
        if (n - spec.after) % spec.every != 0:
            return None
        if spec.max_fires != UNLIMITED and self._fires[site] >= spec.max_fires:
            return None
        if spec.probability < 1.0:
            # Draw even distance from the decision so the stream stays
            # aligned with the occurrence count, not the fire count.
            if self._rngs[site].random() >= spec.probability:
                return None
        self._fires[site] += 1
        return spec

    def summary(self) -> dict[str, dict[str, int]]:
        """Per-site occurrence/fire counts (for traces and the CLI)."""
        return {s: {"occurrences": self._occurrences[s],
                    "fires": self._fires[s]}
                for s in sorted(self._by_site)}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FaultPlan seed={self.seed} "
                f"sites=[{', '.join(sorted(self._by_site))}]>")
