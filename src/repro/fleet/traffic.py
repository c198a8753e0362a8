"""Open-loop synthetic traffic: seeded per-tenant request arrivals.

Each tenant gets its own decorrelated RNG stream
(``make_rng(seed, stream=f"fleet-arrivals-{name}")``) and draws exactly
one Poisson sample per tick — open-loop: arrivals do not react to
service progress, board failures or sheds, so offered load is identical
across runs that diverge in failure handling.  A square-wave burst
factor models diurnal load swings (docs/FLEET.md §5).

Because the draw count per tick is fixed, the arrival sequence is a
pure function of ``(seed, tenant names, tick)`` — the substrate of the
fleet's byte-identical rerun guarantee.
"""

from __future__ import annotations

from ..common.rng import make_rng


class TrafficModel:
    """Per-tenant open-loop arrival generator."""

    def __init__(self, tenant_names, *, seed: int, rate_per_tick: float,
                 burst_period_ticks: int = 16,
                 burst_factor: float = 2.0) -> None:
        self.rate = float(rate_per_tick)
        self.period = max(1, int(burst_period_ticks))
        self.factor = float(burst_factor)
        #: Scheduled surge windows ``(start_tick, duration_ticks,
        #: factor)``: extra offered-load multipliers stacked on the
        #: diurnal square wave.  The ``traffic.surge`` fault site and
        #: the surge series feed them through :meth:`schedule_surge`; the
        #: Poisson draw count per tick is unchanged, so determinism is too.
        self.surges: list[tuple[int, int, float]] = []
        self._rngs = {name: make_rng(seed, stream=f"fleet-arrivals-{name}")
                      for name in tenant_names}

    def schedule_surge(self, start: int, duration_ticks: int,
                       factor: float) -> None:
        """Multiply offered load by ``factor`` for ``duration_ticks``
        ticks beginning at ``start``."""
        if duration_ticks < 1:
            raise ValueError(
                f"surge duration_ticks must be >= 1: {duration_ticks}")
        if factor < 0:
            raise ValueError(f"surge factor must be >= 0: {factor}")
        self.surges.append((int(start), int(duration_ticks), float(factor)))

    def intensity(self, tick: int) -> float:
        """The offered-load multiplier at ``tick`` (square-wave burst
        stacked with any active scheduled surges)."""
        lam = self.factor if (tick // self.period) % 2 == 1 else 1.0
        for start, duration, factor in self.surges:
            if start <= tick < start + duration:
                lam *= factor
        return lam

    def arrivals(self, tick: int) -> dict[str, int]:
        """New request count per tenant this tick (one draw each)."""
        lam = self.rate * self.intensity(tick)
        return {name: int(rng.poisson(lam))
                for name, rng in self._rngs.items()}
