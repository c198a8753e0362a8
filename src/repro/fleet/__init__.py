"""Fleet layer: supervised multi-board serving with live migration.

The "cloud of Zynqs" of ROADMAP item 1 (docs/FLEET.md): N independent
:class:`~repro.machine.Machine` boards behind a supervised dispatcher —
placement by PRR availability and load, heartbeat failure detection,
checkpoint-based live migration across board fault domains
(``board.crash`` / ``board.hang`` / ``board.partition``), fleet
invariants F1-F6, and per-board telemetry folded through the mergeable
snapshot law.

The overload control plane (docs/FLEET.md §11) rides the same tick
loop: per-tenant token-bucket admission with deadline-aware bounded
queues, progressive priority-ordered load shedding, retry budgets and
circuit breakers on every :class:`BoardLink`, and brownout degradation
of best-effort hardware tasks — all gated by overload invariants O1-O5
(``traffic.surge`` / ``retry.storm`` fault sites).
"""

from .board import BoardServer, decode_checkpoint, encode_checkpoint
from .detector import FailureDetector
from .dispatcher import Dispatcher, FleetConfig, KillSpec
from .harness import (make_kill_schedule, run_brownout_demo, run_fleet,
                      run_fleet_bench, run_migration_demo)
from .invariants import check_fleet_invariants
from .overload import (AdmissionController, CircuitBreaker, LoadShedder,
                       OverloadConfig, RetryBudget, TokenBucket,
                       check_overload_invariants)
from .rpc import BoardLink, BoardUnreachable
from .tenant import TenantRecord, TenantSpec
from .traffic import TrafficModel

__all__ = [
    "AdmissionController", "BoardLink", "BoardServer", "BoardUnreachable",
    "CircuitBreaker", "Dispatcher", "FailureDetector", "FleetConfig",
    "KillSpec", "LoadShedder", "OverloadConfig", "RetryBudget",
    "TenantRecord", "TenantSpec", "TokenBucket", "TrafficModel",
    "check_fleet_invariants", "check_overload_invariants",
    "decode_checkpoint", "encode_checkpoint", "make_kill_schedule",
    "run_brownout_demo", "run_fleet",
    "run_fleet_bench", "run_migration_demo",
]
