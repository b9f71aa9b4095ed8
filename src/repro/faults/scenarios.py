"""The chaos axis: rate-based node crashes as a :class:`FaultConfig`.

The sweep engine's fault axis and ``repro sched --fault-rate`` both
build their configs through :func:`chaos_config`, so a "fault rate"
means the same thing in every chaos matrix: **expected node crashes
per node per 1000 simulated seconds**.  The config is a pure function
of ``(rate, seed, ...)`` — the injector's streams do the rest of the
determinism work.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.injector import FaultConfig

__all__ = ["chaos_config"]


def chaos_config(
    rate: float,
    seed: int = 0,
    horizon: float = 600.0,
    repair: float = 60.0,
) -> Optional[FaultConfig]:
    """The sweep engine's fault axis: rate-based node crashes.

    ``rate`` is the expected number of crashes per node per 1000
    simulated seconds (so ``node_mtbf = 1000 / rate``); crash times are
    drawn inside ``[0, horizon)`` and crashed nodes revive after
    ``repair`` seconds.  ``rate == 0`` returns ``None`` — the
    zero-cost-off path, no injector at all; a negative rate raises.
    """
    if rate < 0 or horizon <= 0 or repair < 0:
        raise ValueError(f"invalid chaos axis ({rate}, {horizon}, {repair})")
    if rate == 0.0:
        return None
    return FaultConfig(
        seed=seed, node_mtbf=1000.0 / rate, fault_horizon=horizon,
        node_repair_time=repair,
    )
