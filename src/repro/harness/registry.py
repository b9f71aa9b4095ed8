"""The machines and workloads a run can name.

One table of each, shared by every runner: the CLI subcommands, the
sweep engine's workers and ``repro list``.  Unknown names raise
:class:`ValueError`, so a sweep point naming one is recorded as a
crashed point like any other failure.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from repro.harness.sched import sched_testbed
from repro.platform import cori_haswell, summit, testbed
from repro.platform.spec import MachineSpec
from repro.workloads import (
    BDCATSConfig, CastroConfig, CosmoflowConfig, NyxConfig, SW4Config,
    VPICConfig, bdcats_program, castro_program, cosmoflow_program,
    nyx_program, prepopulate_vpic_file, sw4_program, vpic_program,
)

__all__ = ["MACHINES", "WORKLOADS", "Workload", "machine_spec", "workload"]

#: name -> machine factory.
MACHINES: dict[str, Callable[[], MachineSpec]] = {
    "summit": summit,
    "cori": cori_haswell,
    "cori-haswell": cori_haswell,
    "testbed": testbed,
    "sched-testbed": sched_testbed,
}


class Workload(NamedTuple):
    """How to build and run one named workload."""

    program: Callable
    config: Callable
    #: ``config -> (lib, nranks) -> None`` writing the input file a
    #: read workload expects, or ``None`` for write workloads.
    prepopulate: Optional[Callable]
    op: str
    description: str


WORKLOADS: dict[str, Workload] = {
    "vpic": Workload(vpic_program, lambda: VPICConfig(steps=3), None,
                     "write",
                     "VPIC-IO particle dump kernel (weak-scaling writes)"),
    "bdcats": Workload(
        bdcats_program,
        lambda: BDCATSConfig(steps=3),
        lambda cfg: (lambda lib, n: prepopulate_vpic_file(lib, cfg, n)),
        "read",
        "BD-CATS-IO clustering kernel (reads a VPIC-IO file)",
    ),
    "nyx-small": Workload(nyx_program, lambda: NyxConfig.small(n_plotfiles=3),
                          None, "write",
                          "Nyx cosmology, 256^3 AMR plotfiles every 20 steps"),
    "nyx-large": Workload(nyx_program, lambda: NyxConfig.large(n_plotfiles=3),
                          None, "write",
                          "Nyx cosmology, 2048^3 AMR plotfiles every 50 "
                          "steps"),
    "castro": Workload(castro_program, lambda: CastroConfig(n_plotfiles=3),
                       None, "write",
                       "Castro astrophysics, multifab + particle plotfiles"),
    "sw4": Workload(sw4_program, lambda: SW4Config(n_checkpoints=3), None,
                    "write",
                    "SW4/EQSIM seismology checkpoints (strong-scaling "
                    "writes)"),
    "cosmoflow": Workload(
        cosmoflow_program,
        lambda: CosmoflowConfig(epochs=2, batches_per_rank=4),
        lambda cfg: (lambda lib, n: cfg.prepopulate(lib, n)),
        "read",
        "Cosmoflow training loader (per-rank shard reads)",
    ),
}


def machine_spec(name: str) -> MachineSpec:
    """A fresh :class:`MachineSpec` for a :data:`MACHINES` name."""
    if name not in MACHINES:
        raise ValueError(
            f"unknown machine {name!r}; choose from {sorted(MACHINES)}"
        )
    return MACHINES[name]()


def workload(name: str) -> Workload:
    """The :data:`WORKLOADS` entry for ``name``."""
    if name not in WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        )
    return WORKLOADS[name]
