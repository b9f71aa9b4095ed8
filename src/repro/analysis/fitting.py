"""Fit the paper's Eq. 4 rate model to sweep measurements.

For each I/O mode, the sweep's (per-phase data size, #ranks, peak
aggregate rate) points populate a
:class:`~repro.model.history.MeasurementHistory`; the
:class:`~repro.model.estimators.IORateModel` then selects linear vs
linear-log features by r² and predicts the rate at every scale — the
dotted estimated-performance lines of Figs. 3-6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.model.estimators import IORateModel
from repro.model.history import MeasurementHistory

if TYPE_CHECKING:  # pragma: no cover - avoid harness<->analysis cycle
    from repro.harness.sweep import SweepPoint

__all__ = ["FittedSeries", "fit_sweep_points"]


@dataclass(frozen=True)
class FittedSeries:
    """One mode's fitted rate model over a sweep."""

    mode: str
    transform: str  # 'linear' | 'linear-log'
    r2: float
    #: nranks -> estimated aggregate rate (bytes/second)
    estimates: dict[int, float]

    def estimate_gbs(self, nranks: int) -> float:
        """Estimated rate at ``nranks`` in GB/s."""
        return self.estimates[nranks] / 1e9


def fit_sweep_points(points: Sequence["SweepPoint"], mode: str,
                     max_ranks: Optional[int] = None) -> FittedSeries:
    """Fit Eq. 4 over one mode's sweep points and predict every scale.

    Each sweep point contributes every per-day peak observation (the
    paper fits over the history of all runs, not the reduced best).
    With ``max_ranks`` only the points up to that scale are fitted, so
    the estimates above it are out-of-sample predictions.
    """
    mine = [p for p in points if p.mode == mode]
    fitted = [p for p in mine if max_ranks is None or p.nranks <= max_ranks]
    if len(fitted) < 2:
        raise ValueError(f"need >= 2 sweep points for mode {mode!r}")
    history = MeasurementHistory()
    for p in fitted:
        phase_bytes = p.total_bytes / p.n_phases
        for peak in p.all_peaks:
            history.record(phase_bytes, p.nranks, peak, mode=mode)
    model = IORateModel(history, mode=mode, min_samples=2).refit()
    estimates = {
        p.nranks: model.estimate_rate(p.total_bytes / p.n_phases, p.nranks)
        for p in mine
    }
    return FittedSeries(
        mode=mode, transform=model.transform, r2=model.r2, estimates=estimates
    )
