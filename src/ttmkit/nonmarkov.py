"""Non-Markovianity witnesses built on the Bloch-volume of accessible states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liouville import bloch_volume
from .ttm import predict_maps

__all__ = ["VolumeSeries", "volume_series", "volume_measure", "extended_volume_measure"]


@dataclass(frozen=True)
class VolumeSeries:
    """Bloch-volume factor V(t_n) = det M_n, anchored at V(t_0) = 1."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must align")


def volume_series(maps, dt):
    """Volume contraction factors for a single-qubit map series.

    V(t_n) is the determinant of the Bloch rotation-scaling matrix of E_n.
    The point (t_0, 1) for the identity map is prepended so forward
    differences at n = 1 are meaningful.
    """
    if np.asarray(maps[0]).shape[0] != 4:
        raise ValueError("volume series is defined for single-qubit maps")
    values = [1.0] + [bloch_volume(sop) for sop in maps]
    times = dt * np.arange(len(maps) + 1)
    return VolumeSeries(times, np.array(values))


def volume_measure(series):
    """Accumulated positive volume growth of a VolumeSeries, normalized by V(t_0).

    N_V = sum_n max(V(t_{n+1}) - V(t_n), 0) / V(t_0). Zero for any
    monotonically contracting (Markovian) evolution.
    """
    values = series.values
    if values.size < 2:
        raise ValueError("need at least two volume points")
    if values[0] == 0:
        raise ValueError("V(t_0) must be nonzero")
    diffs = np.diff(values)
    return float(np.sum(diffs[diffs > 0]) / values[0])


def extended_volume_measure(tensors, n_total, dt, k_trunc=None):
    """Volume witness evaluated on a transfer-tensor extended map series.

    Returns the VolumeSeries over n_total predicted steps together with
    its accumulated measure.
    """
    maps = predict_maps(tensors, n_total, k_trunc=k_trunc)
    series = volume_series(maps, dt)
    return series, volume_measure(series)
