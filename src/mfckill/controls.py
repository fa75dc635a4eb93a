"""The feedback-control container shared by the solvers.  Whether a
feedback lies on a solver's grid is `model.Grid.check_field`'s to say."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ControlOutOfBox
from .model import Grid, ModelSpec

__all__ = ["FeedbackControl"]


@dataclass
class FeedbackControl:
    """Feedback array over (t, x) or (t, x, y), valued in the control box.

    Shape (nt+1, nx) for intensity-independent feedbacks, (nt+1, nx, ny)
    for joint-state feedbacks; scalar controls only (d_G = 1).
    """

    values: np.ndarray
    box: tuple[float, float]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        lo, hi = self.box
        # "not in range" also rejects NaN, which fails every comparison
        if self.values.size and not (
            lo - 1e-12 <= self.values.min() and self.values.max() <= hi + 1e-12
        ):
            raise ControlOutOfBox(
                f"feedback range [{self.values.min():.6g}, {self.values.max():.6g}] "
                f"outside box [{lo}, {hi}]"
            )

    @property
    def is_2d(self) -> bool:
        return self.values.ndim == 3

    def at_step(self, k: int) -> np.ndarray:
        return self.values[k]

    def y_variation(self) -> float:
        """Max over (t, x) of the spread along y; 0 for (t, x) feedbacks."""
        if not self.is_2d:
            return 0.0
        return float((self.values.max(axis=2) - self.values.min(axis=2)).max())

    @classmethod
    def constant(cls, value: float, grid: Grid, spec: ModelSpec,
                 two_d: bool = False) -> "FeedbackControl":
        lo, hi = spec.box_array[0]
        shape = (grid.nt + 1, grid.nx, grid.ny_total) if two_d else (grid.nt + 1, grid.nx)
        return cls(np.full(shape, float(np.clip(value, lo, hi))), (lo, hi))

    @classmethod
    def from_array(cls, values: np.ndarray, spec: ModelSpec) -> "FeedbackControl":
        lo, hi = spec.box_array[0]
        return cls(np.asarray(values, dtype=float), (lo, hi))
