"""One time level of cell values, interior plus ghost slots."""
from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np


def _integer(value, name: str) -> int:
    """``value`` as an ``int`` (``operator.index``); a ValueError naming
    ``name`` if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass
class FieldState:
    """Values on cells ``1-r .. J+p`` at one time level.

    Interior cells are ``1..J``; the ``r`` slots to the left and ``p`` slots
    to the right are ghost cells owned by the boundary closures.  Cell index
    ``j`` lives at array position ``j + r - 1``.
    """

    J: int
    r: int
    p: int
    time_index: int = 0
    values: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.J = _integer(self.J, "cell count J")
        self.r = _integer(self.r, "ghost width r")
        self.p = _integer(self.p, "ghost width p")
        if self.J < 1:
            raise ValueError("need at least one interior cell")
        if self.r < 0 or self.p < 0:
            raise ValueError("ghost widths must be nonnegative")
        n = self.J + self.r + self.p
        if self.values is None:
            self.values = np.zeros(n)
        else:
            self.values = np.asarray(self.values, dtype=float)
            if self.values.shape != (n,):
                raise ValueError(f"values must have shape ({n},)")

    @property
    def interior(self) -> np.ndarray:
        """View of cells 1..J."""
        return self.values[self.r:self.r + self.J]

    @property
    def left_ghosts(self) -> np.ndarray:
        """View of cells 1-r..0."""
        return self.values[:self.r]

    @property
    def right_ghosts(self) -> np.ndarray:
        """View of cells J+1..J+p."""
        return self.values[self.r + self.J:]

    def copy(self) -> "FieldState":
        return FieldState(J=self.J, r=self.r, p=self.p,
                          time_index=self.time_index,
                          values=self.values.copy())
