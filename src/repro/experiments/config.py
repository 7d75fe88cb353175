"""Shared experiment settings (the paper's evaluation setup, Section V-B)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import PlanningError

#: The paper's Reed-Solomon parameters.
PAPER_CODES: list[tuple[int, int]] = [(6, 4), (9, 6), (12, 8), (14, 10)]


#: Nodes in the measured cluster (the paper uses 16 machines).
NODE_COUNT = 16


@dataclass(frozen=True)
class ExperimentSettings:
    """Codes of the paper's evaluation."""

    #: Codes to evaluate.
    codes: list[tuple[int, int]] = field(
        default_factory=lambda: list(PAPER_CODES)
    )

    def __post_init__(self) -> None:
        for n, k in self.codes:
            if not 0 < k < n:
                raise PlanningError(f"bad code parameters ({n}, {k})")
            if n > NODE_COUNT - 2:
                raise PlanningError(
                    f"(n={n}) stripes need n + requestor + failed node "
                    f"<= {NODE_COUNT} cluster nodes"
                )


DEFAULT_SETTINGS = ExperimentSettings()
