"""Benchmark-side helpers for Figure 5: thin wrapper over the library's
:mod:`repro.experiments` runners plus table rendering."""

from __future__ import annotations

from repro.experiments import (  # noqa: F401  (re-exported for benches)
    INSTANTS_PER_CELL,
    SCHEMES,
    CellResult,
    make_planner,
    run_cell,
    run_figure5,
    stripe_nodes_at,
)
from repro.reporting import format_seconds


def format_grid(results: dict, metric: str, title: str) -> list[str]:
    """Render one Figure 5 row (a-c / d-f / g-i) as text tables."""
    lines = [title]
    for name, by_code in results.items():
        lines.append(f"\n{name}:")
        header = f"  {'(n,k)':>9} | " + " | ".join(
            f"{scheme:>12}" for scheme in SCHEMES
        )
        lines.append(header)
        for code, by_scheme in by_code.items():
            cells = []
            for scheme in SCHEMES:
                value = getattr(by_scheme[scheme], metric)
                cells.append(f"{format_seconds(value):>12}")
            lines.append(f"  {str(code):>9} | " + " | ".join(cells))
    return lines
