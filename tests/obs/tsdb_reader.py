"""Read a :class:`~repro.obs.TimeSeriesDB` back from its JSONL export.

The library writes TSDB JSONL and reads none; the tests read it to check
that the export is complete (every point, the counter totals behind
``rate``, the drop counts).
"""

import json

from repro.obs import TimeSeriesDB


def tsdb_from_jsonl(text: str) -> TimeSeriesDB:
    """Rebuild a database from :meth:`TimeSeriesDB.to_jsonl` output."""
    db = TimeSeriesDB()
    for line in text.splitlines():
        if not line.strip():
            continue
        raw = json.loads(line)
        series = db._get(
            raw["name"], raw.get("labels", {}), raw.get("kind", "gauge")
        )
        for t, value in raw.get("points", []):
            series.append(float(t), float(value))
        if series.points:
            series._total = series.points[-1][1]
        series.dropped = int(raw.get("dropped", 0))
    return db
