"""``repro top``: a live terminal dashboard over the telemetry TSDB.

The :class:`Dashboard` renders one text frame from a
:class:`~repro.obs.timeseries.TimeSeriesDB` (plus, optionally, an
:class:`~repro.obs.slo.SLOMonitor` for burn gauges and alerts):

* header — simulated time, repair progress bar, governor cap, active
  task counts per traffic class;
* per-node link utilization bars (busiest links first);
* per-class throughput over the trailing window;
* per-tenant foreground table — request rate, p99 latency, byte rate;
* tenant SLO burn gauges and the firing-alert feed.

Frames are plain deterministic text; :class:`LiveTop` adds the ANSI
screen handling (home + clear between frames) and hooks frame emission
onto the flight recorder's sample ticks, so the view refreshes on
**simulated** time as the run executes.  ``repro top --once`` renders a
single frame at the end of the run — the CI-friendly snapshot mode.
"""

from __future__ import annotations

import math

from repro.obs.slo import MAX_BURN

__all__ = ["Dashboard", "LiveTop"]

#: ANSI sequence between live frames: cursor home, then erase below.
_FRAME_PREFIX = "\x1b[H\x1b[J"
#: Trailing seconds the rate/percentile queries of a frame cover.
WINDOW = 5.0
#: Most-utilized nodes a frame shows before it truncates the list.
MAX_NODES = 12
#: Prefix frames with the ANSI home+clear sequence (a refreshing
#: terminal view); off, frames are separated by a blank line.
ANSI = True

_BAR_FULL = "#"
_BAR_EMPTY = "."


def _bar(fraction: float, width: int = 20) -> str:
    """Render a 0..1 fraction as a fixed-width bar (overflow clamps)."""
    if math.isnan(fraction):
        return " " * width
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return _BAR_FULL * filled + _BAR_EMPTY * (width - filled)


def _rate(bytes_per_second: float) -> str:
    """Human byte rate (MB/s above 1 MB/s, else kB/s)."""
    if math.isnan(bytes_per_second):
        return "n/a"
    if bytes_per_second >= 1e6:
        return f"{bytes_per_second / 1e6:.1f} MB/s"
    return f"{bytes_per_second / 1e3:.1f} kB/s"


def _latency(seconds: float) -> str:
    if math.isnan(seconds):
        return "n/a"
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    return f"{seconds * 1e3:.0f} ms"


class Dashboard:
    """Render text frames of one run's telemetry.

    Args:
        tsdb: the telemetry database the frames read.
        slo: optional :class:`~repro.obs.slo.SLOMonitor` for burn gauges
            and the alert feed.
    """

    def __init__(self, tsdb, slo=None):
        self.tsdb = tsdb
        self.slo = slo

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def node_utilization(self) -> dict[int, dict[str, float]]:
        """Latest up/down utilization per node, from the sampler feed."""
        out: dict[int, dict[str, float]] = {}
        for series in self.tsdb.series("link_utilization"):
            point = series.latest()
            if point is None:
                continue
            node = int(series.labels["node"])
            direction = series.labels["direction"]
            out.setdefault(node, {})[direction] = point[1]
        return out

    def tenants(self) -> list[str]:
        names = {
            series.labels["tenant"]
            for series in self.tsdb.all_series()
            if series.name in ("fg_read_latency", "fg_requests_total")
            and "tenant" in series.labels
        }
        return sorted(names)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, now: float, width: int = 78) -> str:
        """One full dashboard frame as plain text at simulated ``now``."""
        now = float(now)
        t0 = max(0.0, now - WINDOW)
        lines = [f"repro top · t={now:.2f}s (sim)"]
        lines += self._header_lines(now)
        lines += self._node_lines()
        lines += self._class_lines(t0, now)
        lines += self._tenant_lines(t0, now)
        lines += self._slo_lines()
        return "\n".join(line[:width] for line in lines)

    def _header_lines(self, now: float) -> list[str]:
        lines = []
        progress = self.tsdb.latest("repair_progress")
        if progress is not None:
            lines.append(
                f"repair    [{_bar(progress)}] {progress:6.1%}"
            )
        cap = self.tsdb.latest("repair_cap")
        if cap is not None:
            lines.append(
                "governor  cap "
                + ("uncapped" if cap < 0 else _rate(cap) + " per flow")
            )
        active = []
        for series in self.tsdb.series("active_tasks"):
            point = series.latest()
            if point is not None:
                active.append(f"{series.labels['kind']}={int(point[1])}")
        if active:
            lines.append("active    " + "  ".join(sorted(active)))
        return lines

    def _node_lines(self) -> list[str]:
        utilization = self.node_utilization()
        if not utilization:
            return []
        lines = ["", "link utilization (up | down)"]
        ranked = sorted(
            utilization.items(),
            key=lambda kv: -max(kv[1].values(), default=0.0),
        )
        for node, directions in ranked[:MAX_NODES]:
            up = directions.get("up", math.nan)
            down = directions.get("down", math.nan)
            lines.append(
                f"  node {node:>3}  [{_bar(up, 14)}] "
                f"{self._pct(up)} | [{_bar(down, 14)}] {self._pct(down)}"
            )
        hidden = len(ranked) - MAX_NODES
        if hidden > 0:
            lines.append(f"  … {hidden} quieter nodes not shown")
        return lines

    @staticmethod
    def _pct(value: float) -> str:
        if math.isnan(value):
            return "  n/a"
        return f"{value:5.0%}"

    def _class_lines(self, t0: float, now: float) -> list[str]:
        rows = []
        for series in self.tsdb.series("class_rate"):
            points = series.window(t0, now)
            if not points:
                continue
            mean = sum(v for _, v in points) / len(points)
            rows.append((series.labels["kind"], mean))
        if not rows:
            return []
        lines = ["", f"throughput by class (last {WINDOW:g}s)"]
        for kind, mean in sorted(rows):
            lines.append(f"  {kind:<12} {_rate(mean)}")
        return lines

    def _tenant_lines(self, t0: float, now: float) -> list[str]:
        tenants = self.tenants()
        if not tenants:
            return []
        lines = [
            "",
            f"tenants (last {WINDOW:g}s)",
            "  tenant        req/s     p99       bytes",
        ]
        for tenant in tenants:
            if now > t0:
                req_rate = self.tsdb.rate(
                    "fg_requests_total", t0, now, tenant=tenant
                )
                byte_rate = self.tsdb.rate(
                    "fg_bytes_total", t0, now, tenant=tenant
                )
            else:
                req_rate = byte_rate = math.nan
            p99 = self.tsdb.percentile(
                "fg_read_latency", 99, t0, now, tenant=tenant
            )
            req = "n/a" if math.isnan(req_rate) else f"{req_rate:.1f}"
            lines.append(
                f"  {tenant:<12}  {req:>6}  {_latency(p99):>8}  "
                f"{_rate(byte_rate)}"
            )
        return lines

    def _slo_lines(self) -> list[str]:
        if self.slo is None or not self.slo.specs:
            return []
        lines = ["", "SLO burn (short/long windows)"]
        for spec in self.slo.specs:
            status = self.slo.statuses.get(spec.name)
            if status is None:
                lines.append(f"  {spec.name:<20} (not evaluated yet)")
                continue
            gauge = _bar(
                min(status.burn_short / (2 * MAX_BURN), 1.0), 12
            )
            state = "FIRING" if status.firing else (
                "no data" if status.no_data else "ok"
            )
            lines.append(
                f"  {spec.name:<20} [{gauge}] "
                f"{status.burn_short:6.2f}/{status.burn_long:6.2f}  "
                f"tenant={spec.tenant}  {state}"
            )
        recent = self.slo.alerts[-5:]
        if recent:
            lines.append("alerts")
            for alert in recent:
                lines.append(
                    f"  t={alert.t:8.2f}s  {alert.kind.upper():<7} "
                    f"{alert.name} (tenant={alert.tenant}, "
                    f"burn={alert.burn_short:.2f})"
                )
        return lines


class LiveTop:
    """Emit dashboard frames to a stream as the simulation advances.

    Register on the flight recorder
    (``sampler.add_listener(live.on_tick)``): every ``refresh``
    simulated seconds the next sample tick renders a frame, prefixed as
    :data:`ANSI` says.
    """

    def __init__(self, dashboard: Dashboard, stream, refresh: float = 1.0):
        if refresh <= 0:
            raise ValueError("refresh interval must be positive")
        self.dashboard = dashboard
        self.stream = stream
        self.refresh = float(refresh)
        self.frames = 0
        self._next_frame: float | None = None

    def on_tick(self, t: float) -> None:
        if self._next_frame is None:
            self._next_frame = t
        if t + 1e-9 < self._next_frame:
            return
        self.emit(t)
        self._next_frame = t + self.refresh

    def emit(self, now: float) -> None:
        """Render and write one frame unconditionally."""
        frame = self.dashboard.render(now)
        prefix = _FRAME_PREFIX if ANSI else ("\n" if self.frames else "")
        self.stream.write(prefix + frame + "\n")
        self.frames += 1
