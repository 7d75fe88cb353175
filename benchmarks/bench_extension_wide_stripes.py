"""Extension E1: wide-stripe repair (ECWide [22] setting).

Wide stripes (large n, k) push storage overhead toward 1x but make repair
*harder*: more helpers, more links, bigger planning spaces.  This bench
scales (n, k) from the paper's (14, 10) up to (96, 64) — far beyond what
GF(2^8)-era deployments used — and shows:

* Algorithm 1's running time stays sub-millisecond (O(n log n)), while
  PPT's modelled enumeration time goes beyond astronomical;
* PivotRepair's transfer-time advantage over RP *grows* with k, because a
  longer chain crosses more congested nodes.
"""

import numpy as np
import pytest

from conftest import record
from repro.baselines import RPPlanner, tree_count
from repro.core import PivotRepairPlanner
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.network.topology import StarNetwork
from repro.repair import ExecutionConfig, repair_single_chunk
from repro.units import mbps, mib, kib

WIDE_CODES = [(14, 10), (24, 16), (48, 32), (96, 64)]
CLUSTER = 100


def congested_cluster(seed=0):
    """100 nodes, one third congested, bimodal like the hot traces."""
    rng = np.random.default_rng(seed)
    ups, downs = [], []
    for _ in range(CLUSTER):
        congested = rng.random() < 0.33
        ups.append(mbps(float(rng.integers(20, 120)))
                   if congested else mbps(float(rng.integers(500, 1000))))
        congested = rng.random() < 0.33
        downs.append(mbps(float(rng.integers(20, 120)))
                     if congested else mbps(float(rng.integers(500, 1000))))
    return StarNetwork.constant(ups, downs)


@pytest.mark.benchmark(group="extension-wide")
def test_wide_stripe_repair(benchmark):
    network = congested_cluster()
    config = ExecutionConfig(chunk_size=mib(64), slice_size=kib(32))

    def run():
        rows = {}
        rng = np.random.default_rng(1)
        for n, k in WIDE_CODES:
            members = sorted(
                rng.choice(CLUSTER, size=n + 1, replace=False).tolist()
            )
            requestor, *survivors = members
            pivot = repair_single_chunk(
                PivotRepairPlanner(), network, requestor, survivors, k,
                config=config,
            )
            rp = repair_single_chunk(
                RPPlanner(), network, requestor, survivors, k, config=config,
            )
            rows[(n, k)] = {
                "pivot_plan": pivot.planning_seconds,
                "pivot_transfer": pivot.transfer_seconds,
                "rp_transfer": rp.transfer_seconds,
                "ppt_trees": tree_count(k),
            }
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Extension E1: wide-stripe single-chunk repair "
        "(100-node congested cluster, 64 MiB)",
        f"  {'(n,k)':>9} | {'pivot plan':>11} | {'pivot xfer':>10} | "
        f"{'RP xfer':>8} | {'PPT trees':>10}",
    ]
    for code, row in rows.items():
        lines.append(
            f"  {str(code):>9} | {row['pivot_plan'] * 1e6:>8.0f} us | "
            f"{row['pivot_transfer']:>8.2f} s | {row['rp_transfer']:>6.2f} s"
            f" | {row['ppt_trees']:>10.2e}"
        )
    record("extension_wide_stripes", lines)

    for code, row in rows.items():
        # O(n log n) planning holds at every width.
        assert row["pivot_plan"] < 5e-3, code
        assert row["pivot_transfer"] <= row["rp_transfer"] * 1.01, code
    # The chain's exposure to congested nodes grows with k.
    small_gain = (
        rows[(14, 10)]["rp_transfer"] / rows[(14, 10)]["pivot_transfer"]
    )
    wide_gain = (
        rows[(96, 64)]["rp_transfer"] / rows[(96, 64)]["pivot_transfer"]
    )
    assert wide_gain >= small_gain * 0.8
    # PPT is not even extrapolatable sensibly out here.
    assert rows[(96, 64)]["ppt_trees"] > 1e100
    benchmark.extra_info["rows"] = {
        str(code): {
            "pivot_plan_us": round(row["pivot_plan"] * 1e6, 1),
            "pivot_transfer": round(row["pivot_transfer"], 3),
            "rp_transfer": round(row["rp_transfer"], 3),
        }
        for code, row in rows.items()
    }
