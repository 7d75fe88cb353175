"""E-F5d-f: algorithm running time (Figure 5(d)-(f)).

Paper shape: PivotRepair's planner runs in microseconds at every (n, k)
(4.81-5.30 us at (14, 10), O(n log n)); RP's is also tiny; PPT's grows
exponentially with k, reaching 1e5-1e10 seconds (projected) at (14, 10).
PPT's column is modelled like the paper's projection: the planner returns
the enumeration's tree in closed form and charges a fixed per-tree cost
for each of the (k+1)^(k-1) trees, so it is the same on every run.

Deviation note: the paper measures RP's planner at ~10 ms for (14, 10) and
slower than PivotRepair's for k >= 6; our RP planner is a trivial chain
construction and stays sub-10us everywhere, so we do not reproduce the
RP-vs-PivotRepair running-time crossover — only the claims that matter
(both are negligible; PPT is not).
"""

import pytest

from conftest import PAPER_CODES, record
from fig5_common import SCHEMES, format_grid, make_planner, stripe_nodes_at
from repro.core.bandwidth_view import BandwidthSnapshot


@pytest.mark.benchmark(group="fig5-running")
def test_fig5_running_time_table(benchmark, fig5_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = format_grid(
        fig5_results,
        "planning_seconds",
        "Figure 5(d-f): algorithm running time (wall clock for RP and "
        "PivotRepair; PPT modelled: per-tree cost x (k+1)^(k-1) trees)",
    )
    record("fig5_running_time", lines)

    for name, by_code in fig5_results.items():
        for code, by_scheme in by_code.items():
            # PivotRepair stays in the microsecond range (O(n log n)).
            assert by_scheme["PivotRepair"].planning_seconds < 1e-3, (
                name, code,
            )
            assert by_scheme["RP"].planning_seconds < 1e-3, (name, code)
        # PPT grows by orders of magnitude from k=4 to k=10.
        ppt_small = by_code[(6, 4)]["PPT"].planning_seconds
        ppt_large = by_code[(14, 10)]["PPT"].planning_seconds
        assert ppt_large > 1e3 * ppt_small, name
        assert ppt_large > 100.0, name  # paper: 1e5..1e10 s projected
        benchmark.extra_info[name] = {
            str(code): {
                scheme: by_scheme[scheme].planning_seconds
                for scheme in SCHEMES
            }
            for code, by_scheme in by_code.items()
        }


@pytest.mark.benchmark(group="fig5-running-micro")
@pytest.mark.parametrize("n,k", PAPER_CODES, ids=lambda v: str(v))
@pytest.mark.parametrize("scheme", ["RP", "PivotRepair"])
def test_planner_microbenchmark(benchmark, workload_traces, scheme, n, k):
    """Real microbenchmark of the fast planners (RP, PivotRepair)."""
    trace = workload_traces["TPC-DS"]
    network_snapshot = BandwidthSnapshot(
        up={
            i: float(v)
            for i, v in enumerate(trace.available_up()[:, 100])
        },
        down={
            i: float(v)
            for i, v in enumerate(trace.available_down()[:, 100])
        },
    )
    requestor, survivors = stripe_nodes_at(trace, 100.0, n, seed=5)
    planner = make_planner(scheme)
    plan = benchmark(
        planner.plan, network_snapshot, requestor, survivors, k
    )
    assert len(plan.helpers) == k
