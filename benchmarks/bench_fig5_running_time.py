"""E-F5d-f: algorithm running time (Figure 5(d)-(f)).

Paper shape: PivotRepair's planner runs in microseconds at every (n, k)
(4.81-5.30 us at (14, 10), O(n log n)); RP's is also tiny; PPT's grows
exponentially with k, reaching 1e5-1e10 seconds (projected) at (14, 10).
The table records each planner's modelled charge, the same on every run:
a per-candidate cost x the n-1 candidates for RP and PivotRepair (the
constants are fitted to ``test_planner_microbenchmark`` below), and, like
the paper's projection, a per-tree cost x the (k+1)^(k-1) trees for PPT.
The wall-clock claim is checked on this host by timing the greedy
planners, and that timing is asserted on, never recorded.

Deviation note: the paper measures RP's planner at ~10 ms for (14, 10) and
slower than PivotRepair's for k >= 6; our RP planner is a trivial chain
construction and stays sub-10us everywhere, so we do not reproduce the
RP-vs-PivotRepair running-time crossover — only the claims that matter
(both are negligible; PPT is not).
"""

import timeit
from functools import partial

import pytest

from conftest import PAPER_CODES, record
from fig5_common import SCHEMES, format_grid, make_planner, stripe_nodes_at
from repro.core.bandwidth_view import BandwidthSnapshot


def planner_inputs(trace, n):
    """The snapshot of ``trace`` at t = 100 s, and a stripe's requestor
    and n-1 surviving helpers there."""
    snapshot = BandwidthSnapshot(
        up={i: float(v) for i, v in enumerate(trace.available_up()[:, 100])},
        down={
            i: float(v) for i, v in enumerate(trace.available_down()[:, 100])
        },
    )
    return (snapshot, *stripe_nodes_at(trace, 100.0, n, seed=5))


@pytest.mark.benchmark(group="fig5-running")
def test_fig5_running_time_table(benchmark, workload_traces, fig5_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = format_grid(
        fig5_results,
        "planning_seconds",
        "Figure 5(d-f): algorithm running time (modelled: per-candidate "
        "cost x n-1 candidates for RP and PivotRepair, per-tree cost x "
        "(k+1)^(k-1) trees for PPT)",
    )
    record("fig5_running_time", lines)

    for name, by_code in fig5_results.items():
        for n, k in by_code:
            # The greedy planners run in microseconds on this host.
            snapshot, requestor, survivors = planner_inputs(
                workload_traces[name], n
            )
            for scheme in ("RP", "PivotRepair"):
                plan = partial(
                    make_planner(scheme).plan, snapshot, requestor,
                    survivors, k,
                )
                host = min(timeit.repeat(plan, number=1, repeat=20))
                assert host < 1e-3, (name, (n, k), scheme)
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
    """Real microbenchmark of the fast planners (RP, PivotRepair): the
    medians their per-candidate charges were fitted to."""
    snapshot, requestor, survivors = planner_inputs(
        workload_traces["TPC-DS"], n
    )
    planner = make_planner(scheme)
    plan = benchmark(planner.plan, snapshot, requestor, survivors, k)
    assert len(plan.helpers) == k
