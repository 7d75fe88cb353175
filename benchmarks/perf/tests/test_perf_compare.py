"""Verdicts of compare.py on hand-made entries."""

from compare import compare, verdict


def entry(samples):
    ordered = sorted(samples)
    n = len(ordered)
    median = ordered[n // 2]
    return {
        "value": median, "q1": ordered[n // 4], "q3": ordered[(3 * n) // 4],
        "n": n, "samples": samples,
    }


def test_host_metric_within_bound_is_same():
    assert verdict(
        "repair_p50_ms", entry([1.0, 1.01, 1.02]), entry([1.03, 1.04, 1.05])
    ) == "same"


def test_host_metric_beyond_bound_is_worse_or_better():
    slow, fast = entry([1.3, 1.31, 1.32]), entry([1.0, 1.01, 1.02])
    assert verdict("repair_p50_ms", fast, slow) == "worse"
    assert verdict("repair_p50_ms", slow, fast) == "better"
    # The driver-gated pass time carries the wider bound of its gate.
    assert verdict("pass_wall_s", fast, entry([1.2, 1.21, 1.22])) == "same"
    assert verdict("pass_wall_s", fast, slow) == "worse"
    # Higher-is-better metrics flip.
    assert verdict("repairs_per_s", fast, slow) == "better"


def test_wide_spread_is_unresolved_unless_every_sample_agrees():
    noisy = entry([0.8, 1.0, 1.4])
    assert verdict("pass_wall_s", noisy, entry([0.9, 1.05, 1.3])) == (
        "unresolved"
    )
    assert verdict("pass_wall_s", noisy, entry([1.1, 1.3, 1.6])) == (
        "unresolved"
    )
    # Every sample of B is slower than every sample of A: settled.
    assert verdict("pass_wall_s", noisy, entry([1.5, 1.8, 2.2])) == "worse"


def test_simulated_metrics_compare_exactly():
    base = entry([36.2])
    assert verdict("sim_repair_s", base, entry([36.2])) == "same"
    assert verdict("sim_repair_s", base, entry([36.2000001])) == (
        "sim-changed"
    )


def test_failed_share_may_not_rise():
    assert verdict("failed_share", entry([0.0]), entry([0.0])) == "same"
    assert verdict("failed_share", entry([0.0]), entry([0.01])) == "worse"


def test_traced_files_also_list_the_ledger(capsys):
    def run(wall, plan_s):
        return {"workloads": {"w": {
            "digest": "d", "speed_factors": [1.3, 1.31],
            "end_to_end": {
                "pass_wall_s": {**entry([wall] * 3), "unit": "s"},
            },
            "per_layer": {
                "core.plan.self_s": {"value": plan_s, "unit": "s"},
                "ec.encode.self_s": {"value": 0.0, "unit": "s"},
            },
        }}}

    assert compare(run(1.0, 0.4), run(1.5, 0.8)) == 1
    printed = capsys.readouterr().out
    assert "worse" in printed
    assert "core.plan.self_s" in printed and "2.0000 of 0.4" in printed
    assert "ec.encode.self_s" not in printed  # zero on both sides


def test_different_machine_conditions_leave_host_times_unresolved():
    # Noise that outlasts a run shifts every pass alike: tight samples,
    # every one of B's slower than every one of A's, yet not a verdict.
    fast, slow = entry([1.0, 1.01, 1.02]), entry([1.15, 1.16, 1.17])
    assert verdict("repair_p50_ms", fast, slow) == "worse"
    assert verdict(
        "repair_p50_ms", fast, slow, conditions_differ=True
    ) == "unresolved"
    # Memory, simulated metrics and checks do not depend on the speed.
    assert verdict(
        "peak_rss_mb", fast, slow, conditions_differ=True
    ) == "worse"
    assert verdict(
        "sim_repair_s", entry([36.2]), entry([36.3]), conditions_differ=True
    ) == "sim-changed"
