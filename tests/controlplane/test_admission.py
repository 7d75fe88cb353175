"""Admission gate policy: tokens, aging, and starvation freedom."""

from dataclasses import dataclass, field

import pytest

from repro.controlplane import (
    QOS_CLASSES,
    AdmissionConfig,
    AdmissionController,
    QoSClass,
)
from repro.exceptions import ClusterError


@dataclass
class FakeJob:
    """The attribute surface the controller reads off a plane job."""

    job_id: str
    index: int
    qos: QoSClass
    enqueued_at: float
    state: str = "queued"
    admitted_at: float | None = field(default=None)


def job(job_id, index, qos_name, enqueued_at=0.0):
    return FakeJob(job_id, index, QOS_CLASSES[qos_name], enqueued_at)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ClusterError):
            AdmissionConfig(max_streams=0)
        with pytest.raises(ClusterError):
            AdmissionConfig(max_jobs=0)
        with pytest.raises(ClusterError):
            AdmissionConfig(aging_rate=-1.0)

    def test_defaults_are_finite_streams(self):
        assert AdmissionConfig().max_streams >= 1


class TestSelection:
    def test_pick_admit_prefers_higher_qos(self):
        ctl = AdmissionController()
        gold, bronze = job("g", 0, "gold"), job("b", 1, "bronze")
        assert ctl.pick_admit([bronze, gold], now=0.0) is gold

    def test_pick_admit_breaks_ties_by_enqueue_order(self):
        ctl = AdmissionController()
        first, second = job("a", 0, "silver"), job("b", 1, "silver")
        assert ctl.pick_admit([second, first], now=5.0) is first

    def test_pick_shed_is_reverse_of_admit(self):
        ctl = AdmissionController()
        gold, silver, bronze = (
            job("g", 0, "gold"), job("s", 1, "silver"), job("b", 2, "bronze")
        )
        assert ctl.pick_shed([gold, silver, bronze], now=0.0) is bronze
        # Tied priority: the youngest (largest index) sheds first, so
        # long-admitted jobs keep their slots.
        s2 = job("s2", 3, "silver")
        assert ctl.pick_shed([silver, s2], now=2.0) is s2

    def test_aging_lets_bronze_outbid_fresh_gold(self):
        ctl = AdmissionController(AdmissionConfig(aging_rate=10.0))
        bronze = job("b", 0, "bronze", enqueued_at=0.0)
        spread = (
            QOS_CLASSES["gold"].base_priority
            - QOS_CLASSES["bronze"].base_priority
        )
        flip = spread / 10.0
        gold = job("g", 1, "gold", enqueued_at=flip - 0.5)
        # Just before the bound the fresh gold still wins ...
        assert ctl.pick_admit([bronze, gold], now=flip - 0.25) is gold
        # ... and past it the aged bronze takes the slot.
        gold_late = job("g2", 2, "gold", enqueued_at=flip + 1.0)
        assert ctl.pick_admit([bronze, gold_late], now=flip + 1.0) is bronze

    def test_empty_pools_return_none(self):
        ctl = AdmissionController()
        assert ctl.pick_admit([], 0.0) is None
        assert ctl.pick_shed([], 0.0) is None
        assert ctl.pick_resume([], 0.0) is None


class TestTokens:
    def test_stream_tokens(self):
        ctl = AdmissionController(AdmissionConfig(max_streams=3))
        assert ctl.stream_tokens_free(0) == 3
        assert ctl.stream_tokens_free(3) == 0
        assert ctl.stream_tokens_free(7) == 0

    def test_may_start_stream_respects_both_pools(self):
        # The gate holds two token pools, streams and admitted jobs; each
        # check consults its own pool only.
        ctl = AdmissionController(AdmissionConfig(max_streams=2, max_jobs=1))
        assert ctl.may_start_stream(0)
        assert ctl.may_start_stream(1)
        assert not ctl.may_start_stream(2)  # stream pool empty
        assert ctl.may_admit_job(0)
        assert not ctl.may_admit_job(1)  # job pool empty

    def test_decision_log_is_deterministic(self):
        ctl = AdmissionController()
        ctl.record(1.0, "admit", job("a", 0, "gold"), waited=0.5, extra=1)
        ctl.record(2.0, "shed", job("a", 0, "gold"), breadth=0.5)
        assert ctl.decisions == [
            {"t": 1.0, "action": "admit", "job": "a", "extra": 1,
             "waited": 0.5},
            {"t": 2.0, "action": "shed", "job": "a", "breadth": 0.5},
        ]


class TestStarvationFreedom:
    """Priority aging admits every queued job within a bounded wait.

    Property: drive the controller through admit/complete cycles while
    an adversarial stream of fresh gold jobs arrives every cycle.  A
    single bronze job enqueued at t=0 must be admitted within
    ``(gold.base - bronze.base) / aging_rate`` seconds plus one cycle —
    the analytic bound from the module docstring.
    """

    @pytest.mark.parametrize("aging_rate", [0.5, 1.0, 5.0, 25.0])
    @pytest.mark.parametrize("cycle", [0.25, 1.0])
    def test_bronze_admitted_within_analytic_bound(self, aging_rate, cycle):
        config = AdmissionConfig(max_jobs=1, aging_rate=aging_rate)
        ctl = AdmissionController(config)
        bronze = job("bronze", 0, "bronze", enqueued_at=0.0)
        spread = (
            QOS_CLASSES["gold"].base_priority
            - QOS_CLASSES["bronze"].base_priority
        )
        bound = spread / aging_rate + cycle
        queued = [bronze]
        now = 0.0
        admitted_at = None
        for step in range(1, 10_000):
            # One fresh gold rival arrives every cycle, forever.
            queued.append(job(f"gold-{step}", step, "gold", enqueued_at=now))
            winner = ctl.pick_admit(queued, now)
            assert ctl.may_admit_job(0)
            queued.remove(winner)
            if winner is bronze:
                admitted_at = now
                break
            # The admitted gold job completes within the cycle, freeing
            # the slot for the next round.
            now += cycle
            if now > bound + cycle:
                break
        assert admitted_at is not None, (
            f"bronze starved past the analytic bound {bound}s "
            f"(aging_rate={aging_rate}, cycle={cycle})"
        )
        assert admitted_at <= bound + 1e-9

    def test_zero_aging_can_starve_which_is_why_default_is_positive(self):
        ctl = AdmissionController(AdmissionConfig(aging_rate=0.0))
        bronze = job("bronze", 0, "bronze", enqueued_at=0.0)
        fresh_gold = job("gold", 1, "gold", enqueued_at=1e6)
        # Without aging the fresh gold always outbids the ancient bronze.
        assert ctl.pick_admit([bronze, fresh_gold], now=1e6) is fresh_gold
        assert AdmissionConfig().aging_rate > 0
