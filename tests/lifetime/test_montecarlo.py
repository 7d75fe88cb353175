"""Tests for the Monte-Carlo driver: pairing, determinism, artifacts."""

import faulthandler
import json
import math
import os
import signal
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.exceptions import LifetimeError
from repro.lifetime import (
    FixedDurations,
    LifetimeConfig,
    default_processes,
    montecarlo,
    run_lifetime,
    simulate_lifetime,
)
from repro.obs import MetricsRegistry, TimeSeriesDB
from repro.obs.tracer import Tracer
from tests.recorded import Recorded, load

#: What ``TestPinnedStudies``' two seeded studies must produce.
FIXTURE = Path(__file__).with_name("pinned_studies.json")

SMALL = LifetimeConfig(
    years=2, runs=3, seed=11, schemes=("pivot", "conventional"),
    stripes=16, disk_mttf_days=30.0, repair_streams=1,
)

# Fixed analytic durations keep these tests independent of the fluid
# simulator while preserving the pivot-vs-conventional contrast.
DURATIONS = FixedDurations({"pivot": 3600.0, "conventional": 4 * 3600.0})


#: The fixed-duration study whose outcome ``TestPinnedStudies`` records.
PINNED = LifetimeConfig(
    years=4, runs=8, seed=42, schemes=("pivot", "conventional"),
    stripes=64, disk_mttf_days=30.0, repair_streams=1,
)


#: The same outage processes with repair durations calibrated on the
#: fluid simulator (no ``durations=``): the one lifetime study whose
#: outcome depends on ``repair_single_chunk``'s simulated seconds.
CALIBRATED = LifetimeConfig(
    years=3, runs=8, seed=1234, stripes=32,
    disk_mttf_days=30.0, repair_streams=1,
    data_per_chunk_gib=256.0, calibration_instants=4,
)


def study_outcome(report) -> dict:
    """What the fixture records of a study."""
    return {
        "digest": report.digest,
        "losses": {
            scheme: summary.total_losses
            for scheme, summary in report.schemes.items()
        },
        "repairs_completed": {
            scheme: sum(r["repairs_completed"] for r in summary.runs)
            for scheme, summary in report.schemes.items()
        },
    }


def _recorder(config, **run_args):
    def record() -> Recorded:
        report = run_lifetime(config, **run_args)
        return Recorded(
            entry=study_outcome(report),
            values={
                scheme: summary.runs
                for scheme, summary in report.schemes.items()
            },
        )
    return record


RECORDERS = {
    "fixed-durations": _recorder(PINNED, durations=DURATIONS),
    "calibrated-durations": _recorder(CALIBRATED),
}


@pytest.fixture(scope="module")
def report():
    return run_lifetime(SMALL, durations=DURATIONS)


@pytest.fixture(scope="module")
def pinned():
    """The pinned study, run once: its report and every run's
    ``LifetimeRunStats`` (the report keeps only ``_run_record`` of them).
    One worker, so the spy sees every call: a worker's calls happen in
    another process."""
    recorded = []

    def recording(*args, **kwargs):
        recorded.append(simulate_lifetime(*args, **kwargs))
        return recorded[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_cpu_count", lambda: 1)
        patch.setattr(montecarlo, "simulate_lifetime", recording)
        report = run_lifetime(PINNED, durations=DURATIONS)
    return report, recorded


#: The studies ``TestWorkerCount`` runs on 1, 2 and 3 workers; each one
#: loses data, so ``lifetime.loss`` events are among those compared.
STUDIES = {
    "small": (SMALL, {"durations": DURATIONS}),
    "pinned": (PINNED, {"durations": DURATIONS}),
    "calibrated": (CALIBRATED, {}),
}


def observed(config, workers: int, **run_args) -> dict:
    """Everything a study reports, run as if on ``workers`` CPUs."""
    registry, tsdb, tracer = MetricsRegistry(), TimeSeriesDB(), Tracer()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "_cpu_count", lambda: workers)
        report = run_lifetime(
            config, registry=registry, tsdb=tsdb, tracer=tracer, **run_args
        )
    return {
        "digest": report.digest,
        "runs": {
            scheme: summary.runs
            for scheme, summary in report.schemes.items()
        },
        "registry": registry.snapshot(),
        "tsdb": tsdb.to_jsonl(),
        "events": tracer.events,
    }


@contextmanager
def deadline(seconds: int = 60):
    """End the session with every thread's traceback if the body takes
    longer than ``seconds``: a pool that hangs would also hang its
    shutdown.  An alarm, not faulthandler's watchdog thread, which would
    make the pool fork a multi-threaded process."""

    def hung(signum, frame) -> None:
        faulthandler.dump_traceback()
        os._exit(1)

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class FailingDurations(FixedDurations):
    """Fixed durations, except that conventional repairs cannot be timed."""

    def sample(self, rng, scheme: str) -> float:
        if scheme == "conventional":
            raise LifetimeError("no duration for a conventional repair")
        return super().sample(rng, scheme)


class WhereDurations(FixedDurations):
    """Durations that cannot be sampled; the error names the process."""

    def __init__(self, seconds: float):
        super().__init__(seconds)
        self.parent = os.getpid()

    def sample(self, rng, scheme: str) -> float:
        where = "the parent" if os.getpid() == self.parent else "a worker"
        raise LifetimeError(f"sampled in {where}")


class TestDeterminism:
    def test_digest_is_reproducible(self, report):
        again = run_lifetime(SMALL, durations=DURATIONS)
        assert again.digest == report.digest
        for scheme in SMALL.schemes:
            assert (
                again.schemes[scheme].runs == report.schemes[scheme].runs
            )

    def test_different_seed_changes_digest(self, report):
        other = run_lifetime(
            LifetimeConfig(**{**SMALL.to_dict(), "seed": 12}),
            durations=DURATIONS,
        )
        assert other.digest != report.digest


class TestPinnedStudies:
    """Two seeded studies whose outcome is recorded: a value that moves
    is a behaviour change of the event loop or the calibration."""

    def test_fixed_durations_study(self, pinned):
        report, _ = pinned
        assert study_outcome(report) == load(FIXTURE)["fixed-durations"]

    def test_calibrated_durations_pivot_loses_strictly_less(self):
        # Repair durations calibrated on the fluid simulator, where the
        # fixed-duration tests above and below only ever see the
        # analytic 1 h / 4 h contrast.
        outcome = study_outcome(run_lifetime(CALIBRATED))
        assert outcome["losses"]["pivot"] < outcome["losses"]["conventional"]
        assert outcome == load(FIXTURE)["calibrated-durations"]


class TestDispatchGate:
    """The dispatch gate (``-k DispatchGate``): exact, clock-free counts
    on the pinned study.  Dispatch pops a ready heap, so what it examines
    tracks the repairs it starts — the scan it replaced looked at 13
    (pivot) and 64 (conventional, permanently back-logged) waiting chunks
    per repair started here; the heap pops 1.1 and 2.5."""

    def test_offers_examined_track_dispatches(self, pinned):
        _, runs = pinned
        for scheme in PINNED.schemes:
            mine = [stats for stats in runs if stats.scheme == scheme]
            dispatches = sum(stats.dispatches for stats in mine)
            assert dispatches >= 70_000
            assert (
                dispatches
                <= sum(stats.offers_examined for stats in mine)
                <= 4 * dispatches
            )

    def test_every_dispatch_is_accounted_for(self, pinned):
        # Started = completed + aborted + still on a stream at the
        # horizon; the back-logged scheme never has a stream idle there.
        _, runs = pinned
        assert len(runs) == PINNED.runs * len(PINNED.schemes)
        for stats in runs:
            busy = (
                stats.dispatches
                - stats.repairs_completed - stats.repairs_aborted
            )
            assert 0 <= busy <= PINNED.repair_streams
            if stats.scheme == "conventional":
                assert busy == PINNED.repair_streams
            assert stats.events > stats.dispatches

    def test_counters_stay_out_of_artifacts_and_digest(self, pinned):
        # The loop's self-observation is not an outcome: the run records
        # (JSONL artifact, digest payload) carry the same keys as before,
        # which is why the pinned digest above did not move.
        report, runs = pinned
        assert runs[0].events and runs[0].offers_examined
        for summary in report.schemes.values():
            for record in summary.runs:
                assert not {
                    "events", "dispatches", "offers_examined"
                } & set(record)


class TestWorkerCount:
    """Runs spread over worker processes: the count is not an input.
    Each run draws from its own named streams, results come back in run
    order, and only the parent observes them."""

    @pytest.mark.parametrize("study", sorted(STUDIES))
    def test_every_worker_count_reports_the_same(self, study):
        config, run_args = STUDIES[study]
        inline = observed(config, 1, **run_args)
        assert any(
            event.name == "lifetime.loss" for event in inline["events"]
        )
        threads_at_fork = []
        fork = os.fork

        def counting_fork():
            threads_at_fork.append(threading.active_count())
            return fork()

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "fork", counting_fork)
            for workers in (2, 3):
                assert observed(config, workers, **run_args) == inline, workers
        # fork copies only the calling thread: the pool forks every
        # worker before it starts a thread of its own.
        assert threads_at_fork == [1] * 3

    def test_the_parent_computes_its_share_of_runs(self):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return simulate_lifetime(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_cpu_count", lambda: 2)
            patch.setattr(montecarlo, "simulate_lifetime", counting)
            run_lifetime(SMALL, durations=DURATIONS)
        # The worker's calls happen in its own process, unseen here.
        assert len(calls) == SMALL.runs // 2 * len(SMALL.schemes)

    def test_a_failing_worker_raises_the_inline_error(self):
        durations = FailingDurations(
            {"pivot": 3600.0, "conventional": 4 * 3600.0}
        )
        raised = []
        with deadline():
            for workers in (1, 2):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(montecarlo, "_cpu_count", lambda: workers)
                    with pytest.raises(LifetimeError) as error:
                        run_lifetime(SMALL, durations=durations)
                raised.append((type(error.value), str(error.value)))
        assert raised == [
            (LifetimeError, "no duration for a conventional repair")
        ] * 2

    def test_the_first_failing_run_raises_whoever_computed_it(self):
        # Run 0 is a worker's: its error wins over the parent's own.
        with deadline(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_cpu_count", lambda: 2)
            with pytest.raises(LifetimeError, match="^sampled in a worker$"):
                run_lifetime(SMALL, durations=WhereDurations(3600.0))


class TestPairedDesign:
    def test_equal_speed_schemes_are_bit_identical(self):
        # The outage timeline is scheme-independent, so two schemes that
        # repair at the same fixed speed must produce identical runs —
        # any daylight between them would mean the failure history leaks
        # scheme state.
        report = run_lifetime(SMALL, durations=FixedDurations(3600.0))
        pivot = report.schemes["pivot"].runs
        conventional = report.schemes["conventional"].runs
        assert pivot == conventional
        assert sum(r["chunk_failures"] for r in pivot) > 0

    def test_scheme_subset_is_stable(self, report):
        # Dropping a scheme must not perturb the remaining scheme's
        # stream (failure schedules and repair draws are per-scheme).
        solo = run_lifetime(
            LifetimeConfig(**{**SMALL.to_dict(), "schemes": ("pivot",)}),
            durations=DURATIONS,
        )
        assert solo.schemes["pivot"].runs == report.schemes["pivot"].runs


class TestSummary:
    def test_slower_repairs_never_lose_less(self, report):
        pivot = report.schemes["pivot"].total_losses
        conventional = report.schemes["conventional"].total_losses
        assert conventional >= pivot

    def test_ci_brackets_mean(self, report):
        for summary in report.schemes.values():
            low, high = summary.loss_ci95
            assert low <= summary.mean_losses <= high

    def test_loss_free_scheme_reports_infinite_mttdl(self):
        # Only transient machine outages: nothing is ever destroyed.
        loss_free = run_lifetime(
            LifetimeConfig(
                years=1, runs=2, seed=1, schemes=("pivot",),
                stripes=2, disk_mttf_days=0.0, machine_mttf_days=30.0,
                rack_mttf_days=0.0,
            ),
            durations=FixedDurations({"pivot": 60.0}),
        )
        summary = loss_free.schemes["pivot"]
        assert summary.total_losses == 0
        assert math.isinf(summary.mttdl_years(1.0))
        assert math.isinf(summary.durability_nines(1.0, 2))
        payload = loss_free.summary()["schemes"]["pivot"]
        assert payload["mttdl_years"] is None
        assert payload["durability_nines"] is None

    def test_summary_payload_shape(self, report):
        payload = report.summary()
        assert payload["digest"] == report.digest
        assert payload["config"]["seed"] == 11
        for scheme in SMALL.schemes:
            entry = payload["schemes"][scheme]
            assert entry["total_data_loss_events"] >= 0
            assert len(entry["loss_ci95"]) == 2


class TestArtifactsAndObservability:
    def test_jsonl_artifact(self, tmp_path, report):
        path = tmp_path / "lifetime.jsonl"
        report.write_jsonl(path)
        lines = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert lines[0]["kind"] == "summary"
        runs = [line for line in lines if line["kind"] == "run"]
        assert len(runs) == SMALL.runs * len(SMALL.schemes)
        assert {r["scheme"] for r in runs} == set(SMALL.schemes)

    def test_registry_and_tsdb_and_tracer(self):
        registry = MetricsRegistry()
        tsdb = TimeSeriesDB()
        tracer = Tracer()
        report = run_lifetime(
            SMALL, durations=DURATIONS, registry=registry, tsdb=tsdb,
            tracer=tracer,
        )
        families = registry.snapshot()["families"]
        assert "lifetime_data_loss_events_total" in families
        assert "lifetime_repairs_completed_total" in families
        losses = report.schemes["conventional"].total_losses
        if losses:
            assert "lifetime_mttdl_years" in families
            assert len(tsdb) > 0
        names = {event.name for event in tracer.events}
        assert "lifetime.run" in names
        if losses:
            assert "lifetime.loss" in names


class TestConfigValidation:
    def test_rejects_unknown_scheme(self):
        with pytest.raises(LifetimeError):
            LifetimeConfig(schemes=("pivot", "raid"))

    def test_rejects_small_cluster(self):
        with pytest.raises(LifetimeError):
            LifetimeConfig(machines=4, n=6, k=4)

    def test_rejects_all_layers_disabled(self):
        config = LifetimeConfig(
            disk_mttf_days=0.0, machine_mttf_days=0.0, rack_mttf_days=0.0
        )
        with pytest.raises(LifetimeError):
            default_processes(config)

    def test_duration_scale(self):
        config = LifetimeConfig(data_per_chunk_gib=64.0)
        assert config.duration_scale == pytest.approx(1024.0)

    def test_horizon(self):
        config = LifetimeConfig(years=2.0)
        assert config.horizon == pytest.approx(2 * 365 * 86_400.0)
