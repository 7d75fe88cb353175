"""The per-round residual snapshot: shared, and never stale.

A master plans against its :class:`~repro.repair.jobmaster.ResidualView`
— the residual snapshot built once per ``(sim.now, rate epoch)`` and
handed to every plan of a scheduling round.  Two things have to hold for
that to be invisible:

* **sharing is safe** — no planner and no master step writes to the
  snapshot it was given (``TestSharingIsSafe``);
* **a reused snapshot is a fresh one** — whatever moves the rates or the
  capacities also moves the key, so the view returns exactly what a
  from-scratch build would (``TestInvalidation``, one test per site, and
  ``TestReusedIsFresh``, the composed drivers).

``TestPlanningGate`` is the planning gate: exact counts of how
often the stack answered the question.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.repair.fullnode as fullnode
import repro.traces.generators as trace_generators
from repro.baselines import (
    ConventionalPlanner,
    PPRPlanner,
    PPTPlanner,
    RPPlanner,
)
from repro.core import BandwidthSnapshot, PivotRepairPlanner
from repro.core.plan import pin_planning
from repro.core.rack_aware import RackAwarePivotPlanner, RackSnapshot
from repro.ec import RSCode, place_stripes
from repro.exceptions import ClusterError, PlanningError
from repro.experiments.fullnode_experiment import (
    FIG7_SCHEDULER,
    stripes_with_failures,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.faults.network import FaultyNetwork
from repro.loadgen import (
    ForegroundEngine,
    LoadProfile,
    generate_requests,
    make_governor,
)
from repro.network.bandwidth import BandwidthTrace, NodeBandwidth
from repro.network.simulator import FluidSimulator
from repro.network.topology import StarNetwork
from repro.repair import repair_full_node, repair_full_node_adaptive
from repro.repair.jobmaster import (
    ResidualView,
    StripeRepairMaster,
    choose_requestor,
)
from repro.repair.pipeline import ExecutionConfig

NODES = 12
CODE = RSCode(6, 4)
CONFIG = ExecutionConfig(chunk_size=64 * 1024 * 1024)


def star():
    return StarNetwork.constant(
        [1e8 + i * 3e6 for i in range(NODES)],
        [1e8 + i * 5e6 for i in range(NODES)],
    )


def stepped(at=5.0):
    """Every node's capacity halves at ``at``: one capacity breakpoint."""
    return StarNetwork(
        [
            NodeBandwidth(
                BandwidthTrace([0.0, at], [up, up / 2]),
                BandwidthTrace([0.0, at], [down, down / 2]),
            )
            for up, down in (
                (1e8 + i * 3e6, 1e8 + i * 5e6) for i in range(NODES)
            )
        ]
    )


def pinned(seconds=0.0):
    return pin_planning(PivotRepairPlanner(), seconds)


def scratch_residual(network, sim):
    """The residual rebuilt from nothing, as the parent commit did."""
    base = BandwidthSnapshot.from_network(network, sim.now)
    sim._ensure_rates()
    used_up, used_down = {}, {}
    for entity in sim._entities.values():
        for (kind, node), coefficient in entity.usage.items():
            used = {"up": used_up, "down": used_down}.get(kind)
            if used is not None:
                used[node] = used.get(node, 0.0) + coefficient * entity.rate
    return BandwidthSnapshot(
        up={n: max(base.up[n] - used_up.get(n, 0.0), 0.0) for n in base.up},
        down={
            n: max(base.down[n] - used_down.get(n, 0.0), 0.0)
            for n in base.down
        },
        time=sim.now,
    )


def frozen(snapshot):
    """Everything a reader can see of a snapshot, key order included."""
    return (
        list(snapshot.up.items()), list(snapshot.down.items()),
        snapshot.time,
    )


def make_master(network, sim, count=6, planner=None, faults=None):
    stripes = place_stripes(count, CODE, NODES, np.random.default_rng(7))
    failed = stripes[0].placement[0]
    return StripeRepairMaster(
        None, planner or pinned(), network, stripes, failed, sim=sim,
        scheme="test", config=CONFIG, faults=faults,
        retry_policy=RetryPolicy() if faults else None,
    )


# ----------------------------------------------------------------------
# Sharing is safe
# ----------------------------------------------------------------------
bandwidths = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@st.composite
def planning_problems(draw):
    nodes = draw(st.integers(min_value=6, max_value=10))
    up = draw(st.lists(bandwidths, min_size=nodes, max_size=nodes))
    down = draw(st.lists(bandwidths, min_size=nodes, max_size=nodes))
    k = draw(st.integers(min_value=2, max_value=nodes - 2))
    helpers = draw(st.integers(min_value=k, max_value=nodes - 1))
    return up, down, k, list(range(1, helpers + 1))


class TestSharingIsSafe:
    @given(planning_problems())
    @settings(max_examples=40, deadline=None)
    def test_no_planner_writes_to_its_snapshot(self, problem):
        up, down, k, candidates = problem
        nodes = range(len(up))
        flat = BandwidthSnapshot(
            up=dict(zip(nodes, up)), down=dict(zip(nodes, down)), time=3.0
        )
        racked = RackSnapshot(
            up=dict(zip(nodes, up)), down=dict(zip(nodes, down)), time=3.0,
            rack_of={node: node % 3 for node in nodes},
            rack_up={rack: 4e8 for rack in range(3)},
            rack_down={rack: 4e8 for rack in range(3)},
        )
        planners = [
            (PivotRepairPlanner(), flat),
            (RPPlanner(), flat),
            (PPTPlanner(), flat),
            (ConventionalPlanner(), flat),
            (PPRPlanner(), flat),
            (RackAwarePivotPlanner(), racked),
        ]
        for planner, snapshot in planners:
            before = frozen(snapshot)
            planner.plan(snapshot, 0, candidates, k)
            assert frozen(snapshot) == before, planner.name

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_a_master_plans_a_round_on_one_untouched_snapshot(self, level):
        network = star()
        sim = FluidSimulator(network)
        master = make_master(network, sim)
        master.submit(*master.candidate())
        master.degrade_to(level)
        shared = master.view.snapshot()
        before = frozen(shared)
        plans = [master.plan(stripe) for stripe in master.pending]
        assert len(plans) >= 3
        assert master.view.snapshot() is shared
        assert frozen(shared) == before
        assert before == frozen(scratch_residual(network, sim))
        if level >= 1:
            assert all(len(plan.helpers) == CODE.k for plan in plans)


# ----------------------------------------------------------------------
# One test per invalidation site
# ----------------------------------------------------------------------
class Site:
    """Snapshot, act, snapshot again; compare with from-scratch builds.

    The view's second answer must equal a rebuild — so it differs from
    its first exactly when the rebuilds differ — and may be the first
    object only if nothing at all moved.
    """

    def __init__(self, network, view=None):
        self.view = view or ResidualView(network, FluidSimulator(network))
        self.network = network
        self.sim = self.view.sim

    def changed_by(self, act):
        """Did ``act`` move any residual bandwidth (per the view)?"""
        network, sim, view = self.network, self.sim, self.view
        first = view.snapshot()
        seen = frozen(first)
        assert seen == frozen(scratch_residual(network, sim))
        act(sim)
        second = view.snapshot()
        rebuilt = frozen(scratch_residual(network, sim))
        assert frozen(second) == rebuilt
        assert frozen(first) == seen  # the old object was not rewritten
        if second is first:
            assert rebuilt == seen
        return rebuilt[:2] != seen[:2]


class TestInvalidation:
    def test_every_site_moves_the_rate_epoch(self):
        sim = FluidSimulator(star())
        epochs = [sim.rate_epoch]

        def moved():
            epochs.append(sim.rate_epoch)
            return epochs[-1] > epochs[-2]

        handle = sim.submit_pipelined([(1, 0), (2, 1)], 1e9)
        assert moved()
        sim.submit_bulk([(3, 4, 1e6)])
        assert moved()
        sim.set_task_max_rate(handle, 1e6)
        assert moved()
        sim.set_task_max_rate(handle, 1e6)  # same cap: nothing moved
        assert not moved()
        sim.current_usage(), sim.current_rate(handle)  # reads move nothing
        assert not moved()
        sim.advance_to(sim.now)
        assert moved()
        sim.run_until_completion()  # the bulk flow finishes
        assert moved()
        sim.cancel_task(handle)
        assert moved()

    def test_nothing_happened(self):
        site = Site(star())
        site.sim.submit_pipelined([(1, 0), (2, 1)], 1e9)
        assert not site.changed_by(lambda sim: None)
        assert (site.view.snapshots_built, site.view.snapshots_reused) == (
            1, 1,
        )

    def test_submit_pipelined(self):
        site = Site(star())
        assert site.changed_by(
            lambda sim: sim.submit_pipelined([(1, 0), (2, 1)], 1e9)
        )

    def test_submit_bulk(self):
        site = Site(star())
        assert site.changed_by(lambda sim: sim.submit_bulk([(3, 4, 1e9)]))

    def test_cancel(self):
        site = Site(star())
        handle = site.sim.submit_pipelined([(1, 0), (2, 1)], 1e9)
        assert site.changed_by(lambda sim: sim.cancel_task(handle))

    def test_set_task_max_rate(self):
        site = Site(star())
        handle = site.sim.submit_pipelined([(1, 0), (2, 1)], 1e9)
        assert site.changed_by(
            lambda sim: sim.set_task_max_rate(handle, 1e6)
        )
        # The same cap again moves nothing, and nothing is rebuilt.
        built = site.view.snapshots_built
        assert not site.changed_by(
            lambda sim: sim.set_task_max_rate(handle, 1e6)
        )
        assert site.view.snapshots_built == built

    def test_time_passing_inside_an_epoch_rebuilds_to_the_same_values(self):
        site = Site(star())
        site.sim.submit_pipelined([(1, 0), (2, 1)], 1e12)
        first = site.view.snapshot()
        site.sim.advance_to(1.0)
        second = site.view.snapshot()
        assert second is not first and second.time == 1.0
        assert (second.up, second.down) == (first.up, first.down)
        assert site.view.base_builds == 1

    def test_completion_inside_charge_planning(self):
        network = star()
        sim = FluidSimulator(network)
        # Planning "takes" a minute: the first flight finishes inside
        # the second stripe's planning window.
        master = make_master(network, sim, planner=pinned(60.0))
        first_stripe, first_plan = master.candidate()
        master.submit(first_stripe, first_plan)
        site = Site(network, master.view)

        def plan_the_next(sim):
            stripe, plan = master.candidate()
            master.charge_planning(stripe, plan)

        assert site.changed_by(plan_the_next)
        assert len(master.results) == 1 and not master.in_flight
        idle = BandwidthSnapshot.from_network(network, sim.now)
        after = master.view.snapshot()
        assert (after.up, after.down) == (idle.up, idle.down)

    def test_advance_to_across_a_capacity_breakpoint(self):
        site = Site(stepped(at=5.0))
        # Inside the epoch: rebuilt (time moved), same values, same base.
        assert not site.changed_by(lambda sim: sim.advance_to(4.0))
        assert site.view.base_builds == 1
        assert site.changed_by(lambda sim: sim.advance_to(5.0))
        assert site.view.base_builds == 2
        assert site.view.snapshot().up[0] == 1e8 / 2

    def test_flow_running_across_a_capacity_breakpoint(self):
        site = Site(stepped(at=5.0))
        site.sim.submit_pipelined([(1, 0), (2, 1)], 1e12)
        assert site.changed_by(lambda sim: sim.advance_to(6.0))
        assert site.view.base_builds == 2

    @pytest.mark.parametrize(
        "spec", ["degrade:3@2-4x0.25", "crash:3@2", "stall:3@2+1"]
    )
    def test_fault_taking_effect_at_t(self, spec):
        plan = FaultPlan.from_spec(spec)
        network = FaultyNetwork.wrap(star(), plan)
        site = Site(network)
        healthy = site.view.snapshot().up[3]
        # Just before the fault: time moved, the capacities did not.
        site.changed_by(lambda sim: sim.advance_to(1.999999))
        assert site.view.snapshot().up[3] == healthy
        assert site.view.base_builds == 1
        assert site.changed_by(lambda sim: sim.advance_to(2.0))
        assert site.view.snapshot().up[3] < healthy
        assert site.view.base_builds == 2

    def test_residual_snapshot_is_a_build_from_scratch(self):
        site = Site(star())
        site.sim.submit_pipelined([(1, 0), (2, 1)], 1e9)
        kept = site.view.snapshot()
        built = ResidualView(site.network, site.sim).snapshot()
        assert built is not kept and frozen(built) == frozen(kept)
        assert ResidualView(site.network, site.sim).snapshot() is not built

    def test_a_snapshot_short_of_the_cluster_is_a_planning_error(self):
        # StripeRepairMaster.candidate() aborts a stripe cleanly on
        # (ClusterError, PlanningError); a bare KeyError would escape it.
        stripe = place_stripes(1, CODE, NODES, np.random.default_rng(7))[0]
        failed = stripe.placement[0]
        short = BandwidthSnapshot(up={0: 1e8}, down={0: 1e8})
        with pytest.raises(PlanningError, match="not in snapshot"):
            choose_requestor(short, stripe, failed, NODES)


# ----------------------------------------------------------------------
# The composed drivers: every read of the view sees what a rebuild would
# ----------------------------------------------------------------------
def input_facts(inputs):
    return (
        frozen(inputs.snapshot), inputs.requestor, inputs.candidates,
        inputs.k,
    )


@pytest.fixture
def audited_plans(monkeypatch):
    """Every ``StripeRepairMaster.plan_inputs`` is checked against a
    rebuild: every read of the view, whether a plan follows or not.

    The inputs are read twice — with the view replaced by the
    from-scratch build, then from the view — and both (the snapshot's
    contents, requestor, candidates, k) or the errors must agree; the
    plan is a function of them.  Returns the audited-reads counter.
    """
    real_inputs = StripeRepairMaster.plan_inputs
    real_snapshot = ResidualView.snapshot
    audited = [0]

    def rebuilt(view):
        return scratch_residual(view.network, view.sim)

    def plan_inputs(self, stripe):
        cached = self.view.snapshot()
        assert frozen(cached) == frozen(rebuilt(self.view))
        monkeypatch.setattr(ResidualView, "snapshot", rebuilt)
        try:
            expected = input_facts(real_inputs(self, stripe))
        except (ClusterError, PlanningError) as exc:
            expected = str(exc)
        monkeypatch.setattr(ResidualView, "snapshot", real_snapshot)
        audited[0] += 1
        try:
            inputs = real_inputs(self, stripe)
        except (ClusterError, PlanningError) as exc:
            assert str(exc) == expected
            raise
        assert input_facts(inputs) == expected
        return inputs

    monkeypatch.setattr(StripeRepairMaster, "plan_inputs", plan_inputs)
    return audited


def foreground_engine(stripes, failed):
    profile = LoadProfile(
        name="audit", arrival_rate=40.0, duration=3.0, read_fraction=0.9,
        request_size=4 * 1024 * 1024, zipf_s=0.9,
    )
    return ForegroundEngine(
        stripes, generate_requests(profile, stripes, NODES, seed=5),
        pinned(), failed_nodes={failed},
    )


def outcome(result):
    """A full-node result, and apart from it the solves its simulator
    ran (the one number the two engines may disagree on)."""
    telemetry = dict(result.telemetry)
    counters = telemetry["counters"] = dict(telemetry["counters"])
    solves = counters.pop("sim_rate_recomputations")
    summary = (
        result.total_seconds, result.chunks_repaired, result.chunks_failed,
        result.bytes_transferred, telemetry,
    )
    return summary, solves


class TestReusedIsFresh:
    @given(
        adaptive=st.booleans(),
        faults=st.sampled_from(
            [None, "crash", "degrade", "readerr", "crash+degrade"]
        ),
        foreground=st.booleans(),
        governed=st.booleans(),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_plan_of_a_run(
        self, audited_plans, adaptive, faults, foreground, governed, seed,
    ):
        before = audited_plans[0]
        result = self.run(adaptive, faults, foreground, governed, seed)
        assert result.chunks_repaired + result.chunks_failed > 0
        assert audited_plans[0] - before >= result.chunks_repaired

    @pytest.mark.parametrize("faults", [None, "crash+degrade"])
    @pytest.mark.parametrize("adaptive", [False, True])
    def test_every_plan_on_the_reference_engine(
        self, audited_plans, reference_engine, adaptive, faults,
    ):
        # Foreground load and a governor on both engines: every plan is
        # audited, and the runs plan and end alike.
        fast, fast_solves = outcome(
            self.run(adaptive, faults, True, True, seed=2)
        )
        plans = audited_plans[0]
        with reference_engine():
            reference, reference_solves = outcome(
                self.run(adaptive, faults, True, True, seed=2)
            )
        assert audited_plans[0] == 2 * plans > 0
        assert reference == fast
        # The reference really ran: it solves at every event.
        assert reference_solves > fast_solves

    @staticmethod
    def run(adaptive, faults, foreground, governed, seed):
        """One composed full-node run on a 12-node star."""
        stripes = place_stripes(
            8, CODE, NODES, np.random.default_rng(seed)
        )
        failed = stripes[0].placement[0]
        helpers = [n for n in stripes[0].placement if n != failed]
        specs = {
            "crash": f"crash:{helpers[0]}@0.3",
            "degrade": f"degrade:{helpers[1]}@0.2-1.5x0.3",
            "readerr": f"readerr:{helpers[0]}@0.3",
            "crash+degrade": (
                f"crash:{helpers[0]}@0.3;degrade:{helpers[2]}@0.1-2x0.5:down"
            ),
        }
        plan = FaultPlan.from_spec(specs[faults]) if faults else None
        fg = foreground_engine(stripes, failed) if foreground else None
        driver = repair_full_node_adaptive if adaptive else repair_full_node
        return driver(
            pinned(), star(), stripes, failed, config=CONFIG,
            faults=plan, retry_policy=RetryPolicy() if plan else None,
            foreground=fg,
            governor=make_governor("adaptive") if governed else None,
        )

    def test_on_a_traced_network(self, audited_plans):
        trace = trace_generators.generate_all(16, 240, seed=3000)["TPC-H"]
        failed = int(np.argmax(trace.used_node_bandwidth().mean(axis=1)))
        result = repair_full_node_adaptive(
            pinned(), trace.to_network(floor=1e6),
            stripes_with_failures(CODE, failed, 16, seed=100, count=10),
            failed, scheduler=FIG7_SCHEDULER, config=ExecutionConfig(),
            start_time=60.0,
        )
        assert result.chunks_repaired == 10
        assert audited_plans[0] > 10


# ----------------------------------------------------------------------
# The planning gate
# ----------------------------------------------------------------------
class TestPlanningGate:
    """The planning gate (``-k PlanningGate``).

    Exact, machine-independent counts on a pinned scenario (a generated
    TPC-H trace, repair starting at 60 s, planning cost pinned to zero):
    the residual snapshot is built once per scheduling decision, not
    once per plan, and the network is sampled once per capacity epoch
    the run plans in.
    """

    @pytest.fixture
    def masters(self, monkeypatch):
        made = []

        class Recorded(StripeRepairMaster):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.examined_at = []
                made.append(self)

            def plan_inputs(self, stripe):
                self.examined_at.append(self.sim.now)
                return super().plan_inputs(stripe)

        monkeypatch.setattr(fullnode, "StripeRepairMaster", Recorded)
        return made

    @staticmethod
    def counted(planner):
        """``planner`` with its ``plan`` calls counted in ``.calls``."""
        inner = planner.plan

        def plan(*args, **kwargs):
            planner.calls += 1
            return inner(*args, **kwargs)

        planner.calls, planner.plan = 0, plan
        return planner

    def scenario(self, chunks):
        trace = trace_generators.generate_all(16, 240, seed=3000)["TPC-H"]
        failed = int(np.argmax(trace.used_node_bandwidth().mean(axis=1)))
        stripes = stripes_with_failures(
            CODE, failed, 16, seed=100, count=chunks
        )
        return trace.to_network(floor=1e6), stripes, failed

    def epochs_planned_in(self, master):
        return len(
            {master.network.next_change_after(t) for t in master.examined_at}
        )

    def test_adaptive_builds_one_snapshot_per_round(self, masters):
        network, stripes, failed = self.scenario(16)
        planner = self.counted(pinned())
        result = repair_full_node_adaptive(
            planner, network, stripes, failed, scheduler=FIG7_SCHEDULER,
            config=ExecutionConfig(), start_time=60.0,
        )
        (master,) = masters
        view = master.view
        rounds = result.telemetry["counters"]["scheduler_rounds"]
        examined = len(master.examined_at)
        assert result.chunks_repaired == 16
        # Every pending stripe of a round is examined on one snapshot...
        assert view.snapshots_built == rounds
        assert view.snapshots_built + view.snapshots_reused == examined
        assert examined > 4 * rounds
        # ...and only those whose ceiling can still win are planned.
        assert master.plans == planner.calls
        assert rounds <= master.plans < examined
        assert view.base_builds == self.epochs_planned_in(master)
        assert view.base_builds <= view.snapshots_built

    def test_window_builds_one_snapshot_per_refill(self, masters):
        network, stripes, failed = self.scenario(48)
        planner = self.counted(pinned())
        result = repair_full_node(
            planner, network, stripes, failed, concurrency=4,
            config=ExecutionConfig(), start_time=60.0,
        )
        (master,) = masters
        view = master.view
        assert result.chunks_repaired == 48
        # A refill plans one stripe, charges and submits it: every plan
        # is its own scheduling decision.
        assert master.plans == planner.calls == len(master.examined_at) == 48
        assert (view.snapshots_built, view.snapshots_reused) == (48, 0)
        assert view.base_builds == self.epochs_planned_in(master)
        assert view.base_builds < 48

    def test_counters_stay_out_of_the_hashed_telemetry(self, masters):
        network, stripes, failed = self.scenario(4)
        result = repair_full_node(
            pinned(), network, stripes, failed, config=ExecutionConfig(),
            start_time=60.0,
        )
        flat = repr(result.telemetry)
        for name in ("snapshots_built", "snapshots_reused", "base_builds"):
            assert name not in flat
        assert "'plans'" not in flat
