"""The benchmark's vocabulary: workloads, metrics, bounds, sizes.

Everything a later PR quotes by name is declared here once.  ``run.py``
emits exactly these names, ``compare.py`` reads bounds and directions
from here, and the self-tests check that ``BENCHMARK.json`` agrees.

Two kinds of time never mix:

* **host** — what the simulator costs to run on this machine (noisy;
  compared by median against a relative bound);
* **sim** — what the modelled cluster would take (bit-deterministic for
  a seed; compared exactly, ``SIM_RTOL``).
"""

from __future__ import annotations

import re

#: Relative tolerance for simulated metrics: any larger drift is a
#: behaviour change, not noise.
SIM_RTOL = 1e-9

#: Result-file schema version.
SCHEMA_VERSION = 1

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: name -> why it exists (with the sizes of one pass: the contract's
#: ``BENCHMARK.json`` has no other place for them), the sizes of one
#: pass, and the reduced ``--quick`` sizes.  Sizes were tuned on a
#: 2-core box so one pass costs ~0.6-1 s of host time (the contract caps
#: a whole run - set-up, warm-up and >= 5 timed passes - at ~20 s, so
#: the issue's 1.5-3 s pass targets were cut in size, never in pass
#: count).  The driver supplies the seed; it feeds every generator.
WORKLOADS: dict[str, dict] = {
    "single_chunk_sweep": {
        "why": (
            "1440 repair_single_chunk per pass (3 traces x 4 codes x 60 "
            "congested instants x {PivotRepair, RP}), >=5 passes: planner "
            "+ executor dominate, ~7 simulator steps per repair - "
            "bypasses event-loop work"
        ),
        "sizes": {
            "nodes": 16, "trace_seconds": 6000,
            "codes": [[6, 4], [9, 6], [12, 8], [14, 10]],
            "instants_per_cell": 60, "schemes": ["PivotRepair", "RP"],
            "fluid_check_snapshots": 20,
        },
        "quick": {"trace_seconds": 1500, "instants_per_cell": 6},
    },
    "fullnode_traced": {
        "why": (
            "3 traced networks, RS(6,4): adaptive Eq. 3 over 48 lost "
            "chunks (re-plans all pending ones per round: scheduler + "
            "planner bound) + fixed window 4 over 512 (orchestration + "
            "simulator bound), >=5 passes"
        ),
        "sizes": {
            "nodes": 16, "trace_seconds": 6000, "code": [6, 4],
            "adaptive_chunks": 48, "fixed_chunks": 512, "window": 4,
        },
        "quick": {
            "trace_seconds": 1500, "adaptive_chunks": 16,
            "fixed_chunks": 48,
        },
    },
    "hot_foreground": {
        "why": (
            "16 nodes, 160 stripes of 64 MiB chunks, Poisson 120 req/s x "
            "42 s beside a full-node repair, adaptive governor, >=5 "
            "passes: event loop + loadgen + governor do the work, the "
            "planner almost none"
        ),
        "sizes": {
            "nodes": 16, "code": [6, 4], "stripes": 160,
            "chunk_mib": 64, "window": 4, "arrival_rate": 120.0,
            "duration_s": 42.0, "zipf_s": 0.9, "request_mib": 1,
            "read_fraction": 0.9, "governor": "adaptive",
        },
        "quick": {"stripes": 48, "duration_s": 12.0},
    },
    "engine_storm": {
        "why": (
            "1024-node storms on the fast engine: sparse 900 repairs/2700 "
            "flows, dense 3 x 100/300, burst 110/330, >=5 passes: network "
            "layer alone, so a gain for one regime that costs another "
            "shows"
        ),
        "sizes": {
            "nodes": 1024,
            "sparse": {"repairs": 900, "flows": 2700, "horizon": 1080.0},
            "dense": {
                "repairs": 100, "flows": 300, "horizon": 40.0,
                "instances": 3,
            },
            "burst": {"repairs": 110, "flows": 330, "horizon": 240.0},
            "equivalence_check": {"nodes": 64, "repairs": 24, "flows": 72},
        },
        "quick": {
            "sparse": {"repairs": 150, "flows": 450, "horizon": 180.0},
            "dense": {
                "repairs": 30, "flows": 90, "horizon": 12.0, "instances": 2,
            },
            "burst": {"repairs": 30, "flows": 90, "horizon": 240.0},
        },
    },
    "fleet_storm": {
        "why": (
            "run_storm on 3 seeds plain + 1 observed (live Tracer, "
            "RepairJournal on a real file, critical paths, Chrome "
            "export), >=5 passes: control plane + jobmaster + faults + "
            "SLO/TSDB; observation cost shows"
        ),
        "sizes": {
            "plain_seeds": 3, "observed_seeds": 1,
            "foreground_duration_s": 16.0,
        },
        "quick": {"plain_seeds": 1, "foreground_duration_s": 8.0},
    },
    "lifetime_mc": {
        "why": (
            "run_lifetime, 4 years x 4 runs x 2 schemes = 32 simulated "
            "years of 64 stripes, >=5 passes: exercises only "
            "repro.lifetime; the prediction for any network/planner/obs "
            "change is no movement"
        ),
        "sizes": {
            "years": 4, "runs": 4, "stripes": 64, "disk_mttf_days": 30.0,
            "repair_streams": 1,
            "durations_s": {"pivot": 3600.0, "conventional": 14400.0},
        },
        "quick": {"years": 1, "runs": 2},
    },
    "byte_repair": {
        "why": (
            "fresh Cluster(16, RS(6,4)) per pass: write 12 stripes of 1 "
            "MiB chunks (48 MiB), then fail nodes, rebuild and verify 24 "
            "chunks, >=5 passes: the data plane, repro.ec GF(2^8) kernels "
            "+ repro.cluster"
        ),
        "sizes": {
            "nodes": 16, "code": [6, 4], "chunk_mib": 1, "stripes": 12,
            "rebuilt_chunks": 24,
        },
        "quick": {"stripes": 4, "rebuilt_chunks": 6},
    },
}

ALL = tuple(WORKLOADS)

#: The 16 end-to-end metrics of the issue, one ``bound`` each: the share
#: of the base's median by which the metric may worsen before
#: ``compare.py`` (and, for the gated ones, the driver) calls it a
#: regression.  Host metrics: 10 %; simulated ones: exact.  The three
#: that ``BENCHMARK.json`` gates (:data:`GATED`) must also stay within
#: their bound over ten *different* seeds, so the two times carry the
#: contract's widest bound: measured over ten seeds their spread
#: reaches 0.12 (``results/steadiness.json``), most of it the work
#: itself varying with the seed (about 0.1 on ``fleet_storm``).
END_TO_END: dict[str, dict] = {
    "setup_s": {
        "unit": "s", "better": "lower", "kind": "host", "bound": 0.25,
        "workloads": ALL,
    },
    "pass_wall_s": {
        "unit": "s", "better": "lower", "kind": "host", "bound": 0.25,
        "workloads": ALL,
    },
    "peak_rss_mb": {
        "unit": "MiB", "better": "lower", "kind": "host", "bound": 0.10,
        "workloads": ALL,
    },
    "failed_share": {
        "unit": "ratio", "better": "lower", "kind": "check", "bound": 0.0,
        "workloads": ALL,
    },
    "repairs_per_s": {
        "unit": "1/s", "better": "higher", "kind": "host", "bound": 0.10,
        "workloads": ("single_chunk_sweep",),
    },
    "repair_p50_ms": {
        "unit": "ms", "better": "lower", "kind": "host", "bound": 0.10,
        "workloads": ("single_chunk_sweep",),
    },
    "chunks_per_s": {
        "unit": "1/s", "better": "higher", "kind": "host", "bound": 0.10,
        "workloads": ("fullnode_traced", "hot_foreground", "fleet_storm"),
    },
    "tasks_per_s": {
        "unit": "1/s", "better": "higher", "kind": "host", "bound": 0.10,
        "workloads": ("hot_foreground", "engine_storm"),
    },
    "sim_years_per_s": {
        "unit": "1/s", "better": "higher", "kind": "host", "bound": 0.10,
        "workloads": ("lifetime_mc",),
    },
    "encoded_mb_per_s": {
        "unit": "MB/s", "better": "higher", "kind": "host", "bound": 0.10,
        "workloads": ("byte_repair",),
    },
    "rebuilt_mb_per_s": {
        "unit": "MB/s", "better": "higher", "kind": "host", "bound": 0.10,
        "workloads": ("byte_repair",),
    },
    "sim_repair_s": {
        "unit": "s", "better": "lower", "kind": "sim", "bound": SIM_RTOL,
        "workloads": (
            "single_chunk_sweep", "fullnode_traced", "hot_foreground",
            "fleet_storm",
        ),
    },
    "sim_fg_read_p99_ms": {
        "unit": "ms", "better": "lower", "kind": "sim", "bound": SIM_RTOL,
        "workloads": ("hot_foreground", "fleet_storm"),
    },
    "sim_slo_breach_s": {
        "unit": "s", "better": "lower", "kind": "sim", "bound": SIM_RTOL,
        "workloads": ("fleet_storm",),
    },
    "sim_pivot_losses": {
        "unit": "count", "better": "lower", "kind": "sim", "bound": SIM_RTOL,
        "workloads": ("lifetime_mc",),
    },
    "sim_fluid_err_frac": {
        "unit": "ratio", "better": "lower", "kind": "sim", "bound": SIM_RTOL,
        "workloads": ("single_chunk_sweep",),
    },
}

#: What ``BENCHMARK.json`` lists under ``end_to_end``.  The driver wants
#: every such metric from every workload, never 0, and steady over ten
#: different seeds, so only the host metrics every workload has qualify.
#: Each whole-pass rate (``repairs_per_s``, ``chunks_per_s``, ...) is a
#: constant over ``pass_wall_s``, so gating that gates them; the
#: driver's own ``failed`` / ``correct`` carry ``failed_share``; the
#: simulated metrics differ from seed to seed by design and are held
#: exactly, per seed, by ``compare.py`` against the committed baselines.
GATED = tuple(
    name for name, spec in END_TO_END.items()
    if spec["kind"] == "host" and spec["workloads"] == ALL
)


def _layer(unit: str, better: str = "lower") -> dict:
    return {"unit": unit, "better": better}


_S = _layer("s")
_N = _layer("count", "higher")
_US = _layer("us")

#: Per-layer ledger (layer = module name).  ``.calls`` counts and
#: ``.self_s`` host self-times come from the traced run, per traced
#: pass; rates and ratios are as stated in the README.
PER_LAYER: dict[str, dict] = {
    "core.plan.calls": _N,
    "core.plan.self_s": _S,
    "core.plan.us_n16": _US,
    "core.plan.us_n64": _US,
    "core.plan.us_n256": _US,
    "core.snapshot.calls": _N,
    "core.snapshot.self_s": _S,
    "core.scheduler.rounds": _N,
    "core.scheduler.self_s": _S,
    "core.scheduler.plans_per_dispatch": _layer("ratio"),
    "baselines.plan.calls": _N,
    "baselines.plan.self_s": _S,
    "repair.single.calls": _N,
    "repair.single.self_s": _S,
    "repair.single.p99_ms": _layer("ms"),
    "repair.fullnode_adaptive.chunks_per_s": _layer("1/s", "higher"),
    "repair.fullnode_fixed.chunks_per_s": _layer("1/s", "higher"),
    "repair.fullnode.self_s": _S,
    "repair.master.calls": _N,
    "repair.master.self_s": _S,
    "network.simulator.steps": _N,
    "network.simulator.advance.calls": _N,
    "network.simulator.advance.self_s": _S,
    "network.simulator.submit.calls": _N,
    "network.simulator.submit.self_s": _S,
    "network.simulator.us_per_step": _US,
    "network.simulator.steps_per_s": _layer("1/s", "higher"),
    "network.engine.ensure.calls": _N,
    "network.engine.ensure.self_s": _S,
    "network.engine.recomputations": _N,
    "network.engine.sparse.us_per_step": _US,
    "network.engine.dense.us_per_step": _US,
    "network.engine.burst.us_per_step": _US,
    "network.capacity.calls": _N,
    "network.capacity.self_s": _S,
    "traces.generate.self_s": _S,
    "traces.to_network.self_s": _S,
    "loadgen.generate.requests": _N,
    "loadgen.generate.self_s": _S,
    "cli.import_s": _S,
    "cli.cold_start_s": _S,
    "loadgen.pump.calls": _N,
    "loadgen.pump.self_s": _S,
    "loadgen.absorb.self_s": _S,
    "loadgen.governor.calls": _N,
    "loadgen.governor.self_s": _S,
    "loadgen.degraded_reads": _N,
    "controlplane.run.self_s": _S,
    "controlplane.decisions": _N,
    "controlplane.sheds": _N,
    "faults.network.self_s": _S,
    "faults.injector.events": _N,
    "resilience.health.self_s": _S,
    "obs.tracer.events": _N,
    "obs.tracer.emit_self_s": _S,
    "obs.tracer.overhead_frac": _layer("ratio"),
    "obs.sampler.windows": _N,
    "obs.sampler.self_s": _S,
    "obs.tsdb.points": _N,
    "obs.tsdb.self_s": _S,
    "obs.slo.evaluations": _N,
    "obs.slo.self_s": _S,
    "obs.critpath.paths": _N,
    "obs.critpath.self_s": _S,
    "obs.critpath.tiling_err_max": _S,
    "obs.export.self_s": _S,
    "obs.metrics.self_s": _S,
    "resilience.journal.records": _N,
    "resilience.journal.bytes": _layer("B", "higher"),
    "resilience.journal.append_self_s": _S,
    "lifetime.simulate.calls": _N,
    "lifetime.simulate.self_s": _S,
    "lifetime.repairs": _N,
    "lifetime.us_per_repair": _US,
    "ec.encode.self_s": _S,
    "ec.encode.mb_per_s": _layer("MB/s", "higher"),
    "ec.repair_coefficients.calls": _N,
    "ec.repair_coefficients.self_s": _S,
    "cluster.write_stripe.self_s": _S,
    "cluster.repair_chunk.calls": _N,
    "cluster.repair_chunk.self_s": _S,
    "bench.trace_overhead_frac": _layer("ratio"),
    "bench.unattributed_frac": _layer("ratio"),
    "bench.calibration_s": _S,
    "bench.speed_factor": _layer("ratio"),
}


def contract_per_layer() -> dict[str, dict]:
    """What ``BENCHMARK.json`` lists under ``per_layer``.

    The per-layer ledger plus the end-to-end metrics that cannot be
    gated per workload (see :data:`GATED`); the driver's traced run
    prints all of them, 0 where the workload bypasses the layer or the
    metric does not apply.
    """
    out = {
        name: {"unit": spec["unit"], "better": spec["better"]}
        for name, spec in END_TO_END.items()
        if name not in GATED
    }
    out.update(PER_LAYER)
    return out
