"""End-to-end tests for the command-line interface."""

import json
import math

import pytest

from repro import cli
from repro.cli import main
from repro.exceptions import ReproError
from repro.traces import WorkloadTrace


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.npz"
    code = main(
        [
            "trace", "generate", "--workload", "TPC-H", "--nodes", "12",
            "--duration", "300", "--seed", "5", "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture
def bandwidth_file(tmp_path):
    path = tmp_path / "bw.json"
    # Figure 4's bandwidths in Mb/s-scaled bytes/second.
    up = {0: 980, 2: 750, 3: 500, 4: 150, 5: 500, 6: 500}
    down = {0: 980, 2: 100, 3: 130, 4: 1000, 5: 200, 6: 900}
    path.write_text(
        json.dumps(
            {
                "up": {str(n): v * 125_000 for n, v in up.items()},
                "down": {str(n): v * 125_000 for n, v in down.items()},
            }
        )
    )
    return path


class TestParserTable:
    """``repro --help`` is the list of subcommands (the docs point at
    it), and ``main()`` dispatches from the parser alone."""

    @staticmethod
    def subparsers(parser) -> dict:
        (action,) = (
            a for a in parser._actions if isinstance(a.choices, dict)
        )
        listed = {entry.dest: entry.help for entry in action._choices_actions}
        return {name: (child, listed.get(name))
                for name, child in action.choices.items()}

    def test_every_subcommand_is_listed_and_has_a_handler(self):
        commands = self.subparsers(cli._build_parser())
        assert len(commands) == 13
        leaves = {}
        for name, (parser, listed) in commands.items():
            assert listed, f"repro {name} has no help= line"
            if name == "trace":
                leaves.update(
                    (f"trace {sub}", child)
                    for sub, (child, _) in self.subparsers(parser).items()
                )
            else:
                leaves[name] = parser
        assert len(leaves) == 14
        for name, parser in leaves.items():
            assert callable(parser.get_default("handler")), name
            assert callable(parser.get_default("render")), name


class TestTraceCommands:
    def test_generate_writes_loadable_trace(self, trace_file):
        trace = WorkloadTrace.load(trace_file)
        assert trace.name == "TPC-H"
        assert trace.node_count == 12
        assert trace.sample_count == 300

    def test_analyze_json(self, trace_file, capsys):
        code = main(["--json", "trace", "analyze", str(trace_file)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "TPC-H"
        assert 0 <= payload["congested_fraction"] <= 1
        assert "90%" in payload["cv_gt_0.5_given_congestion"]

    def test_analyze_text(self, trace_file, capsys):
        code = main(["trace", "analyze", str(trace_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "congested_fraction" in out

    def test_missing_trace_errors(self, tmp_path, capsys):
        code = main(["trace", "analyze", str(tmp_path / "nope.npz")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestPlanCommand:
    def test_pivot_plan_reproduces_figure4(self, bandwidth_file, capsys):
        code = main(
            [
                "--json", "plan", "--bandwidths", str(bandwidth_file),
                "--requestor", "0", "--k", "4",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bmin_mbps"] == pytest.approx(450, abs=1)
        assert sorted(payload["helpers"]) == [2, 3, 5, 6]

    def test_text_output_renders_tree(self, bandwidth_file, capsys):
        code = main(
            [
                "plan", "--bandwidths", str(bandwidth_file),
                "--requestor", "0", "--k", "4", "--scheme", "rp",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheme: RP" in out
        assert "requestor" in out

    def test_malformed_bandwidths_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"up": {"x": "y"}}')
        code = main(
            ["plan", "--bandwidths", str(path), "--requestor", "0", "--k", "2"]
        )
        assert code == 1
        assert "malformed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ['{"up": {"0": 1e8', '{"up": [1e8], "down": {}}'],
        ids=["torn-json", "list-for-map"],
    )
    def test_torn_or_misshapen_bandwidths_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = main(
            ["plan", "--bandwidths", str(path), "--requestor", "0", "--k", "2"]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: malformed bandwidth file: "
        )


class TestRepairCommand:
    def test_repair_compares_schemes(self, trace_file, capsys):
        code = main(
            [
                "--json", "repair", str(trace_file), "--n", "6", "--k", "4",
                "--chunk-mib", "4",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["schemes"]) == {"pivot", "rp", "ppt"}
        for values in payload["schemes"].values():
            assert values["total_seconds"] > 0

    def test_repair_text_table(self, trace_file, capsys):
        code = main(
            ["repair", str(trace_file), "--n", "6", "--k", "4",
             "--chunk-mib", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scheme" in out and "transfer" in out

    def test_instant_past_the_trace_is_a_clean_error(
        self, trace_file, capsys
    ):
        code = main(
            ["repair", str(trace_file), "--n", "6", "--k", "4",
             "--instant", "99999"]
        )
        assert code == 1
        assert "error: start sample 99999 out of range" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("n", [12, 20])
    def test_stripe_wider_than_the_cluster_is_a_clean_error(
        self, trace_file, capsys, n
    ):
        code = main(["repair", str(trace_file), "--n", str(n), "--k", "4"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: cannot place an (n={n}) stripe and a requestor "
            "outside it on 12 nodes\n"
        )


class TestFullnodeCommand:
    def test_fullnode_runs_both_schemes(self, trace_file, capsys):
        code = main(
            [
                "--json", "fullnode", str(trace_file), "--n", "6", "--k",
                "4", "--stripes", "6", "--chunk-mib", "4", "--adaptive",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["schemes"]) == {"rp", "pivot", "pivot+strategy"}
        assert payload["chunks"] >= 1


class TestExperimentCommand:
    def test_table1_json(self, capsys):
        code = main(
            ["experiment", "table1", "--duration", "600", "--seed", "1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table1"
        assert set(payload["rows"]) == {"TPC-DS", "TPC-H", "SWIM"}

    def test_fig6a_json(self, capsys):
        code = main(["experiment", "fig6a"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["unit"] == "KiB"
        assert "32" in payload["rows"]


class TestObservabilityFlags:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_trace_writes_jsonl(self, trace_file, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        code = main(
            ["--trace", str(out), "repair", str(trace_file), "--n", "6",
             "--k", "4", "--chunk-mib", "4"]
        )
        assert code == 0
        from repro.obs import events_from_jsonl

        events = events_from_jsonl(out.read_text())
        assert events
        names = {event.name for event in events}
        assert "planner.plan" in names
        assert "flow" in names
        assert "flow.rate_change" in names
        assert f"-> {out}" in capsys.readouterr().err

    def test_trace_chrome_format(self, trace_file, tmp_path):
        out = tmp_path / "events.json"
        code = main(
            ["--trace", str(out), "--trace-format", "chrome", "repair",
             str(trace_file), "--n", "6", "--k", "4", "--chunk-mib", "4"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
        for event in payload["traceEvents"]:
            assert {"ph", "pid", "tid"} <= set(event)
            if event["ph"] != "M":
                assert "ts" in event

    def test_metrics_adds_telemetry(self, trace_file, capsys):
        code = main(
            ["--json", "--metrics", "repair", str(trace_file), "--n", "6",
             "--k", "4", "--chunk-mib", "4"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        telemetry = payload["schemes"]["pivot"]["telemetry"]
        assert telemetry["counters"]["flows_completed"] == 1
        assert telemetry["per_bytes_up"]

    def test_timeline_rendered(self, trace_file, capsys):
        code = main(
            ["--timeline", "repair", str(trace_file), "--n", "6", "--k",
             "4", "--chunk-mib", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline" in out
        assert "node:" in out

    def test_fullnode_metrics_telemetry(self, trace_file, capsys):
        code = main(
            ["--json", "--metrics", "fullnode", str(trace_file), "--n", "6",
             "--k", "4", "--stripes", "4", "--chunk-mib", "4", "--adaptive"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        telemetry = payload["schemes"]["pivot+strategy"]["telemetry"]
        assert telemetry["counters"]["scheduler_rounds"] >= 1
        assert (
            telemetry["counters"]["flows_completed"] == payload["chunks"]
        )

    def test_verbose_logging_idempotent(self, trace_file, capsys):
        import logging

        for _ in range(2):
            code = main(
                ["-v", "repair", str(trace_file), "--n", "6", "--k", "4",
                 "--chunk-mib", "4"]
            )
            assert code == 0
        logger = logging.getLogger("repro")
        cli_handlers = [
            h for h in logger.handlers if getattr(h, "_repro_cli", False)
        ]
        assert len(cli_handlers) == 1


class TestFaultFlags:
    def test_repair_with_fault_spec_reports_status(self, trace_file, capsys):
        code = main(
            [
                "--json", "repair", str(trace_file), "--n", "6", "--k", "4",
                "--chunk-mib", "4", "--faults", "degrade:0@0-1000x0.9",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for values in payload["schemes"].values():
            assert values["status"] in ("ok", "failed")
            if values["status"] == "ok":
                assert values["attempts"] >= 1
                assert values["replans"] >= 0
            else:
                assert values["reason"]

    def test_repair_with_helper_stall(self, trace_file, capsys):
        # A stalled helper moves nothing until its stall ends at 0 + 30 s.
        code = main(
            [
                "--json", "repair", str(trace_file), "--n", "6", "--k", "4",
                "--chunk-mib", "4", "--faults", "stall:1@0+30",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for values in payload["schemes"].values():
            assert values["status"] in ("ok", "failed")
            if values["status"] == "failed":
                assert "stall" in values["reason"]

    def test_repair_with_fault_file(self, trace_file, tmp_path, capsys):
        plan_file = tmp_path / "faults.json"
        plan_file.write_text(
            json.dumps(
                {
                    "events": [
                        {"kind": "degrade", "node": 0, "start": 0.0,
                         "end": 1000.0, "factor": 0.8, "direction": "up"},
                    ]
                }
            )
        )
        code = main(
            [
                "--json", "repair", str(trace_file), "--n", "6", "--k", "4",
                "--chunk-mib", "4", "--faults", str(plan_file),
                "--retry-policy", "timeout=0.5,retries=2,backoff=0.1x2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(
            "status" in values for values in payload["schemes"].values()
        )

    def test_malformed_fault_spec_errors(self, trace_file, capsys):
        code = main(
            ["repair", str(trace_file), "--faults", "explode:1@2"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_retry_policy_errors(self, trace_file, capsys):
        code = main(
            [
                "repair", str(trace_file), "--faults", "crash:1@5",
                "--retry-policy", "bogus",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_fullnode_with_faults_reports_counters(self, trace_file, capsys):
        code = main(
            [
                "--json", "fullnode", str(trace_file), "--n", "6", "--k",
                "4", "--stripes", "4", "--chunk-mib", "4",
                "--faults", "degrade:1@0-1000x0.9",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        for values in payload["schemes"].values():
            assert "replans" in values
            assert "chunks_failed" in values
            assert (
                values["chunks_repaired"] + values["chunks_failed"]
                == payload["chunks"]
            )

    def test_fullnode_fault_text_table_has_fault_column(
        self, trace_file, capsys
    ):
        code = main(
            [
                "fullnode", str(trace_file), "--n", "6", "--k", "4",
                "--stripes", "4", "--chunk-mib", "4",
                "--faults", "degrade:1@0-1000x0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults" in out and "replans" in out


class TestLoadCommand:
    FAST = [
        "--stripes", "8", "--chunk-mib", "64", "--arrival-rate", "80",
        "--load-duration", "20", "--seed", "1",
    ]

    def test_json_payload_shape(self, trace_file, capsys):
        code = main(["--json", "load", str(trace_file), *self.FAST])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"] == "TPC-H"
        assert payload["governor"] == "adaptive"
        assert payload["requests"] > 0
        assert payload["repair_seconds"] > 0
        assert payload["bytes_by_kind"]["repair"] > 0
        assert payload["bytes_by_kind"].get("foreground", 0) > 0
        assert set(payload["read_latency_seconds"]) == {
            "p50", "p95", "p99", "p99.9"
        }

    def test_degraded_reads_surface_under_load(self, trace_file, capsys):
        for seed in ("0", "1"):
            code = main(
                [
                    "--json", "load", str(trace_file), "--stripes", "16",
                    "--chunk-mib", "256", "--arrival-rate", "120",
                    "--load-duration", "30", "--seed", seed,
                ]
            )
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["degraded_reads"] > 0, seed
            assert math.isfinite(payload["read_latency_seconds"]["p99"])
            assert payload["bytes_by_kind"]["foreground"] > 0, seed
            assert payload["repair_slowdown"] > 0, seed

    def test_baseline_gives_repair_slowdown(self, trace_file, capsys):
        code = main(["--json", "load", str(trace_file), *self.FAST])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repair_baseline_seconds"] > 0
        assert payload["repair_slowdown"] == pytest.approx(
            payload["repair_seconds"] / payload["repair_baseline_seconds"],
            abs=0.01,
        )

    def test_no_baseline_skips_extra_run(self, trace_file, capsys):
        code = main(
            ["--json", "load", str(trace_file), *self.FAST, "--no-baseline"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["repair_baseline_seconds"] is None
        assert payload["repair_slowdown"] is None

    def test_governor_none_accepted(self, trace_file, capsys):
        code = main(
            [
                "--json", "load", str(trace_file), *self.FAST,
                "--governor", "none", "--no-baseline",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["governor"] == "none"

    def test_text_rendering_mentions_latency(self, trace_file, capsys):
        code = main(["load", str(trace_file), *self.FAST, "--no-baseline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "p99" in out
        assert "degraded" in out


class TestExplainCommands:
    FAST = [
        "--n", "6", "--k", "4", "--stripes", "4", "--chunk-mib", "4",
        "--seed", "3",
    ]

    def test_explain_scenario_names_bottleneck(self, trace_file, capsys):
        code = main(["explain", str(trace_file), *self.FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "diagnosed" in out
        assert "bottleneck:" in out
        assert "B_min" in out
        assert "waterfall" in out

    def test_bottleneck_names_where_its_name_came_from(
        self, tmp_path, capsys
    ):
        # One 35 ms repair: the default interval's one sample (t = 0)
        # falls before the flow, a 0.001 s grid samples it 35 times.
        # The bottleneck is integrated from the trace, so neither grid
        # moves it.
        trace = tmp_path / "t.npz"
        assert main([
            "trace", "generate", "--workload", "TPC-DS", "--duration",
            "600", "--seed", "0", "--out", str(trace),
        ]) == 0
        lines = {}
        for interval in ("0.25", "0.001"):
            capsys.readouterr()
            assert main([
                "explain", str(trace), *self.FAST,
                "--sample-interval", interval,
            ]) == 0
            [line] = [
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("bottleneck: ")
            ]
            lines[interval] = line
        assert lines == dict.fromkeys(
            ("0.25", "0.001"),
            "bottleneck: node 0 downlink (100% of time, util 1.00)",
        )

    def test_explain_json_payload(self, trace_file, capsys):
        code = main(["--json", "explain", str(trace_file), *self.FAST])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["mode"] == "scenario"
        diagnosis = payload["diagnosis"]
        assert diagnosis["repairs"]
        assert diagnosis["top_bottleneck"] is not None
        for repair in diagnosis["repairs"]:
            assert repair["reference"] in ("oracle", "claimed", "none")

    def test_explain_writes_diagnosis_file(self, trace_file, tmp_path, capsys):
        out_file = tmp_path / "diagnosis.json"
        code = main(
            ["explain", str(trace_file), *self.FAST,
             "--diagnosis-out", str(out_file)]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["repairs"]

    def test_explain_is_deterministic(self, trace_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out_file = tmp_path / name
            code = main(
                ["explain", str(trace_file), *self.FAST,
                 "--diagnosis-out", str(out_file)]
            )
            assert code == 0
            outs.append(out_file.read_bytes())
        assert outs[0] == outs[1]

    def test_explain_saved_jsonl_trace(self, trace_file, tmp_path, capsys):
        saved = tmp_path / "run.jsonl"
        code = main(
            ["--trace", str(saved), "fullnode", str(trace_file),
             "--n", "6", "--k", "4", "--stripes", "4", "--chunk-mib", "4"]
        )
        assert code == 0
        capsys.readouterr()
        code = main(["explain", str(saved)])
        assert code == 0
        out = capsys.readouterr().out
        assert "saved run:" in out
        assert "diagnosed" in out

    @pytest.mark.parametrize("command", ["explain", "critpath"])
    def test_torn_saved_trace_is_a_clean_error(
        self, command, tmp_path, capsys
    ):
        torn = tmp_path / "torn.jsonl"
        torn.write_text(
            '{"name":"x","kind":"instant","t":0.0,"track":"sim"}\n'
            '{"name":"y","ki'
        )
        assert main([command, str(torn)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: malformed trace event")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_explain_governed_run_reports_governor(self, trace_file, capsys):
        code = main(
            ["explain", str(trace_file), *self.FAST,
             "--governor", "static", "--static-cap-mbps", "20",
             "--foreground-rate", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "governor:" in out

    @pytest.mark.parametrize(
        "command",
        ["explain", "critpath", "report --html {tmp}/run.html", "top --once"],
        ids=lambda command: command.split()[0],
    )
    def test_crashed_client_does_not_wedge_the_drain(
        self, command, tmp_path, capsys
    ):
        # A 20 s trace ends while requests of the crashed node are still
        # queued: were a dead client not dropped, they would sit at zero
        # rate forever.
        short = tmp_path / "short.npz"
        assert main(
            ["trace", "generate", "--workload", "TPC-H", "--nodes", "12",
             "--duration", "20", "--seed", "5", "--out", str(short)]
        ) == 0
        name, *flags = command.format(tmp=tmp_path).split()
        code = main(
            [name, str(short), *self.FAST, *flags,
             "--foreground-rate", "40", "--faults", "crash:3@0.5"]
        )
        assert "simulation is stuck" not in capsys.readouterr().err
        assert code == 0

    def test_report_writes_html(self, trace_file, tmp_path, capsys):
        html_file = tmp_path / "run.html"
        code = main(
            ["report", str(trace_file), *self.FAST,
             "--html", str(html_file)]
        )
        assert code == 0
        html = html_file.read_text()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html
        assert "report:" in capsys.readouterr().out

    def test_explain_chrome_trace_includes_counters(
        self, trace_file, tmp_path, capsys
    ):
        # The repair takes 35 ms: sample inside it.
        chrome = tmp_path / "trace.json"
        code = main(
            ["--trace", str(chrome), "--trace-format", "chrome",
             "explain", str(trace_file), *self.FAST,
             "--sample-interval", "0.005"]
        )
        assert code == 0
        payload = json.loads(chrome.read_text())
        counters = [
            e for e in payload["traceEvents"] if e["ph"] == "C"
        ]
        assert counters, "flight-recorder samples must export as counters"


class TestCritpathCommand:
    FAST = [
        "--n", "6", "--k", "4", "--stripes", "4", "--chunk-mib", "4",
        "--seed", "3",
    ]

    def test_critpath_renders_waterfall(self, trace_file, capsys):
        code = main(
            ["critpath", str(trace_file), *self.FAST,
             "--foreground-rate", "40"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "critical paths of" in out
        assert "waterfall" in out
        assert "anomalies: none" in out

    def test_critpath_json_payload_and_artifact(self, trace_file, tmp_path,
                                                capsys):
        artifact = tmp_path / "cp.json"
        code = main(
            ["--json", "critpath", str(trace_file), *self.FAST,
             "--critpath-out", str(artifact)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        report = payload["critpath"]
        assert report["repairs"]
        assert report["max_residual"] <= 1e-9
        assert report["anomalies"] == []
        for path in report["repairs"]:
            covered = sum(seg["duration"] for seg in path["segments"])
            assert abs(covered - path["makespan"]) <= 1e-9
        assert json.loads(artifact.read_text()) == report


class TestTopCommand:
    FAST = [
        "--n", "6", "--k", "4", "--stripes", "4", "--chunk-mib", "4",
        "--seed", "3", "--foreground-rate", "40", "--tenants", "2",
    ]

    def test_top_once_renders_final_frame(self, trace_file, capsys):
        code = main(["top", str(trace_file), *self.FAST, "--once"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "link utilization" in out
        assert "governor  cap" in out
        assert "SLO burn" in out
        assert "tenant-0" in out and "tenant-1" in out

    def test_top_json_payload_and_artifacts(self, trace_file, tmp_path,
                                            capsys):
        prom = tmp_path / "metrics.prom"
        tsdb_out = tmp_path / "tsdb.jsonl"
        code = main(
            ["--json", "top", str(trace_file), *self.FAST, "--once",
             "--prom-out", str(prom), "--tsdb-out", str(tsdb_out)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tsdb"]["series"] > 0
        assert [spec["name"] for spec in payload["slo"]["specs"]] == [
            "latency-tenant-0", "latency-tenant-1",
        ]
        assert "rendered" not in payload  # JSON mode strips the frame

        from tests.obs.promtext_lint import lint as prometheus_lint
        from tests.obs.tsdb_reader import tsdb_from_jsonl

        assert prometheus_lint(prom.read_text()) == []
        restored = tsdb_from_jsonl(tsdb_out.read_text())
        assert len(restored) == payload["tsdb"]["series"]
        assert restored.total_points > 0

    def test_top_live_emits_ansi_frames(self, trace_file, capsys):
        code = main(["top", str(trace_file), *self.FAST, "--refresh", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("\x1b[H\x1b[J") > 1
        assert "repro top" in out

    def test_top_tight_slo_fires(self, trace_file, capsys):
        code = main(
            ["--json", "top", str(trace_file), *self.FAST, "--once",
             "--slo-ms", "1", "--slo-budget", "0.01"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slo"]["firing"]
        fires = [a for a in payload["slo"]["alerts"] if a["kind"] == "fire"]
        assert fires and fires[0]["t"] > 0

    def test_top_repair_deadline_slo(self, trace_file, capsys):
        code = main(
            ["--json", "top", str(trace_file), *self.FAST, "--once",
             "--repair-deadline", "1000"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        [spec] = [
            spec for spec in payload["slo"]["specs"]
            if spec["kind"] == "repair_deadline"
        ]
        assert spec["deadline"] == 1000.0
        assert spec["name"] not in payload["slo"]["firing"]

    def test_top_rejects_saved_jsonl_target(self, trace_file, tmp_path,
                                            capsys):
        saved = tmp_path / "run.jsonl"
        code = main(
            ["--trace", str(saved), "fullnode", str(trace_file),
             "--n", "6", "--k", "4", "--stripes", "4", "--chunk-mib", "4"]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["top", str(saved), "--once"]) != 0
        assert "pass an .npz workload trace" in capsys.readouterr().err


class TestStormCommand:
    #: The small storm of tests/controlplane/test_storm.py (4 jobs).
    SMALL = [
        "--seed", "7", "--stripes", "6", "--chunk-mib", "4",
        "--foreground-rate", "30", "--foreground-duration", "12",
        "--max-time", "120",
    ]

    def test_report_and_journal_are_deterministic(self, tmp_path, capsys):
        reports, journals = [], []
        for name in ("a.jsonl", "b.jsonl"):
            journal = tmp_path / name
            assert main(
                ["--json", "storm", *self.SMALL, "--journal", str(journal)]
            ) == 0
            reports.append(json.loads(capsys.readouterr().out))
            journals.append(journal.read_bytes())
        assert reports[0] == reports[1]
        assert journals[0] and journals[0] == journals[1]
        assert reports[0]["admission_control"] is True
        assert all(job["completed"] for job in reports[0]["jobs"].values())

    def test_text_table_of_the_uncontrolled_baseline(self, capsys):
        assert main(["storm", *self.SMALL, "--no-admission-control"]) == 0
        out = capsys.readouterr().out
        assert "repair storm (seed 7, UNCONTROLLED baseline)" in out
        for column in ("job", "qos", "repaired", "failed", "drained"):
            assert column in out
        assert "decisions: " in out
        assert "SLO: " in out and "in breach" in out

    def test_single_rack_is_a_clean_error(self, capsys):
        assert main(["storm", "--racks", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.fixture
    def opened(self, monkeypatch):
        """Every ``RepairJournal`` the command opens."""
        journals = []

        class Recorded(cli.RepairJournal):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                journals.append(self)

        monkeypatch.setattr(cli, "RepairJournal", Recorded)
        return journals

    def test_journal_is_closed_after_the_run(self, opened, tmp_path):
        journal_file = tmp_path / "storm.jsonl"
        assert main(
            ["storm", *self.SMALL, "--journal", str(journal_file)]
        ) == 0
        (journal,) = opened
        assert journal._file is None  # handle released
        # One fsync per full interval of appends, plus close()'s.
        assert journal.fsyncs == journal.appends // journal.fsync_interval + 1

    def test_journal_is_closed_when_the_storm_raises(
        self, opened, monkeypatch, tmp_path, capsys
    ):
        def interrupted(config, tracer, journal):
            journal.append("job_submitted", job="node-0")
            raise ReproError("storm interrupted")

        monkeypatch.setattr(cli, "run_storm", interrupted)
        journal_file = tmp_path / "storm.jsonl"
        assert main(["storm", "--journal", str(journal_file)]) == 1
        assert capsys.readouterr().err == "error: storm interrupted\n"
        (journal,) = opened
        # Shorter than fsync_interval records: the only fsync is close()'s.
        assert journal._file is None and journal.fsyncs == 1
        assert len(journal_file.read_text().splitlines()) == 1


class TestResumeCommand:
    @pytest.fixture
    def journal_file(self, trace_file, tmp_path, capsys):
        path = tmp_path / "repair.jsonl"
        assert main(
            ["--json", "fullnode", str(trace_file), "--n", "6", "--k", "4",
             "--stripes", "6", "--chunk-mib", "4", "--seed", "3",
             "--journal", str(path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["journal"] == str(path)
        assert payload["schemes"]["pivot"]["bytes_transferred"] > 0
        return path

    @staticmethod
    def drop_first(path, kind) -> dict:
        records = [json.loads(line) for line in path.read_text().splitlines()]
        victim = next(r for r in records if r["kind"] == kind)
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records if r is not victim)
        )
        return victim

    def resume(self, path, capsys) -> dict:
        assert main(["--json", "resume", str(path)]) == 0
        return json.loads(capsys.readouterr().out)

    def test_completed_journal_has_nothing_to_resume(
        self, journal_file, capsys
    ):
        payload = self.resume(journal_file, capsys)
        assert payload["status"] == "nothing to resume"
        assert payload["stripes_remaining"] == 0
        assert payload["stripes_done"] == payload["stripes_total"] > 0

    def test_resume_repairs_exactly_the_unfinished_stripe(
        self, journal_file, capsys
    ):
        dropped = self.drop_first(journal_file, "task_done")
        payload = self.resume(journal_file, capsys)
        assert payload["status"] == "resumed"
        assert payload["stripes_remaining"] == 1
        assert (payload["chunks_repaired"], payload["chunks_failed"]) == (1, 0)
        redone = json.loads(journal_file.read_text().splitlines()[-1])
        assert redone["kind"] == "task_done"
        assert redone["data"]["stripe"] == dropped["data"]["stripe"]
        # Resuming a resume: the appended record completes the journal.
        assert self.resume(journal_file, capsys)["stripes_remaining"] == 0

    @pytest.mark.parametrize("command", ["fullnode", "storm"])
    def test_a_second_run_does_not_reuse_the_journal(
        self, command, journal_file, trace_file, capsys
    ):
        """It used to append: duplicate ``seq`` values, two run_configs,
        and a ``resume`` that answered from the wrong one."""
        before = journal_file.read_bytes()
        argv = {
            "fullnode": ["fullnode", str(trace_file), "--stripes", "8",
                         "--chunk-mib", "4", "--seed", "4"],
            "storm": ["storm", *TestStormCommand.SMALL],
        }[command]
        assert main([*argv, "--journal", str(journal_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "repro resume" in err
        assert journal_file.read_bytes() == before
        assert self.resume(journal_file, capsys)["stripes_remaining"] == 0

    def test_a_run_stopped_in_the_rp_pass_is_rerun_not_resumed(
        self, trace_file, tmp_path, monkeypatch, capsys
    ):
        """The journal records the pivot run; a run killed in the RP
        comparison pass before it leaves an empty file, which ``resume``
        names for what it is and a new run may take."""
        def interrupted(planner, *args, **kwargs):
            assert planner.name == "RP"
            raise ReproError("killed during RP")

        path = tmp_path / "repair.jsonl"
        argv = ["fullnode", str(trace_file), "--n", "6", "--k", "4",
                "--stripes", "6", "--chunk-mib", "4", "--seed", "3",
                "--journal", str(path)]
        with monkeypatch.context() as patch:
            patch.setattr("repro.scenario.repair_full_node", interrupted)
            assert main(argv) == 1
        assert capsys.readouterr().err == "error: killed during RP\n"
        assert path.read_bytes() == b""
        assert main(["resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run it again" in err
        assert main(argv) == 0
        capsys.readouterr()
        assert self.resume(path, capsys)["status"] == "nothing to resume"

    def test_journal_without_run_config_is_a_clean_error(
        self, journal_file, capsys
    ):
        self.drop_first(journal_file, "run_config")
        assert main(["resume", str(journal_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no run_config" in err


class TestLifetimeCommand:
    # Analytic durations + tiny run: fast, no fluid-sim calibration.
    FAST = [
        "--years", "1", "--runs", "2", "--seed", "11", "--stripes", "8",
        "--disk-mttf-days", "30", "--repair-streams", "1",
        "--durations", "fixed", "--mean-repair-hours", "2",
    ]

    def test_json_payload(self, capsys):
        code = main(["--json", "lifetime", *self.FAST])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["runs"] == 2
        assert set(payload["schemes"]) == {"pivot", "conventional"}
        assert len(payload["digest"]) == 64
        comparison = payload["comparison"]
        assert set(comparison) >= {
            "pivot_losses", "conventional_losses", "pivot_strictly_fewer",
        }

    def test_text_table(self, capsys):
        code = main(["lifetime", *self.FAST])
        assert code == 0
        out = capsys.readouterr().out
        assert "cluster lifetime: 2 runs x 1 simulated years" in out
        assert "MTTDL (y)" in out
        assert "digest:" in out
        assert "PivotRepair:" in out

    def test_deterministic_digest(self, capsys):
        assert main(["--json", "lifetime", *self.FAST]) == 0
        first = json.loads(capsys.readouterr().out)["digest"]
        assert main(["--json", "lifetime", *self.FAST]) == 0
        second = json.loads(capsys.readouterr().out)["digest"]
        assert first == second

    @pytest.mark.slow
    def test_acceptance_run_pivot_strictly_fewer_losses(
        self, tmp_path, capsys
    ):
        # 100 runs x 10 simulated years, durations calibrated on
        # congested instants of a trace (~8 s on a 2-vCPU host).
        out = tmp_path / "lifetime.jsonl"
        code = main(
            ["--json", "lifetime", "--years", "10", "--runs", "100",
             "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        comparison = payload["comparison"]
        assert comparison["pivot_losses"] == 1
        assert comparison["conventional_losses"] == 19
        assert comparison["pivot_strictly_fewer"]
        assert comparison["pivot_nines_advantage"]
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(1 for row in rows if row["kind"] == "run") == (
            payload["config"]["runs"] * len(payload["config"]["schemes"])
        )

    def test_artifacts(self, tmp_path, capsys):
        out = tmp_path / "lifetime.jsonl"
        tsdb_out = tmp_path / "tsdb.jsonl"
        code = main(
            ["--json", "lifetime", *self.FAST,
             "--out", str(out), "--tsdb-out", str(tsdb_out)]
        )
        assert code == 0
        capsys.readouterr()
        lines = [json.loads(l) for l in out.read_text().strip().splitlines()]
        assert lines[0]["kind"] == "summary"
        assert sum(1 for l in lines if l["kind"] == "run") == 4
        assert tsdb_out.exists()

    def test_single_scheme_skips_comparison(self, capsys):
        code = main(
            ["--json", "lifetime", *self.FAST, "--schemes", "pivot"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "comparison" not in payload
        assert set(payload["schemes"]) == {"pivot"}

    def test_metrics_flag_includes_telemetry(self, capsys):
        code = main(["--json", "--metrics", "lifetime", *self.FAST])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "lifetime_data_loss_events_total" in (
            payload["telemetry"]["families"]
        )

    def test_bad_scheme_is_a_clean_error(self, capsys):
        code = main(["lifetime", *self.FAST, "--schemes", "raid5"])
        assert code == 1
        assert "unknown scheme" in capsys.readouterr().err
