"""Cross-commit identity of the ``repro`` command line.

``tests/test_cli.py`` checks what each subcommand means; this file pins
what each one *prints*, so a PR that restructures ``repro.cli`` (or the
library code its handlers call) can show it changed nothing.  The
entries of ``cli_identity.json`` beside this file come from in-process
``main([...])`` calls on one generated trace:

* ``help``: for the top-level parser and each of the 15 subparsers, the
  SHA-256 of ``format_help()`` at 80 columns — usage, every flag and its
  help string; not the free-text description, which documents — and a
  readable table of every flag's default, type, choices and action;
* every seeded command (``trace analyze``, ``plan``, ``repair``,
  ``fullnode``, ``load``, ``resume``, ``explain``, ``critpath``,
  ``report``, ``top``, ``storm``, ``lifetime``): the SHA-256 of the
  ``--json`` payload and of the text rendering, plus those of the
  artifacts the run writes, journals included;
* ``resume-parent-journal``: a journal written at commit ``cec73eb`` by
  ``repro fullnode --journal`` and cut short
  (``cli_parent_journal.jsonl``) resumes to the same output and counts.

Planners charge a modelled cost, so every number is a function of the
seed and no entry masks one; the last test holds that the host clock
reaches no output.
A PR that means to change what a command prints regenerates the fixture
with ``scripts/rerecord.py`` in a commit of its own and says so.
"""

import contextlib
import functools
import io
import json
import os
import tempfile
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from repro import cli
from tests.recorded import Recorded, load, sha256

FIXTURE = Path(__file__).with_name("cli_identity.json")
PARENT_JOURNAL = Path(__file__).with_name("cli_parent_journal.jsonl")

#: One small seeded full-node scenario, shared by every command.
SCENARIO = ["--stripes", "6", "--chunk-mib", "4", "--seed", "3"]
FOREGROUND = ["--foreground-rate", "40"]
#: ``tests/test_cli.py``'s small storm and fast lifetime study.
STORM = [
    "--seed", "7", "--stripes", "6", "--chunk-mib", "4",
    "--foreground-rate", "30", "--foreground-duration", "12",
    "--max-time", "120",
]
LIFETIME = [
    "--years", "1", "--runs", "2", "--seed", "11", "--stripes", "8",
    "--disk-mttf-days", "30", "--repair-streams", "1",
    "--durations", "fixed", "--mean-repair-hours", "2",
]


def run(*argv, expect=0) -> str:
    """stdout of one in-process ``repro`` call made from inside the
    workspace, so every path in ``argv`` and in the output is relative."""
    out = io.StringIO()
    back = os.getcwd()
    os.chdir(workspace())  # contextlib.chdir needs Python 3.11
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = cli.main(list(argv))
    finally:
        os.chdir(back)
    assert code == expect, (argv, code)
    return out.getvalue()


@functools.cache
def workspace() -> Path:
    """A scratch directory holding the generated trace ``t.npz`` and the
    Figure 4 bandwidth file ``bw.json``; removed at interpreter exit."""
    holder = tempfile.TemporaryDirectory(prefix="cli-identity-")
    workspace.holder = holder  # keeps the directory alive
    root = Path(holder.name)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([
            "trace", "generate", "--workload", "TPC-H", "--nodes", "12",
            "--duration", "20", "--seed", "5", "--out", str(root / "t.npz"),
        ]) == 0
    up = {0: 980, 2: 750, 3: 500, 4: 150, 5: 500, 6: 500}
    down = {0: 980, 2: 100, 3: 130, 4: 1000, 5: 200, 6: 900}
    (root / "bw.json").write_text(json.dumps({
        "up": {str(n): v * 125_000 for n, v in up.items()},
        "down": {str(n): v * 125_000 for n, v in down.items()},
    }))
    return root


# ----------------------------------------------------------------------
# Help: flags and defaults
# ----------------------------------------------------------------------
def _parsers(parser, name="repro"):
    """Yield ``(name, parser)`` for a parser and its subparsers."""
    yield name, parser
    for action in parser._actions:
        if isinstance(action.choices, dict):
            for command, child in action.choices.items():
                yield from _parsers(child, f"{name} {command}")


def _flag_table(parser) -> dict:
    table = {}
    for action in parser._actions:
        if "--help" in action.option_strings:
            continue
        default = action.default
        if default is not None and not isinstance(
            default, (bool, int, float, str)
        ):
            default = str(default)
        choices = action.choices
        table["/".join(action.option_strings) or action.dest] = [
            type(action).__name__.strip("_"),
            default,
            getattr(action.type, "__name__", None),
            None if choices is None else sorted(choices),
            action.required,
        ]
    return table


def record_help() -> Recorded:
    with mock.patch.dict(os.environ, COLUMNS="80"):
        entry = {}
        for name, parser in _parsers(cli._build_parser()):
            parser.description = None
            entry[name] = {
                "help": sha256(parser.format_help()),
                "flags": _flag_table(parser),
            }
    return Recorded(entry=entry, values=entry)


# ----------------------------------------------------------------------
# Seeded commands: digests of both renderings
# ----------------------------------------------------------------------
def pinned(*argv, artifacts=(), prefix=()) -> Recorded:
    """Digests of ``repro --json <argv>`` and ``repro <argv>``, and of
    each file in ``artifacts`` (workspace-relative) the text run left;
    each run starts without them, so a journal is written afresh."""
    def fresh(*args):
        for name in artifacts:
            (workspace() / name).unlink(missing_ok=True)
        return run(*prefix, *args)

    payload = fresh("--json", *argv)
    entry = {"json": sha256(payload), "text": sha256(fresh(*argv))}
    for name in artifacts:
        entry[name] = sha256((workspace() / name).read_text())
    return Recorded(entry=entry, values=json.loads(payload))


def observed(command, *extra, artifacts=(), prefix=()):
    return lambda: pinned(
        command, "t.npz", *SCENARIO, *extra,
        artifacts=artifacts, prefix=prefix,
    )


def resumed() -> Recorded:
    """A journal that lost one ``task_done`` resumed (``--json`` only:
    a second call finds the work done), then resumed again with nothing
    left, and the journal's bytes after both."""
    path = workspace() / "resume.jsonl"
    path.unlink(missing_ok=True)
    run("--json", "fullnode", "t.npz", *SCENARIO, "--journal", path.name)
    lines = path.read_text().splitlines()
    lines.remove(next(
        line for line in lines if json.loads(line)["kind"] == "task_done"
    ))
    path.write_text("".join(line + "\n" for line in lines))
    payload = run("--json", "resume", path.name)
    complete = run("--json", "resume", path.name)
    entry = {
        "resumed": sha256(payload),
        "complete": {
            "json": sha256(complete),
            "text": sha256(run("resume", path.name)),
        },
        path.name: sha256(path.read_text()),
    }
    return Recorded(entry=entry, values=json.loads(payload))


def resume_parent_journal() -> Recorded:
    """``cli_parent_journal.jsonl``: written at ``cec73eb`` by ``repro
    fullnode --journal`` on this workspace's scenario (so its
    ``run_config`` names ``t.npz``), cut after its fifth record as a
    crash would, and resumed here.  Its records carry that commit's host
    planning times, so the journal is compared by its record kinds,
    counted, and the keys of its ``run_config`` record."""
    path = workspace() / "parent.jsonl"
    path.write_text(PARENT_JOURNAL.read_text())
    recorded = pinned("resume", path.name)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    config = next(r["data"] for r in records if r["kind"] == "run_config")
    entry = {
        **recorded.entry,
        "journal_kinds": dict(sorted(Counter(
            record["kind"] for record in records
        ).items())),
        "run_config_keys": sorted(config),
    }
    return Recorded(entry=entry, values=recorded.values)


#: ``explain`` / ``critpath`` / ``report`` / ``top --once``, each with the
#: artifact flags that name what it writes.
OBSERVED = {
    "explain": (["--diagnosis-out", "diagnosis.json"], ["diagnosis.json"]),
    "critpath": (["--critpath-out", "critpath.json"], ["critpath.json"]),
    "report": (["--html", "report.html"], ["report.html"]),
    "top --once": (
        ["--prom-out", "top.prom", "--tsdb-out", "top.tsdb"],
        ["top.prom", "top.tsdb"],
    ),
}
VARIANTS = {
    "": [],
    "-foreground": FOREGROUND,
    "-faults": [*FOREGROUND, "--faults", "crash:3@0.5"],
    "-governor": [*FOREGROUND, "--governor", "adaptive", "--slo-ms", "5"],
}

RECORDERS = {
    "help": record_help,
    "trace-analyze": lambda: pinned("trace", "analyze", "t.npz"),
    **{
        command.split()[0] + variant: observed(
            *command.split(), *flags, *extra, artifacts=artifacts
        )
        for command, (flags, artifacts) in OBSERVED.items()
        for variant, extra in VARIANTS.items()
    },
    # What the trace writer adds to a Chrome export: utilization counter
    # tracks (explain) and the foreground registry (top).
    **{
        f"{command.split()[0]}-chrome-trace": observed(
            *command.split(), *FOREGROUND, artifacts=["events.json"],
            prefix=["--trace", "events.json", "--trace-format", "chrome"],
        )
        for command in ("explain", "top --once")
    },
    # Live frames go to stdout beside the payload: text only.
    "top-live": lambda: Recorded(
        entry=sha256(run("top", "t.npz", *SCENARIO, *FOREGROUND)),
        values=None,
    ),
    "storm": lambda: pinned("storm"),
    "storm-small": lambda: pinned("storm", *STORM),
    "storm-uncontrolled": lambda: pinned(
        "storm", *STORM, "--no-admission-control", "--no-gray-wave"
    ),
    "lifetime-fixed": lambda: pinned("lifetime", *LIFETIME),
    "lifetime-exponential-lazy": lambda: pinned(
        "lifetime", *LIFETIME[:-4], "--durations", "exponential",
        "--policy", "lazy", "--schemes", "pivot,rp",
    ),
    "plan": lambda: pinned(
        "plan", "--bandwidths", "bw.json", "--requestor", "0", "--k", "4"
    ),
    "repair": lambda: pinned(
        "repair", "t.npz", "--n", "6", "--k", "4", "--chunk-mib", "4",
        "--seed", "1",
    ),
    "repair-faults": lambda: pinned(
        "repair", "t.npz", "--n", "6", "--k", "4", "--chunk-mib", "4",
        "--seed", "1", "--faults", "crash:3@0.01",
    ),
    "fullnode": observed("fullnode"),
    "fullnode-adaptive": observed("fullnode", "--adaptive"),
    "fullnode-faults": observed(
        "fullnode", "--chunk-mib", "64", "--faults", "crash:1@0.05",
        "--retry-policy", "timeout=0.5,retries=2",
    ),
    "fullnode-journal": observed(
        "fullnode", "--journal", "fullnode.jsonl",
        artifacts=["fullnode.jsonl"],
    ),
    "load": observed("load", "--arrival-rate", "60", "--load-duration", "10"),
    "load-static-faults": observed(
        "load", "--chunk-mib", "64", "--arrival-rate", "60",
        "--load-duration", "10", "--no-baseline", "--governor", "static",
        "--scheme", "rp", "--faults", "crash:1@2",
    ),
    "resume": resumed,
    "resume-parent-journal": resume_parent_journal,
}


@pytest.mark.parametrize("name", sorted(RECORDERS))
def test_command_output_is_what_was_recorded(name):
    produced = json.loads(json.dumps(RECORDERS[name]().entry))
    assert produced == load(FIXTURE)[name], json.dumps(produced, indent=1)


#: Commands whose payloads carried host planning time while the
#: planners timed themselves; ``fullnode`` also writes a journal.
CLOCKED = {
    "plan": [
        "plan", "--bandwidths", "bw.json", "--requestor", "0", "--k", "4",
    ],
    "repair": ["repair", "t.npz", "--n", "6", "--k", "4", "--chunk-mib", "4"],
    "fullnode": [
        "fullnode", "t.npz", *SCENARIO, "--adaptive",
        "--journal", "clock.jsonl",
    ],
    "load": [
        "load", "t.npz", *SCENARIO, "--arrival-rate", "60",
        "--load-duration", "10", "--faults", "crash:1@2",
    ],
}


@pytest.mark.parametrize("name", sorted(CLOCKED))
def test_the_host_clock_reaches_no_output(name):
    """The same call again under a ``perf_counter`` that runs 1 000x
    fast prints the same payload and writes the same journal bytes."""
    journal = workspace() / "clock.jsonl"

    def outputs():
        journal.unlink(missing_ok=True)
        payload = run("--json", *CLOCKED[name])
        return payload, journal.read_bytes() if journal.exists() else None

    first = outputs()
    real = time.perf_counter
    origin = real()
    with mock.patch.object(
        time, "perf_counter", lambda: origin + 1000 * (real() - origin)
    ):
        assert outputs() == first
