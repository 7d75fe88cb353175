"""Cross-commit identity of the ``repro`` command line.

``tests/test_cli.py`` checks what each subcommand means; this file pins
what each one *prints*, so a PR that restructures ``repro.cli`` (or the
library code its handlers call) can show it changed nothing.  Every
entry of ``cli_identity.json`` beside this file was recorded at commit
``cec73eb``, the last one whose ``cli.py`` built the seeded full-node
scenario by hand in four places, through in-process ``main([...])``
calls on one generated trace:

* ``help``: for the top-level parser and each of the 15 subparsers, the
  SHA-256 of ``format_help()`` at 80 columns — usage, every flag and its
  help string; not the free-text description, which documents — and a
  readable table of every flag's default, type, choices and action;
* the seeded commands whose planning charge is pinned (``trace
  analyze``, ``explain``, ``critpath``, ``report``, ``top --once``,
  ``storm``, ``lifetime``): the SHA-256 of the ``--json`` payload and
  of the text rendering, plus those of the artifacts the run writes;
* the commands whose numbers carry host planning time (``plan``,
  ``repair``, ``fullnode``, ``load``, ``resume``): the ``--json``
  payload itself with every key of ``SECONDS`` masked, the rest
  compared with ``==``, and the text rendering with its numbers
  blanked;
* ``resume-parent-journal``: a journal written by that commit's ``repro
  fullnode --journal`` and cut short (``cli_parent_journal.jsonl``)
  resumes to the same counts.

A PR that means to change what a command prints regenerates the fixture
with ``scripts/rerecord.py`` in a commit of its own and says so.
"""

import contextlib
import functools
import io
import json
import os
import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

from repro import cli
from tests.recorded import Recorded, load, sha256

FIXTURE = Path(__file__).with_name("cli_identity.json")
PARENT_JOURNAL = Path(__file__).with_name("cli_parent_journal.jsonl")

#: Keys whose values carry simulated seconds that include the host's
#: measured planning time (or follow from them: a latency, a rate over
#: the run, how many reads found their chunk still missing).
SECONDS = frozenset({
    "planning_seconds", "transfer_seconds", "total_seconds",
    "mean_task_seconds", "elapsed_seconds", "repair_seconds",
    "repair_baseline_seconds", "repair_slowdown", "read_latency_seconds",
    "goodput_mbps", "degraded_reads", "bytes_by_kind",
})
#: Under faults the bytes a cancelled attempt had already moved depend
#: on when, against the measured planning time, the fault landed.
FAULTED = SECONDS | {"bytes_transferred"}

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
# Pinned commands: digests of both renderings
# ----------------------------------------------------------------------
def pinned(*argv, artifacts=(), prefix=()) -> Recorded:
    """Digests of ``repro --json <argv>`` and ``repro <argv>``, and of
    each file in ``artifacts`` (workspace-relative) the text run left."""
    for name in artifacts:
        (workspace() / name).unlink(missing_ok=True)
    payload = run(*prefix, "--json", *argv)
    entry = {"json": sha256(payload), "text": sha256(run(*prefix, *argv))}
    for name in artifacts:
        entry[name] = sha256((workspace() / name).read_text())
    return Recorded(entry=entry, values=json.loads(payload))


def observed(command, *extra, artifacts=(), prefix=()):
    return lambda: pinned(
        command, "t.npz", *SCENARIO, *extra,
        artifacts=artifacts, prefix=prefix,
    )


# ----------------------------------------------------------------------
# Host-timed commands: masked payloads
# ----------------------------------------------------------------------
def mask(tree, names=SECONDS):
    if isinstance(tree, dict):
        return {
            key: "~" if key in names else mask(value, names)
            for key, value in tree.items()
        }
    if isinstance(tree, list):
        return [mask(item, names) for item in tree]
    return tree


def shape(text: str) -> str:
    """A text rendering with every number (and the unit a duration was
    scaled to) blanked and column padding collapsed: the words and the
    layout, not the host's timings."""
    text = re.sub(r"\d+(\.\d+)?(e[-+]?\d+)?( (us|µs|ms|s)\b)?", "#", text)
    text = re.sub(r"-{2,}", "--", text)
    return re.sub(r"[ \t]+", " ", text)


def timed(*argv, names=SECONDS, extra=None) -> Recorded:
    """The masked ``--json`` payload and the blanked text rendering."""
    payload = json.loads(run("--json", *argv))
    entry = {"json": mask(payload, names), "text": sha256(shape(run(*argv)))}
    if extra is not None:
        entry.update(extra())
    return Recorded(entry=entry, values=entry["json"])


def journal_kinds(name: str) -> dict:
    """Record kinds of a workspace journal, counted (their order follows
    task completion times, which carry host planning time), and the keys
    of its ``run_config`` record."""
    records = [
        json.loads(line)
        for line in (workspace() / name).read_text().splitlines()
    ]
    config = next(r["data"] for r in records if r["kind"] == "run_config")
    return {
        "journal_kinds": dict(sorted(Counter(
            record["kind"] for record in records
        ).items())),
        "run_config_keys": sorted(config),
    }


def journaled(name: str) -> str:
    """``name`` journaled afresh by ``repro fullnode``: the masked
    payload is in ``fullnode-journal``."""
    (workspace() / name).unlink(missing_ok=True)
    return run("--json", "fullnode", "t.npz", *SCENARIO, "--journal", name)


def fullnode_journaled() -> Recorded:
    payload = json.loads(journaled("fullnode.jsonl"))
    entry = {"json": mask(payload), **journal_kinds("fullnode.jsonl")}
    return Recorded(entry=entry, values=entry)


def resumed() -> Recorded:
    """A journal that lost one ``task_done`` resumed (``--json`` only:
    a second call finds the work done), then resumed again with nothing
    left."""
    journaled("resume.jsonl")
    path = workspace() / "resume.jsonl"
    lines = path.read_text().splitlines()
    lines.remove(next(
        line for line in lines if json.loads(line)["kind"] == "task_done"
    ))
    path.write_text("".join(line + "\n" for line in lines))
    entry = {
        "resumed": mask(json.loads(run("--json", "resume", "resume.jsonl"))),
        "complete": timed("resume", "resume.jsonl").entry,
        **journal_kinds("resume.jsonl"),
    }
    return Recorded(entry=entry, values=entry)


def resume_parent_journal() -> Recorded:
    """``cli_parent_journal.jsonl``: written at ``cec73eb`` by
    ``journaled`` above (so its ``run_config`` names ``t.npz``), cut
    after its fifth record as a crash would, and resumed here."""
    (workspace() / "parent.jsonl").write_text(PARENT_JOURNAL.read_text())
    return timed(
        "resume", "parent.jsonl",
        extra=lambda: journal_kinds("parent.jsonl"),
    )


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
    "plan": lambda: timed(
        "plan", "--bandwidths", "bw.json", "--requestor", "0", "--k", "4"
    ),
    "repair": lambda: timed(
        "repair", "t.npz", "--n", "6", "--k", "4", "--chunk-mib", "4",
        "--seed", "1",
    ),
    "repair-faults": lambda: timed(
        "repair", "t.npz", "--n", "6", "--k", "4", "--chunk-mib", "4",
        "--seed", "1", "--faults", "crash:3@0.01", names=FAULTED,
    ),
    "fullnode": lambda: timed("fullnode", "t.npz", *SCENARIO),
    "fullnode-adaptive": lambda: timed(
        "fullnode", "t.npz", *SCENARIO, "--adaptive"
    ),
    "fullnode-faults": lambda: timed(
        "fullnode", "t.npz", *SCENARIO, "--chunk-mib", "64",
        "--faults", "crash:1@0.05",
        "--retry-policy", "timeout=0.5,retries=2", names=FAULTED,
    ),
    "fullnode-journal": fullnode_journaled,
    "load": lambda: timed(
        "load", "t.npz", *SCENARIO, "--arrival-rate", "60",
        "--load-duration", "10",
    ),
    "load-static-faults": lambda: timed(
        "load", "t.npz", *SCENARIO, "--chunk-mib", "64",
        "--arrival-rate", "60", "--load-duration", "10", "--no-baseline",
        "--governor", "static", "--scheme", "rp", "--faults", "crash:1@2",
        names=FAULTED,
    ),
    "resume": resumed,
    "resume-parent-journal": resume_parent_journal,
}


@pytest.mark.parametrize("name", sorted(RECORDERS))
def test_command_output_is_what_was_recorded(name):
    produced = json.loads(json.dumps(RECORDERS[name]().entry))
    assert produced == load(FIXTURE)[name], json.dumps(produced, indent=1)
