"""Regenerate every recorded simulated value, or check / compare them.

    python scripts/rerecord.py                  # rewrite the fixtures
    python scripts/rerecord.py --check          # tree vs fixtures, exit 1
    python scripts/rerecord.py --dump OUT.json  # every number behind them
    python scripts/rerecord.py --drift OLD.json NEW.json
    ...  --only 'tests/repair/*' --only '*:storm/*'   # a subset

Tests pin simulated values across commits in JSON fixtures beside them
(``tests/recorded.py`` has the protocol); ``SOURCES`` below is the map
of which module owns which fixture.  This script is the fixtures' only
writer.  A PR that means to move simulated floats (a new float-operation
order in the simulator, say) runs it once, in a commit that holds
nothing else, and reports the drift:

1. on the parent, ``--check`` (the script reproduces what is recorded)
   and ``--dump old.json``;
2. on the change, ``--dump new.json``, then the bare command;
3. ``--drift old.json new.json``: integers and strings must be equal,
   every float is listed with its relative difference.

``--check`` is also a CI step: the tree's recorded values are what the
tree produces — it catches a hand-edited fixture, a forgotten
re-record and an entry whose recorder is gone (a rewrite drops it).
"""

import argparse
import fnmatch
import importlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.recorded import load  # noqa: E402

#: Module -> what its fixture pins.  Each exposes ``FIXTURE`` and
#: ``RECORDERS`` (``tests/recorded.py``).
SOURCES = {
    "tests.repair.test_driver_identity":
        "full-node drivers: result + trace + journal SHA-256",
    "tests.repair.test_attempt_identity":
        "single-chunk faulted repair: result / trace / journal digests",
    "tests.repair.test_executor":
        "single-chunk telemetry SHA-256 (TestTelemetryIdentity)",
    "tests.obs.test_attribution_identity":
        "critical-path SHA-256 and per-flow (label, submit)",
    "tests.network.pinned_suites":
        "pinned repair suites (TestCommittedBenchSuites)",
    "tests.network.test_scale_suite":
        "1024-node storm: bytes carried, end time",
    "tests.controlplane.test_storm":
        "fleet storm and flood: decisions, damage, breach, goodput",
    "tests.lifetime.test_montecarlo":
        "lifetime studies: digest, losses, repairs (TestPinnedStudies)",
    "tests.test_cli_identity":
        "what each `repro` subcommand prints: help, payloads, renderings",
}

#: Largest relative float drift ``--drift`` accepts.
BOUND = 1e-9
#: Absolute difference (seconds or bytes) ``--drift`` lists as RESIDUE.
RESIDUE_FLOOR = 1e-12


def _selected(only):
    """Yield ``(module, key, entry name, recorder)``, the key being
    ``<fixture path>:<entry name>``; ``only`` holds globs matched
    against the key or the fixture path."""
    for module_name in SOURCES:
        module = importlib.import_module(module_name)
        fixture = Path(os.path.relpath(module.FIXTURE, ROOT)).as_posix()
        for name, recorder in module.RECORDERS.items():
            key = f"{fixture}:{name}"
            if not only or any(
                fnmatch.fnmatch(key, glob)
                or fnmatch.fnmatch(fixture, glob)
                for glob in only
            ):
                yield module, key, name, recorder


def _leaves(tree, path=""):
    """Flatten a JSON tree to ``{path: leaf}``."""
    if isinstance(tree, dict):
        for key in tree:
            yield from _leaves(tree[key], f"{path}/{key}")
    elif isinstance(tree, (list, tuple)):
        for index, item in enumerate(tree):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, tree


def _diff(recorded, produced):
    """Per-value differences between two JSON trees, as lines."""
    old, new = dict(_leaves(recorded)), dict(_leaves(produced))
    lines = []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            lines.append(f"    {path}: {old[path]!r} -> (gone)")
        elif path not in old:
            lines.append(f"    {path}: (new) -> {new[path]!r}")
        elif old[path] != new[path]:
            lines.append(f"    {path}: {old[path]!r} -> {new[path]!r}")
    return lines


def _write(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n")


def rerecord(only, check: bool, dump: Path | None) -> int:
    fixtures: dict[Path, dict] = {}
    values: dict[str, object] = {}
    disagreements = 0
    for module, key, name, recorder in _selected(only):
        print(key, flush=True)
        recorded = recorder()
        # Through JSON, so a tuple and the list it is stored as agree.
        entry = json.loads(json.dumps(recorded.entry))
        values[key] = recorded.values
        path = module.FIXTURE
        if path not in fixtures:
            fixtures[path] = load(path)
            # An entry no recorder produces any more pins nothing:
            # counted as a disagreement, dropped by a rewrite.
            for orphan in sorted(fixtures[path].keys() - module.RECORDERS):
                disagreements += 1
                print(f"{key[:-len(name)]}{orphan}: no recorder")
                del fixtures[path][orphan]
        lines = _diff(fixtures[path].get(name), entry)
        if lines:
            # An entry that agrees is left as it is written, key order
            # and all: a re-record's diff is what moved, nothing else.
            disagreements += 1
            print("\n".join(lines))
            fixtures[path][name] = entry
    if not values:
        print("nothing selected", file=sys.stderr)
        return 2
    if dump is not None:
        _write(dump, values)
    if check:
        print(
            f"{disagreements} of {len(values)} recorded entries disagree "
            "with what the tree produces"
        )
        return 1 if disagreements else 0
    if dump is None:
        for path, payload in fixtures.items():
            _write(path, payload)
        print(f"{disagreements} of {len(values)} entries rewritten")
    return 0


def drift(old_path: Path, new_path: Path) -> int:
    """Compare two ``--dump`` files value by value.

    Integers, strings, booleans and the shape of every tree must be
    equal; floats are compared by relative difference ``|a - b| /
    max(|a|, |b|)``.  Prints one line per entry (its largest drift and
    where) and every value beyond ``BOUND``; exit 1 if there is one, or
    if anything discrete moved.  A value that is itself a residue of
    nearly equal times (a tiling error of 0.0 against 9e-16) has no
    meaningful relative drift: differences of at most ``RESIDUE_FLOOR``
    are listed as RESIDUE, and pass.
    """
    old, new = load(old_path), load(new_path)
    failures = 0
    for entry in sorted(old.keys() | new.keys()):
        if entry not in old or entry not in new:
            print(f"{entry}: only in {'NEW' if entry in new else 'OLD'}")
            failures += 1
            continue
        before, after = dict(_leaves(old[entry])), dict(_leaves(new[entry]))
        if before.keys() != after.keys():
            moved = sorted(before.keys() ^ after.keys())
            print(
                f"{entry}: SHAPE differs ({len(moved)} paths, first "
                f"{moved[0]})"
            )
            failures += 1
            continue
        floats = moved_floats = 0
        worst, worst_at = 0.0, None
        for path, a in before.items():
            b = after[path]
            if isinstance(a, float) and isinstance(b, float):
                floats += 1
                if a == b:
                    continue
                moved_floats += 1
                relative = abs(a - b) / max(abs(a), abs(b))
                if relative > BOUND and abs(a - b) <= RESIDUE_FLOOR:
                    print(f"  RESIDUE {path}: {a!r} -> {b!r}")
                    continue
                if relative > worst:
                    worst, worst_at = relative, (path, a, b)
                if relative > BOUND:
                    print(f"  BEYOND {BOUND:g} {path}: {a!r} -> {b!r}")
                    failures += 1
            elif a != b or type(a) is not type(b):
                # ``0 -> 0.0`` too: it changes the JSON a digest hashes.
                print(f"  DISCRETE {path}: {a!r} -> {b!r}")
                failures += 1
        line = (
            f"{entry}: {len(before)} values, {floats} floats, "
            f"{moved_floats} moved, max relative drift {worst:.3g}"
        )
        if worst_at is not None:
            line += " at {} ({!r} -> {!r})".format(*worst_at)
        print(line)
    print(
        "drift: " + ("FAILED" if failures else "ok")
        + f" ({failures} discrete, missing or beyond {BOUND:g})"
    )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare, write nothing; exit 1 on any disagreement",
    )
    parser.add_argument(
        "--dump", type=Path, metavar="OUT",
        help="write every number behind the entries; fixtures untouched",
    )
    parser.add_argument(
        "--drift", type=Path, nargs=2, metavar=("OLD", "NEW"),
        help="compare two --dump files",
    )
    parser.add_argument(
        "--only", action="append", default=[], metavar="GLOB",
        help="restrict to '<fixture path>:<entry>' matches (repeatable)",
    )
    args = parser.parse_args(argv)
    if args.drift:
        return drift(*args.drift)
    return rerecord(args.only, args.check, args.dump)


if __name__ == "__main__":
    sys.exit(main())
