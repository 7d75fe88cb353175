"""Test-only oracle: PPT by enumeration, the search the closed form replaced.

``enumerate_ppt`` walks every Prüfer sequence over the requestor and PPT's
k helpers in ``itertools.product`` order and keeps the first tree with the
largest B_min — what ``PPTPlanner`` did before it answered in closed form,
kept as the differential reference.  ``all_subsets`` adds every k-subset of
the candidates: the global brute force Theorem 1 is checked against.

Run as a script, it times the (9, 6) enumeration (16 807 trees) and prints
the per-tree cost ``repro.baselines.ppt.SECONDS_PER_TREE`` was set from::

    PYTHONPATH=src python tests/baselines/ppt_oracle.py
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

from repro.baselines.ppt import prufer_decode, rooted_parents
from repro.core.bandwidth_view import BandwidthSnapshot
from repro.exceptions import PlanningError


def rooted_trees(labels: Sequence[int], root: int) -> Iterator[dict[int, int]]:
    """Yield child -> parent maps of every labelled tree rooted at ``root``.

    ``labels`` must include ``root``; there are ``m^(m-2)`` trees for
    ``m = len(labels)``.
    """
    m = len(labels)
    if root not in labels:
        raise PlanningError("root must be one of the labels")
    if m == 1:
        raise PlanningError("a repair tree needs at least one helper")
    for pairs in _index_trees(m, list(labels).index(root)):
        yield {labels[child]: labels[parent] for child, parent in pairs}


@lru_cache(maxsize=None)
def _index_trees(m: int, root: int) -> tuple:
    """Every tree over label indices as ordered (child, parent) pairs, in
    ``itertools.product`` order of the Prüfer sequences.  Cached because
    the differential tests enumerate the same shapes case after case."""
    return tuple(
        tuple(rooted_parents(prufer_decode(seq, m), range(m), root).items())
        for seq in itertools.product(range(m), repeat=m - 2)
    )


def bmin_of_parents(
    snapshot: BandwidthSnapshot, requestor: int, parents: dict[int, int]
) -> float:
    """B_min (Lemma 1) computed directly from parent pointers, no tree obj."""
    child_count: dict[int, int] = {}
    for parent in parents.values():
        child_count[parent] = child_count.get(parent, 0) + 1
    bmin = snapshot.down_of(requestor) / child_count[requestor]
    for node in parents:
        kids = child_count.get(node, 0)
        if kids:
            value = min(
                snapshot.up_of(node), snapshot.down_of(node) / kids
            )
        else:
            value = snapshot.up_of(node)
        if value < bmin:
            bmin = value
    return bmin


def best_tree(
    snapshot: BandwidthSnapshot,
    requestor: int,
    subsets: Iterable[Sequence[int]],
) -> tuple[float, dict[int, int], int]:
    """``(B_min, parents, trees examined)`` of the first best tree."""
    best_bmin = -1.0
    best_parents: dict[int, int] | None = None
    examined = 0
    for subset in subsets:
        for parents in rooted_trees([requestor, *subset], requestor):
            examined += 1
            bmin = bmin_of_parents(snapshot, requestor, parents)
            if bmin > best_bmin:
                best_bmin = bmin
                best_parents = parents
    assert best_parents is not None
    return best_bmin, best_parents, examined


def enumerate_ppt(
    snapshot: BandwidthSnapshot,
    requestor: int,
    candidates: Sequence[int],
    k: int,
) -> tuple[float, dict[int, int], int]:
    """PPT: every tree over the k candidates of largest theo(·)."""
    pool = sorted(candidates, key=lambda node: (-snapshot.theo(node), node))
    return best_tree(snapshot, requestor, [pool[:k]])


def all_subsets(
    snapshot: BandwidthSnapshot,
    requestor: int,
    candidates: Sequence[int],
    k: int,
) -> tuple[float, dict[int, int], int]:
    """The global brute force: every tree over every k-subset."""
    return best_tree(
        snapshot, requestor, itertools.combinations(candidates, k)
    )


def main() -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    n, k = 9, 6
    snapshot = BandwidthSnapshot(
        up={i: float(rng.integers(1, 1000)) for i in range(n)},
        down={i: float(rng.integers(1, 1000)) for i in range(n)},
    )
    # The per-tree work of an uncached enumeration: decode, root, B_min.
    labels = list(range(k + 1))
    sequences = list(itertools.product(labels, repeat=k - 1))
    runs = []
    for _ in range(5):
        started = time.perf_counter()
        for sequence in sequences:
            parents = rooted_parents(
                prufer_decode(sequence, k + 1), labels, 0
            )
            bmin_of_parents(snapshot, 0, parents)
        runs.append(time.perf_counter() - started)
    per_tree = min(runs) / len(sequences)
    print(
        f"({n},{k}): {len(sequences)} trees, best of {len(runs)} runs "
        f"{min(runs):.3f} s, {per_tree * 1e6:.2f} us per tree"
    )


if __name__ == "__main__":
    main()
