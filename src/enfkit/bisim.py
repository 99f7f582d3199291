"""Strong bisimilarity of finite LTSs.

The main decision procedure is signature-based partition refinement: states
are repeatedly regrouped by the multiset of (label, successor block) pairs
they can reach until the partition stabilises; two states are bisimilar iff
they share a block of the coarsest stable partition.  The silent action is
treated as an ordinary label throughout.

`naive_bisim` recomputes the relation as a plain greatest fixpoint over state
pairs; it serves as an independent oracle on small systems.
"""
from __future__ import annotations

from .processes import LTS
from .symbolic import label_key


def _union(lts1: LTS, lts2: LTS):
    states = [(0, s) for s in lts1.states] + [(1, s) for s in lts2.states]

    def steps(tagged):
        side, s = tagged
        lts = lts1 if side == 0 else lts2
        return tuple((label, (side, t)) for label, t in lts.steps(s))

    return states, steps


def coarsest_partition(states, steps):
    """Refine to the coarsest strong-bisimulation partition; returns the
    block index of every state."""
    block_of = {s: 0 for s in states}
    n_blocks = 1
    while True:
        signatures = {}
        for s in states:
            signatures[s] = frozenset(
                (label, block_of[t]) for label, t in steps(s)
            )
        renumber = {}
        new_block_of = {}
        for s in states:  # fixed scan order keeps block ids deterministic
            key = (block_of[s], signatures[s])
            if key not in renumber:
                renumber[key] = len(renumber)
            new_block_of[s] = renumber[key]
        if len(renumber) == n_blocks:
            return new_block_of
        n_blocks = len(renumber)
        block_of = new_block_of


def _distinguishing_label(u, v, steps, block_of):
    """The first label on which the two states' successor block sets differ."""
    labels = sorted(
        {label_key(l) for l, _ in steps(u)} | {label_key(l) for l, _ in steps(v)}
    )
    succ = lambda s, key: {block_of[t] for l, t in steps(s) if label_key(l) == key}
    for key in labels:
        if succ(u, key) != succ(v, key):
            return key
    return None


def bisim(lts1: LTS, s1, lts2: LTS, s2):
    """Decide strong bisimilarity of two rooted LTSs.

    Returns (True, None) or (False, witness) where the witness names a label
    of the first failing split.
    """
    states, steps = _union(lts1, lts2)
    block_of = coarsest_partition(states, steps)
    left, right = (0, s1), (1, s2)
    if block_of[left] == block_of[right]:
        return True, None
    label = _distinguishing_label(left, right, steps, block_of)
    return False, (label,) if label is not None else ("<structural>",)


def naive_bisim(lts1: LTS, s1, lts2: LTS, s2) -> bool:
    """Greatest-fixpoint computation over state pairs; independent oracle."""
    states, steps = _union(lts1, lts2)
    rel = {(u, v) for u in states for v in states}

    def ok(u, v) -> bool:
        for label, u2 in steps(u):
            if not any(
                label_key(label) == label_key(l2) and (u2, v2) in rel
                for l2, v2 in steps(v)
            ):
                return False
        for label, v2 in steps(v):
            if not any(
                label_key(label) == label_key(l2) and (u2, v2) in rel
                for l2, u2 in steps(u)
            ):
                return False
        return True

    changed = True
    while changed:
        changed = False
        for pair in list(rel):
            if not ok(*pair):
                rel.discard(pair)
                changed = True
    return ((0, s1), (1, s2)) in rel
