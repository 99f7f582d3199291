"""Strong bisimilarity of finite LTSs.

Both operands are read as one LTS, their disjoint union over (side, state)
pairs, built once per call (`_union`); every procedure here reads its
`steps`.  The main decision procedure is signature-based partition
refinement: states are repeatedly regrouped by the set of (label, successor
block) pairs they can reach until the partition stabilises; two states are
bisimilar iff they share a block of the coarsest stable partition.  Labels
compare by equality, and the silent action is treated as an ordinary label
throughout.

`naive_bisim` recomputes the relation as a plain greatest fixpoint over state
pairs; it serves as an independent oracle on small systems.
"""
from __future__ import annotations

from .processes import LTS


def _union(lts1: LTS, lts2: LTS) -> LTS:
    """The disjoint union of two LTSs: state `s` of side `i` is `(i, s)`."""
    sides = ((0, lts1), (1, lts2))
    edges = [((i, s), label, (i, t)) for i, lts in sides for s, label, t in lts.transitions()]
    return LTS((0, lts1.initial), edges, [(i, s) for i, lts in sides for s in lts.states])


def coarsest_partition(lts: LTS) -> dict:
    """Refine to the coarsest strong-bisimulation partition; returns the
    block index of every state."""
    block_of = dict.fromkeys(lts.states, 0)
    n_blocks = 1
    while True:
        renumber = {}
        new_block_of = {}
        for s in lts.states:  # fixed scan order keeps block ids deterministic
            key = (block_of[s], frozenset((label, block_of[t]) for label, t in lts.steps(s)))
            new_block_of[s] = renumber.setdefault(key, len(renumber))
        if len(renumber) == n_blocks:
            return new_block_of
        n_blocks = len(renumber)
        block_of = new_block_of


def _distinguishing_label(lts: LTS, u, v, block_of):
    """The first label, in text order, on which the two states' successor
    block sets differ."""
    succ: dict = {}
    for side, s in enumerate((u, v)):
        for label, t in lts.steps(s):
            succ.setdefault(label, (set(), set()))[side].add(block_of[t])
    return next((l for l in sorted(succ, key=str) if succ[l][0] != succ[l][1]), None)


def bisim(lts1: LTS, s1, lts2: LTS, s2):
    """Decide strong bisimilarity of two rooted LTSs.

    Returns (True, None) or (False, witness) where the witness names a label
    of the first failing split.
    """
    union = _union(lts1, lts2)
    block_of = coarsest_partition(union)
    left, right = (0, s1), (1, s2)
    if block_of[left] == block_of[right]:
        return True, None
    label = _distinguishing_label(union, left, right, block_of)
    return False, (str(label),) if label is not None else ("<structural>",)


def naive_bisim(lts1: LTS, s1, lts2: LTS, s2) -> bool:
    """Greatest-fixpoint computation over state pairs; independent oracle."""
    union = _union(lts1, lts2)
    steps = union.steps
    rel = {(u, v) for u in union.states for v in union.states}

    def ok(u, v) -> bool:
        return all(
            any(label == l2 and (u2, v2) in rel for l2, v2 in steps(v))
            for label, u2 in steps(u)
        ) and all(
            any(label == l2 and (u2, v2) in rel for l2, u2 in steps(u))
            for label, v2 in steps(v)
        )

    changed = True
    while changed:
        changed = False
        for pair in list(rel):
            if not ok(*pair):
                rel.discard(pair)
                changed = True
    return ((0, s1), (1, s2)) in rel
