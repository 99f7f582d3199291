"""Strong bisimilarity of finite LTSs.

Both operands are read through their integer successor lists as one list,
the second operand's states numbered after the first's (`_joined`); every
procedure here reads that list.  The main decision procedure is
signature-based partition refinement: states are repeatedly regrouped by the
set of (label, successor block) pairs they can reach until the partition
stabilises; two states are bisimilar iff they share a block of the coarsest
stable partition.  Labels compare by equality, and the silent action is
treated as an ordinary label throughout.

`naive_bisim` recomputes the relation as a plain greatest fixpoint over state
pairs; it serves as an independent oracle on small systems.
"""
from __future__ import annotations

from .processes import LTS


def _joined(lts1: LTS, s1, lts2: LTS, s2):
    """Both operands' successor lists as one, state `i` of the second
    numbered `len(lts1) + i`, and the numbers of the two roots."""
    left, right = lts1.index_of(s1), lts2.index_of(s2)
    n = len(lts1)
    succ = lts1.succ + tuple(tuple((label, j + n) for label, j in out) for out in lts2.succ)
    return succ, left, n + right


def coarsest_partition(succ) -> list:
    """Refine to the coarsest strong-bisimulation partition of the states of
    integer successor lists; returns the block index of every state."""
    block_of = [0] * len(succ)
    n_blocks = 1
    while True:
        renumber: dict = {}
        new_block_of = [
            renumber.setdefault(
                (block_of[i], frozenset([(label, block_of[j]) for label, j in out])),
                len(renumber),
            )
            for i, out in enumerate(succ)  # fixed scan order keeps block ids deterministic
        ]
        if len(renumber) == n_blocks:
            return new_block_of
        n_blocks = len(renumber)
        block_of = new_block_of


def _distinguishing_label(succ, u: int, v: int, block_of):
    """The first label, in text order, on which the two states' successor
    block sets differ."""
    blocks: dict = {}
    for side, s in enumerate((u, v)):
        for label, t in succ[s]:
            blocks.setdefault(label, (set(), set()))[side].add(block_of[t])
    return next((l for l in sorted(blocks, key=str) if blocks[l][0] != blocks[l][1]), None)


def bisim(lts1: LTS, s1, lts2: LTS, s2):
    """Decide strong bisimilarity of two rooted LTSs.

    Returns (True, None) or (False, witness) where the witness names a label
    of the first failing split.
    """
    succ, left, right = _joined(lts1, s1, lts2, s2)
    block_of = coarsest_partition(succ)
    if block_of[left] == block_of[right]:
        return True, None
    label = _distinguishing_label(succ, left, right, block_of)
    return False, (str(label),) if label is not None else ("<structural>",)


def naive_bisim(lts1: LTS, s1, lts2: LTS, s2) -> bool:
    """Greatest-fixpoint computation over state pairs; independent oracle."""
    succ, left, right = _joined(lts1, s1, lts2, s2)
    states = range(len(succ))
    rel = {(u, v) for u in states for v in states}

    def ok(u, v) -> bool:
        return all(
            any(label == l2 and (u2, v2) in rel for l2, v2 in succ[v])
            for label, u2 in succ[u]
        ) and all(
            any(label == l2 and (u2, v2) in rel for l2, u2 in succ[u])
            for label, v2 in succ[v]
        )

    changed = True
    while changed:
        changed = False
        for pair in list(rel):
            if not ok(*pair):
                rel.discard(pair)
                changed = True
    return (left, right) in rel
