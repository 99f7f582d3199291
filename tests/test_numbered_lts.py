"""`reachable` unfolds each distinct recursive term once per exploration,
from a memo that lives only as long as the exploration.  The integer core
agrees with its set-of-states oracles on the pinned corpora here, and on the
other inputs in the `integer core` row of tests/test_oracles.py."""
from collections import Counter

import pytest

from enfkit import processes, symbolic
from enfkit.processes import Rec, explore, reachable, step

from inputs import corpus, large_pairs
from test_oracles import _integer_core_on


def _counting_unfolds(monkeypatch):
    counts = Counter()
    real = symbolic.unfold_binder

    def unfold(node):
        counts[node] += 1
        return real(node)

    monkeypatch.setattr(symbolic, "unfold_binder", unfold)
    return counts


def test_reachable_unfolds_each_recursive_term_once_per_exploration(monkeypatch):
    counts = _counting_unfolds(monkeypatch)
    processes_ = [p for _, p in large_pairs()]
    unfolded = unmemoised = 0
    for p in processes_:
        counts.clear()
        reachable(p, 10_000)
        assert all(isinstance(rec, Rec) for rec in counts)
        assert set(counts.values()) <= {1}, p
        unfolded += len(counts)
        # the same exploration through `step`, which keeps no unfoldings
        counts.clear()
        explore(p, step, 10_000)
        unmemoised += sum(counts.values())
    # 418 distinct recursive terms, one of them in two of the processes
    assert (unfolded, unmemoised) == (419, 947)
    # the memo lives for one exploration: a second one unfolds afresh
    counts.clear()
    for _ in range(2):
        reachable(processes_[0], 10_000)
    assert set(counts.values()) == {2}


def test_reachable_does_not_read_the_process_wide_step_memo(monkeypatch):
    p = large_pairs()[7][1]
    want = reachable(p, 10_000)
    monkeypatch.setattr(processes, "cached_step", None)
    got = reachable(p, 10_000)
    assert got.states == want.states and list(got.transitions()) == list(want.transitions())


@pytest.mark.parametrize("seed", [1, 42])
def test_the_integer_core_agrees_with_the_oracles_on_the_pinned_corpora(seed):
    _integer_core_on(corpus(seed), 190)
