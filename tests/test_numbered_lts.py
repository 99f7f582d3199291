"""The integer core of an LTS against the set-of-states oracles.

An LTS numbers its states once, and its tau-closures, weak moves, the trace
search of the trace criteria and the partition refinement of `bisim` all
read integer successor lists and hold state sets as int bitmasks.  Here
each is decoded and compared with the oracle in `tests/oracles.py` that
steps the states themselves: every state's closure, the moves of every
state set the trace search reaches, the search's classes in order with
their keys, the nvtt witness that projects composite states to system
states, and the bisimilarity verdict with its witness label.  The
inputs are the composites of the `random:200:1` and `random:200:42`
corpora, of the 160 benchmark-sized pairs and of the worked server example
against their bare systems, and seeded processes.

`reachable` unfolds each distinct recursive term once per exploration,
from a memo that lives only as long as the exploration.
"""
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from enfkit import processes, symbolic
from enfkit.bisim import bisim
from enfkit.harness import (
    Pair,
    _trace_classes,
    _trace_text,
    check_nvtt,
    gen_formula,
    gen_process,
    make_corpus,
)
from enfkit.processes import Rec, explore, reachable, step, tau_closure, weak_moves
from enfkit.symbolic import BoundExceeded

from oracles import (
    naive_tau_closure,
    naive_trace_classes,
    naive_weak_moves,
    union_bisim,
)

DEPTH = 6


def _large_pair(d, k):
    """The k-th benchmark-sized pair: a formula of 8-12 nodes and a process
    of 48-64 terms."""
    return gen_formula(d, 8 + k % 5, 7000 + k), gen_process(d, 48 + (3 * k) % 17, 9000 + k)


def _set_nvtt_witness(classes):
    """The nvtt witness read off the set-valued classes: the first
    non-violating class whose composite derivatives, projected to their
    system states, differ from the system's."""
    for t, (plain, composite, _, falsified) in classes:
        if falsified:
            continue
        projected = {cfg.system for cfg in composite}
        for verb, diff in (("loses", plain - projected), ("invents", projected - plain)):
            if diff:
                return f"trace {_trace_text(t)} {verb} derivative {sorted(map(str, diff))[0]}"
    return None


def _decoded(lts, moves: dict) -> dict:
    return {label: lts.decode(mask) for label, mask in moves.items()}


def _assert_closures_agree(lts):
    for s in lts.states:
        assert lts.decode(tau_closure(lts, s)) == naive_tau_closure(lts, s), s


def _assert_agrees(f, p, d):
    """Closures, weak moves, trace classes and bisimilarity of one pair
    agree with the oracles; False when a bound cut the pair's derivations."""
    pair = Pair(f, p, d)
    try:
        plts, comp = pair.system, pair.composite
    except BoundExceeded:
        return False
    _assert_closures_agree(plts)
    _assert_closures_agree(comp)
    for composite in (comp, None):
        found = list(_trace_classes((plts, p), f, DEPTH, composite))
        want = naive_trace_classes((plts, p), f, DEPTH, composite)
        decoded = [
            (
                t,
                (
                    plts.decode(p_set),
                    frozenset() if composite is None else comp.decode(c_set),
                    frozenset((box, plts.decode(states)) for box, states in obligations),
                    falsified,
                ),
            )
            for t, (p_set, c_set, obligations, falsified) in found
        ]
        assert decoded == want, (f, p)
        if composite is not None:
            assert check_nvtt(pair, DEPTH).witness == _set_nvtt_witness(want), (f, p)
        for _, (p_set, c_set, obligations, _) in found:
            assert _decoded(plts, weak_moves(plts, p_set)) == naive_weak_moves(plts, plts.decode(p_set))
            for _, states in obligations:
                assert _decoded(plts, weak_moves(plts, states)) == naive_weak_moves(
                    plts, plts.decode(states)
                )
            if composite is not None:
                assert _decoded(comp, weak_moves(comp, c_set)) == naive_weak_moves(
                    comp, comp.decode(c_set)
                )
    assert bisim(comp, comp.initial, plts, p) == union_bisim(comp, comp.initial, plts, p), (f, p)
    return True


@pytest.mark.parametrize("seed", [1, 42])
def test_the_integer_core_agrees_with_the_oracles_on_the_pinned_corpora(dom, seed):
    compared = sum(_assert_agrees(f, p, dom) for f, p in make_corpus(dom, 200, seed))
    assert compared >= 190, compared


def test_the_integer_core_agrees_with_the_oracles_on_the_benchmark_sized_pairs(dom):
    compared = sum(_assert_agrees(*_large_pair(dom, k), dom) for k in range(160))
    assert compared == 160


def test_the_integer_core_agrees_with_the_oracles_on_the_worked_example(dom, terms):
    for f in ("phi0", "phi1"):
        for p in ("pg", "pb", "reqnil"):
            assert _assert_agrees(terms[f], terms[p], dom)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 40), seed=st.integers(0, 10_000), fseed=st.integers(0, 10_000))
def test_the_integer_core_agrees_with_the_oracles_on_seeded_processes(dom, size, seed, fseed):
    _assert_agrees(gen_formula(dom, 1 + fseed % 8, fseed), gen_process(dom, size, seed), dom)


def _counting_unfolds(monkeypatch):
    counts = Counter()
    real = symbolic.unfold_binder

    def unfold(node):
        counts[node] += 1
        return real(node)

    monkeypatch.setattr(symbolic, "unfold_binder", unfold)
    return counts


def test_reachable_unfolds_each_recursive_term_once_per_exploration(dom, monkeypatch):
    counts = _counting_unfolds(monkeypatch)
    processes_ = [_large_pair(dom, k)[1] for k in range(160)]
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


def test_reachable_does_not_read_the_process_wide_step_memo(dom, monkeypatch):
    p = _large_pair(dom, 7)[1]
    want = reachable(p, 10_000)
    monkeypatch.setattr(processes, "cached_step", None)
    got = reachable(p, 10_000)
    assert got.states == want.states and list(got.transitions()) == list(want.transitions())
