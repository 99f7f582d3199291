import pytest
from hypothesis import assume, given, settings, strategies as st

from enfkit.harness import gen_formula, gen_process
from enfkit.parsing import parse_lts, parse_process
from enfkit.processes import (
    NIL,
    Prefix,
    ProcessError,
    StateBoundExceeded,
    as_lts,
    reachable,
    step,
    trace_tree,
    traces,
    validate_process,
    weak_step,
    weak_trace_derivatives,
)
from enfkit.runtime import composite_lts
from enfkit.symbolic import TAU, BoundExceeded
from enfkit.synthesis import compile_formula
from enfkit.transducers import ID

from conftest import act


def test_step_pg(dom, terms):
    pg = terms["pg"]
    assert step(pg) == [
        (act("i?req"), Prefix(act("i!ans"), pg)),
        (act("i?cls"), NIL),
    ]


def test_step_nil_and_tau(dom):
    assert step(NIL) == []
    assert step(parse_process("tau.nil", dom)) == [(TAU, NIL)]


def test_pb_exhibits_double_request(dom, terms):
    pb = terms["pb"]
    targets = [t for label, t in step(pb) if label == act("i?req")]
    assert pb in targets  # the refusing branch loops back


def test_reachable_pg_three_states(terms):
    lts = reachable(terms["pg"], 100)
    assert len(lts) == 3


def test_reachable_bounds(dom):
    assert len(reachable(NIL, 1)) == 1
    loop = parse_process("rec X.i?req.X", dom)
    lts = reachable(loop, 10)
    assert len(lts) == 1 and lts.steps(loop) == ((act("i?req"), loop),)
    with pytest.raises(StateBoundExceeded):
        reachable(parse_process("i?req.i?req.i?req.nil", dom), 2)


def test_reachable_closed(terms):
    lts = reachable(terms["pb"], 100)
    states = set(lts.states)
    for src, label, dst in lts.transitions():
        assert src in states and dst in states


def test_unguarded_recursion_rejected(dom):
    with pytest.raises(ProcessError):
        parse_process("rec X.X", dom)
    with pytest.raises(ProcessError):
        parse_process("rec X.(i?req.nil + X)", dom)


def test_weak_step_through_tau(dom):
    # tau* a tau*: the zero-step tail keeps tau.nil as a derivative too
    p = parse_process("tau.i?req.tau.nil", dom)
    lts = reachable(p, 10)
    assert weak_step(lts, p, act("i?req")) == {parse_process("tau.nil", dom), NIL}


def test_weak_step_pg_close(terms):
    pg = terms["pg"]
    lts = reachable(pg, 100)
    assert weak_step(lts, pg, act("i?cls")) == {NIL}


def test_weak_step_nil_empty(dom):
    lts = reachable(NIL, 1)
    assert weak_step(lts, NIL, act("i?req")) == frozenset()


def test_weak_contains_strong(dom, terms):
    for p in (terms["pg"], terms["pb"], parse_process("tau.i?req.nil", dom)):
        lts = reachable(p, 100)
        for s in lts.states:
            strong = {}
            for label, t in lts.steps(s):
                if label is not TAU:
                    strong.setdefault(label, set()).add(t)
            for label, targets in strong.items():
                assert targets <= weak_step(lts, s, label)


def test_traces_pb(terms):
    pb = terms["pb"]
    lts = reachable(pb, 100)
    ts = traces(lts, pb, 2)
    assert (act("i?req"), act("i?req")) in ts
    assert (act("i?req"), act("i!ans")) in ts
    assert traces(lts, pb, 0) == frozenset({()})


def test_traces_monotone_and_contain_empty(terms):
    lts = reachable(terms["pg"], 100)
    for k in range(4):
        smaller, larger = traces(lts, terms["pg"], k), traces(lts, terms["pg"], k + 1)
        assert smaller <= larger
        assert () in smaller


def test_weak_trace_derivatives(terms):
    pb = terms["pb"]
    lts = reachable(pb, 100)
    assert weak_trace_derivatives(lts, pb, (act("i?req"), act("i!ans"))) == {pb}


@settings(max_examples=60, deadline=None)
@given(
    fsize=st.integers(1, 10),
    fseed=st.integers(0, 10_000),
    psize=st.integers(1, 24),
    pseed=st.integers(0, 10_000),
    depth=st.integers(0, 5),
)
def test_trace_tree_is_traces_with_their_derivatives(dom, fsize, fseed, psize, pseed, depth):
    p = gen_process(dom, psize, pseed)
    plts = reachable(p, 500)
    try:
        e = compile_formula(gen_formula(dom, fsize, fseed), dom)
    except BoundExceeded:  # e.g. (10, 89) has 13 minterm conditions
        assume(False)
    comp = composite_lts(e, p, dom)
    for lts, state in ((plts, p), (comp, comp.initial)):
        tree = trace_tree(lts, state, depth)
        assert tree.keys() == traces(lts, state, depth)
        assert () in tree
        for t, derivatives in tree.items():
            assert derivatives == weak_trace_derivatives(lts, state, t)
            # the keys are exactly the performable sequences up to the depth
            assert derivatives
            if len(t) < depth:
                for a in dom.actions:
                    assert (t + (a,) in tree) == bool(weak_trace_derivatives(lts, state, t + (a,)))


def test_trace_tree_rejects_a_negative_depth(terms):
    with pytest.raises(ValueError):
        trace_tree(reachable(terms["pg"], 10), terms["pg"], -1)


def test_explicit_lts_file():
    lts = parse_lts(
        """
        # a two-state loop
        init s0
        s0 -i?req-> s1
        s1 -tau-> s0
        s1 -i!ans-> s0
        """
    )
    assert lts.initial == "s0"
    assert len(lts) == 2
    assert weak_step(lts, "s0", act("i?req")) == {"s1", "s0"}


def test_non_systems_are_rejected(dom, terms):
    # anything but a process term, an LTS or an (LTS, state) pair is an error,
    # not a deadlocked one-state system
    for junk in ("hello", 3, (terms["pg"], terms["pg"]), [reachable(terms["pg"], 10), terms["pg"]]):
        with pytest.raises(ProcessError):
            validate_process(junk)
        with pytest.raises(ProcessError):
            as_lts(junk, 10)
        with pytest.raises(ProcessError):
            composite_lts(ID, junk, dom)
    with pytest.raises(ProcessError):
        validate_process(Prefix(act("i?req"), "hello"))


def test_as_lts_forms(terms):
    pg = terms["pg"]
    lts = reachable(pg, 10)
    assert as_lts(lts, 10) == (lts, pg)
    q = lts.states[1]
    assert as_lts((lts, q), 10) == (lts, q)
    explored, state = as_lts(pg, 10)
    assert state == pg and explored.states == lts.states
