import pytest

from enfkit.bisim import bisim, naive_bisim
from enfkit.formulas import FF
from enfkit.harness import violates
from enfkit.modelcheck import satisfies, shortest_violation
from enfkit.parsing import parse_lts, parse_process
from enfkit.processes import (
    NIL,
    Prefix,
    ProcessError,
    StateBoundExceeded,
    as_lts,
    reachable,
    step,
    tau_closure,
    trace_tree,
    traces,
    validate_process,
    weak_step,
    weak_trace_derivatives,
)
from enfkit.runtime import composite_lts
from enfkit.symbolic import TAU
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


ROOT_LTS = parse_lts("init r\nr -tau-> s\ns -i?req-> t\n")
#: Every entry point that takes a state of a given LTS, applied to `state`.
STATE_ENTRY_POINTS = {
    "LTS.steps": lambda state, d: ROOT_LTS.steps(state),
    "tau_closure": lambda state, d: tau_closure(ROOT_LTS, state),
    "weak_step": lambda state, d: weak_step(ROOT_LTS, state, act("i?req")),
    "weak_trace_derivatives": lambda state, d: weak_trace_derivatives(ROOT_LTS, state, ()),
    "traces": lambda state, d: traces(ROOT_LTS, state, 2),
    "trace_tree": lambda state, d: trace_tree(ROOT_LTS, state, 2),
    "bisim, left": lambda state, d: bisim(ROOT_LTS, state, ROOT_LTS, "r"),
    "bisim, right": lambda state, d: bisim(ROOT_LTS, "r", ROOT_LTS, state),
    "naive_bisim, left": lambda state, d: naive_bisim(ROOT_LTS, state, ROOT_LTS, "r"),
    "naive_bisim, right": lambda state, d: naive_bisim(ROOT_LTS, "r", ROOT_LTS, state),
    "satisfies": lambda state, d: satisfies((ROOT_LTS, state), FF, d),
    "shortest_violation": lambda state, d: shortest_violation((ROOT_LTS, state), FF, d),
    "violates": lambda state, d: violates((ROOT_LTS, state), (), FF, d),
    "composite_lts": lambda state, d: composite_lts(ID, (ROOT_LTS, state), d),
}


@pytest.mark.parametrize("entry", sorted(STATE_ENTRY_POINTS))
@pytest.mark.parametrize("state", ["x", ["r"]], ids=["unknown", "unhashable"])
def test_a_root_that_is_no_state_of_the_lts_is_rejected(dom, entry, state):
    with pytest.raises(ProcessError, match="is not a state of the LTS"):
        STATE_ENTRY_POINTS[entry](state, dom)
    # the states of the LTS are accepted
    STATE_ENTRY_POINTS[entry]("r", dom)
