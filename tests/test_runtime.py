import pytest
from hypothesis import given, settings, strategies as st

from enfkit.bisim import bisim
from enfkit.harness import gen_formula, gen_process
from enfkit.parsing import ParseError, parse_process, parse_transducer
from enfkit.processes import (
    NIL,
    Prefix,
    StateBoundExceeded,
    cached_step,
    reachable,
    step,
    traces,
)
from enfkit.runtime import Config, composite_lts, istep, simulate
from enfkit.symbolic import INSERT, TAU, BoundExceeded, Domain, Val, Var
from enfkit.synthesis import compile_formula
from enfkit.transducers import ID, TransducerError, free_data_vars, subst_data, tstep

from conftest import act
from oracles import naive_istep


def system_steps(p):
    return step


def test_tstep_identity_mirrors_domain(dom):
    out = tstep(ID, dom)
    assert out == [((a, a), ID) for a in dom.actions]


def test_tstep_suppression_instance(dom):
    e = parse_transducer("rec x.{(y)?req when y != j -> tau}.x", dom)
    out = tstep(e, dom)
    assert ((act("i?req"), TAU), e) in out
    assert all(gamma != act("j?req") for (gamma, _), _ in out)


def test_tstep_insertion(dom, terms):
    ei = terms["ei"]
    out = tstep(ei, dom)
    assert len(out) == 1
    (gamma, produced), cont = out[0]
    assert gamma is INSERT and produced == act("i?req")
    assert cont == parse_transducer("{* -> i!ans}.id", dom)


def test_istep_suppression_and_termination(dom, terms):
    es, pb = terms["es"], terms["pb"]
    steps = istep(Config(es, pb), system_steps(pb), dom)
    ansb = Prefix(act("i!ans"), pb)
    assert ("iTrn", TAU, Config(es, ansb)) in steps
    assert ("iTer", act("i?cls"), Config(ID, NIL)) in steps


def test_istep_empty_on_inert_identity(dom):
    assert istep(Config(ID, NIL), system_steps(NIL), dom) == []


def test_istep_insertion_keeps_system(dom, terms):
    ei, pb = terms["ei"], terms["pb"]
    steps = istep(Config(ei, pb), system_steps(pb), dom)
    cont = parse_transducer("{* -> i!ans}.id", dom)
    assert steps == [("iIns", act("i?req"), Config(cont, pb))]


def test_istep_asynchronous_tau(dom):
    p = parse_process("tau.i?req.nil", dom)
    e = parse_transducer("id", dom)
    steps = istep(Config(e, p), system_steps(p), dom)
    assert ("iAsy", TAU, Config(ID, parse_process("i?req.nil", dom))) in steps


#: Hand-written enforcers that insert, redirect and suppress; the last one
#: may insert at any state and has three transforms for i?req.
HAND_WRITTEN = (
    "ei", "er", "es", "ess",
    "rec x.({* -> j!ans}.x + {(y)?req -> tau}.x + {(y)?(z) -> j!ans}.x + {i?(z)}.id)",
)


@settings(max_examples=60, deadline=None)
@given(
    fsize=st.integers(1, 8),
    fseed=st.integers(0, 10_000),
    psize=st.integers(1, 24),
    pseed=st.integers(0, 10_000),
)
def test_istep_matches_the_scanning_oracle(dom, terms, fsize, fseed, psize, pseed):
    # at every configuration a composite reaches, the table lookups give the
    # list a fresh tstep and a scan give, in order; and composing over the
    # process's explored LTS gives the same composite as over its term
    enforcers = [terms.get(e) or parse_transducer(e, dom) for e in HAND_WRITTEN]
    try:
        enforcers.append(compile_formula(gen_formula(dom, fsize, fseed), dom))
    except BoundExceeded:
        pass
    p = gen_process(dom, psize, pseed)
    plts = reachable(p, 10_000)
    for e in enforcers:
        comp = composite_lts(e, p, dom)
        for cfg in comp.states:
            assert istep(cfg, cached_step, dom) == naive_istep(cfg, step, dom), cfg
        over_lts = composite_lts(e, (plts, p), dom)
        assert over_lts.states == comp.states
        assert list(over_lts.transitions()) == list(comp.transitions())


def test_composite_contains_displayed_loop(dom, terms):
    comp = composite_lts(terms["ess"], terms["pb"], dom)
    start = comp.initial
    # req then tau then ans comes back to the initial configuration
    hop1 = [t for label, t in comp.steps(start) if label == act("i?req")]
    assert hop1
    mid = [t for s in hop1 for label, t in comp.steps(s) if label is TAU]
    assert mid
    back = [t for s in mid for label, t in comp.steps(s) if label == act("i!ans")]
    assert start in back


def test_composite_identity_neutral(dom, terms):
    from enfkit.harness import gen_process

    candidates = [terms["pg"], terms["pb"]] + [
        gen_process(dom, 1 + (i % 9), 7700 + i) for i in range(10)
    ]
    for p in candidates:
        comp = composite_lts(ID, p, dom)
        plts = reachable(p, 200)
        equal, _ = bisim(comp, comp.initial, plts, p)
        assert equal, p


def test_composite_replacement_trace(dom, terms):
    comp = composite_lts(terms["er"], terms["reqnil"], dom)
    assert traces(comp, comp.initial, 2) == frozenset({(), (act("j?req"),)})


def test_composite_bound_exceeded(dom, terms):
    with pytest.raises(StateBoundExceeded):
        composite_lts(ID, terms["pg"], dom, bound=2)


def test_iter_closure_once_identity_always_identity(dom, terms):
    comp = composite_lts(terms["es"], terms["pb"], dom)
    for cfg in comp.states:
        if cfg.enforcer == ID:
            for _, nxt in comp.steps(cfg):
                assert nxt.enforcer == ID


def test_simulate_first_policy_goldens(dom, terms):
    run = simulate(terms["ess"], terms["pb"], 3, "first", dom)
    assert [(s.rule, str(s.label)) for s in run] == [
        ("iTrn", "i?req"),
        ("iTrn", "tau"),
        ("iTrn", "i!ans"),
    ]
    run = simulate(terms["ei"], terms["pb"], 2, "first", dom)
    assert [(s.rule, str(s.label)) for s in run] == [("iIns", "i?req"), ("iIns", "i!ans")]
    assert simulate(ID, NIL, 5, "first", dom) == []


def test_simulate_es_first_policy_loops_suppress_answer(dom, terms):
    run = simulate(terms["es"], terms["pb"], 4, "first", dom)
    assert [str(s.label) for s in run] == ["tau", "i!ans", "tau", "i!ans"]
    assert {s.rule for s in run} == {"iTrn"}


def test_simulate_scripted_termination_step(dom, terms):
    run = simulate(terms["es"], terms["pb"], 1, [("iTer", act("i?cls"))], dom)
    assert len(run) == 1
    assert run[0].rule == "iTer"
    assert run[0].config == Config(ID, NIL)


def test_simulate_random_policy_deterministic_per_seed(dom, terms):
    r1 = simulate(terms["ess"], terms["pb"], 6, "random:99", dom)
    r2 = simulate(terms["ess"], terms["pb"], 6, "random:99", dom)
    assert r1 == r2


def test_simulate_halts_on_deadlock(dom):
    p = parse_process("i?req.nil", dom)
    run = simulate(ID, p, 10, "first", dom)
    assert [str(s.label) for s in run] == ["i?req"]


@pytest.mark.parametrize(
    "run", [lambda e, d: composite_lts(e, NIL, d), lambda e, d: simulate(e, NIL, 3, "first", d)],
    ids=["composite_lts", "simulate"],
)
def test_an_unhashable_enforcer_is_no_well_formed_term(dom, run):
    # the validation memo cannot hash a list, so the check itself names it
    with pytest.raises(TransducerError, match="not a well-formed term"):
        run([1], dom)


def test_instrumentation_over_explicit_lts(dom, terms):
    # the system side can be an explicit LTS rather than a process term
    from enfkit.parsing import parse_lts

    lts = parse_lts(
        """
        init s0
        s0 -i?req-> s1
        s1 -i?req-> s1
        s1 -i!ans-> s0
        s0 -i?cls-> s2
        """
    )
    comp = composite_lts(terms["ess"], lts, dom)
    assert comp.initial == Config(terms["ess"], "s0")
    # the second request is a self-loop here, so the progressing answer wins
    run = simulate(terms["ess"], lts, 3, "first", dom)
    assert [str(s.label) for s in run] == ["i?req", "i!ans", "i?req"]
    # the suppression of the repeated request still exists as a silent loop
    scripted = simulate(terms["ess"], lts, 2, [("iTrn", act("i?req")), ("iTrn", TAU)], dom)
    assert [str(s.label) for s in scripted] == ["i?req", "tau"]
    assert scripted[-1].config.system == "s1"


def test_subst_data_freshens_a_binder_away_from_the_free_slot(dom):
    # renaming the captured binder y must not pick u, the pattern's free slot
    e = parse_transducer("{(u)!(x)}.{(z)?(w)}.{u?(y) when y = x && z = w -> i!req}.id", dom)
    renamed = subst_data(e.cont.cont, {"x": Var("y")})
    assert str(renamed) == "{u?(v) when v = y && z = w -> i!req}.id"
    assert free_data_vars(renamed) == {"u", "y", "z", "w"}


def test_a_step_never_leaves_a_slot_naming_its_own_binder(dom):
    # {(y)!(z)}.{z?(z)}.id is rejected, so its i!i step cannot open a
    # pattern that reads z both ways
    d = Domain({"i", "j"}, {"i", "req"})
    with pytest.raises(ParseError):
        parse_transducer("{(y)!(z)}.{z?(z)}.id", d)
    e = parse_transducer("{(y)!(z)}.{z?(w)}.id", d)
    [after] = [cont for (gamma, _), cont in tstep(e, d) if str(gamma) == "i!i"]
    assert str(after) == "{i?(w)}.id" and tstep(after, d)


def test_subst_data_freshens_a_capturing_binder(dom):
    # x and z are free in the continuation of {(x)!(z)}; substituting the name
    # y for x renames the inner binder y, and the fresh name avoids the z of
    # the target
    cont = lambda text: parse_transducer(text, dom).cont
    renamed = subst_data(cont("{(x)!(z)}.{(y)?req when y != x -> z!ans}.id"), {"x": Var("y")})
    assert renamed == cont("{(y)!(z)}.{(w)?req when w != y -> z!ans}.id")
    by_hand = cont("{(y)!(z)}.{(v)?req when v != y -> z!ans}.id")
    captured = cont("{(y)!(z)}.{(z)?req when z != y -> z!ans}.id")
    differs = False
    for y in ("i", "j"):
        for z in ("i", "j"):
            close = {"y": Val(y), "z": Val(z)}
            got = tstep(subst_data(renamed, close), dom)
            assert got == tstep(subst_data(by_hand, close), dom)
            differs |= got != tstep(subst_data(captured, close), dom)
    assert differs
