import io
import os
import re
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import assume, given, settings, strategies as st

import enfkit.harness as harness
from enfkit import modelcheck, processes
from enfkit.cli import main
from enfkit.formulas import FF, TT, Box, FVar, Max
from enfkit.harness import (
    HarnessError,
    Pair,
    Verdict,
    after,
    check_normalization,
    check_nvtt,
    check_oracle_agreement,
    check_soundness,
    check_transparency,
    check_violation_semantics,
    gen_formula,
    gen_process,
    is_sat,
    make_corpus,
    violates,
)
from enfkit.modelcheck import ClosureBoundExceeded, ModelCheckError, sat_oracle, satisfies, shortest_violation
from enfkit.normalizer import EquationBoundExceeded, MintermBlowup, NormalizeError, normalize
from enfkit.parsing import parse_formula, parse_lts, parse_process
from enfkit.processes import (
    NIL,
    Choice,
    Prefix,
    PVar,
    ProcessError,
    Rec,
    StateBoundExceeded,
    reachable,
    traces,
    weak_step,
    weak_trace_derivatives,
)
from enfkit.runtime import composite_lts, simulate
from enfkit.symbolic import TAU, TRUE, ActionPattern, BoundExceeded, Domain, Free, Lit, SymbolicAction
from enfkit.synthesis import compile_formula, optimize, synthesize
from enfkit.transducers import ID, alpha_eq
from oracles import (
    depth_bounded_witness,
    in_order,
    shallow_traces,
    trie_nvtt,
    trie_violation_semantics,
    violating_traces,
)

from conftest import act

SPEC = os.path.join(os.path.dirname(__file__), "..", "specs", "server.spec")


def test_verdict_invariant():
    with pytest.raises(ValueError):
        Verdict("soundness", ("f", "p"), "fail")  # fail requires a witness


# ---------------------------------------------------------------------------
# satisfiability


def test_is_sat_examples(dom, terms):
    assert is_sat(terms["phi1"], dom)
    assert not is_sat(FF, dom)
    f = parse_formula("max X.([(x)?req when x != j]ff && [(x)!ans]X)", dom)
    assert is_sat(f, dom)
    assert satisfies(NIL, f, dom)


D34 = Domain({"i", "j", "k"}, {"req", "ans", "cls", "ack"})


@pytest.mark.parametrize("domain, max_size", [("2x3", 12), ("3x4", 8)])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_is_sat_agrees_with_the_normal_form(dom, domain, max_size, data):
    # a safety formula is unsatisfiable exactly when its normal form,
    # fixpoint binders stripped, is falsehood
    d = dom if domain == "2x3" else D34
    size = data.draw(st.integers(1, max_size), label="size")
    f = gen_formula(d, size, data.draw(st.integers(0, 10_000), label="seed"))
    try:
        core = normalize(f, d)
    except BoundExceeded:
        assume(False)
    while isinstance(core, Max):
        core = core.body
    assert is_sat(f, d) == (core != FF)


def test_is_sat_rejects_what_nil_cannot_decide(dom, terms):
    with pytest.raises(HarnessError, match="closed"):
        is_sat(FVar("X"), dom)
    open_guard = SymbolicAction(ActionPattern(Free("x"), True, Lit("req")), TRUE)
    with pytest.raises(HarnessError, match="closed"):
        is_sat(Box(open_guard, FF), dom)
    with pytest.raises(HarnessError, match="not guarded"):
        is_sat(Max("X", FVar("X")), dom)
    # satisfiable, but not by nil: a possibility is not a safety formula
    possible = parse_formula("<i?req>tt", dom)
    assert satisfies(parse_process("i?req.nil", dom), possible, dom)
    assert not satisfies(NIL, possible, dom)
    for f in (possible, terms["phins"]):
        with pytest.raises(HarnessError, match="safety formulas"):
            is_sat(f, dom)


# ---------------------------------------------------------------------------
# soundness / transparency


def test_soundness_of_compiled_enforcers(dom, terms):
    for p in (terms["pg"], terms["pb"]):
        assert check_soundness(Pair(terms["phi1"], p, dom)).outcome == "pass"


def test_soundness_vacuous_for_unsatisfiable(dom, terms):
    v = check_soundness(Pair(FF, terms["pg"], dom))
    assert v.outcome == "pass"


def test_insertion_enforcer_breaks_soundness_with_paper_witness(dom, terms):
    v = check_soundness(Pair(terms["phi1"], terms["pb"], dom, enforcer=terms["ei"]))
    assert v.outcome == "fail"
    assert v.witness == "i?req·i!ans·i?req·i?req"


def test_a_soundness_witness_may_be_longer_than_the_depth(dom):
    # the search that decides the failure names the trace, past depth 6
    f = parse_formula("[i?req]" * 7 + "ff", dom)
    v = check_soundness(Pair(f, parse_process("rec X.i?req.X", dom), dom, enforcer=ID), depth=6)
    assert v.outcome == "fail"
    assert v.witness == "·".join(["i?req"] * 7)


def test_shortest_violation_orders_labels_across_the_pairs_of_a_trace(dom):
    # after i?req the search holds two pairs, one per necessity; the later
    # one fails on i!ans, which comes before j?req in text order
    f = parse_formula("[i?req][j?req]ff && [i?req][i!ans]ff", dom)
    comp = composite_lts(ID, parse_process("i?req.(i!ans.nil + j?req.nil)", dom), dom)
    system = (comp, comp.initial)
    witness = shortest_violation(system, f, dom)
    assert [str(a) for a in witness] == ["i?req", "i!ans"]
    assert witness == depth_bounded_witness(system, f, dom, 2)


def test_a_silent_step_before_the_roots_violation(dom, monkeypatch):
    # the root violates [i?req]ff only after a tau step, so the trace search
    # must start its obligations at the root's tau-closure
    lts = parse_lts("init r\nr -tau-> s\ns -i?req-> t\n")
    f = parse_formula("[i?req]ff", dom)
    want = (act("i?req"),)
    violating, real_search = [], harness._trace_classes

    def search(system, g, depth, composite=None):
        for t, key in real_search(system, g, depth, composite):
            if key[3]:
                violating.append(t)
            yield t, key

    monkeypatch.setattr(harness, "_trace_classes", search)
    monkeypatch.setattr(harness, "reachable", lambda p, bound: lts)
    assert check_violation_semantics(Pair(f, "r", dom), 3).outcome == "pass"
    assert violating == [want]
    assert shortest_violation((lts, "r"), f, dom) == want
    assert violates((lts, "r"), want, f, dom)


def test_shortest_violation_matches_the_depth_bounded_witness(dom, terms):
    # wrong enforcers over seeded processes: the search fails exactly the
    # composites that do not satisfy the formula, each witness violates the
    # formula there, and it is the enumerated witness when one lies within
    # the depth, else longer than the depth
    depth = 2
    fs = [terms["phi1"], terms["phi0"], *(gen_formula(dom, 12, s) for s in (15, 17, 25, 29, 39))]
    enforcers = [ID, terms["ei"], terms["er"], terms["es"], *(
        compile_formula(gen_formula(dom, 5, 60 + s), dom) for s in range(2))]
    within = Counter()
    for i in range(30):
        p = gen_process(dom, 6 + i % 24, 500 + i)
        for e in enforcers:
            comp = composite_lts(e, p, dom)
            system = (comp, comp.initial)
            for f in fs:
                witness = shortest_violation(system, f, dom)
                assert (witness is None) == satisfies(system, f, dom), (e, p, f)
                if witness is None:
                    continue
                assert violates(system, witness, f, dom), (e, p, f, witness)
                enumerated = depth_bounded_witness(system, f, dom, depth)
                if enumerated is None:
                    assert len(witness) > depth, (e, p, f, witness)
                else:
                    assert witness == enumerated, (e, p, f)
                within[enumerated is not None] += 1
    assert within[True] >= 20 and within[False] >= 5, within


def test_hand_written_enforcers_other_than_insertion_are_sound(dom, terms):
    # the replacement and both suppressors bring the flaky server in line
    for name in ("er", "es", "ess"):
        for p in (terms["pg"], terms["pb"]):
            v = check_soundness(Pair(terms["phi1"], p, dom, enforcer=terms[name]))
            assert v.outcome == "pass", (name, v.line())


def test_transparency_of_compiled_enforcer_on_good_system(dom, terms):
    assert check_transparency(Pair(terms["phi1"], terms["pg"], dom)).outcome == "pass"


def test_transparency_vacuous_on_violating_system(dom, terms):
    assert check_transparency(Pair(terms["phi1"], terms["pb"], dom)).outcome == "pass"


def test_blunt_suppressor_breaks_transparency(dom, terms):
    v = check_transparency(Pair(terms["phi1"], terms["pg"], dom, enforcer=terms["es"]))
    assert v.outcome == "fail" and "label" in v.witness


def test_replacement_breaks_transparency(dom, terms):
    v = check_transparency(Pair(terms["phi1"], terms["reqnil"], dom, enforcer=terms["er"]))
    assert v.outcome == "fail"


# ---------------------------------------------------------------------------
# violating traces


def test_violates_examples(dom, terms):
    pb, phi1 = terms["pb"], terms["phi1"]
    assert violates(pb, (act("i?req"), act("i?req")), phi1, dom)
    assert not violates(pb, (act("i?req"), act("i!ans")), phi1, dom)
    for p in (terms["pg"], terms["pb"], NIL):
        assert violates(p, (), FF, dom)


def test_violates_nonempty_trace_of_ff_is_not_violating(dom, terms):
    # the forcing relation ties falsehood to the empty trace only
    assert not violates(terms["pb"], (act("i?req"),), FF, dom)


def test_violates_requires_performable_steps(dom, terms):
    f = parse_formula("[i!ans]ff", dom)
    assert not violates(terms["pb"], (act("i!ans"),), f, dom)  # pb cannot output first


@settings(max_examples=60, deadline=None)
@given(
    fsize=st.integers(1, 10),
    fseed=st.integers(0, 10_000),
    psize=st.integers(1, 24),
    pseed=st.integers(0, 10_000),
)
def test_violating_traces_agree_with_violates(dom, fsize, fseed, psize, pseed):
    # one walk over every candidate against one `violates` call per trace, on
    # the process and on its instrumented composite
    f, p = gen_formula(dom, fsize, fseed), gen_process(dom, psize, pseed)
    plts = reachable(p, 500)
    try:
        e = compile_formula(f, dom)
    except BoundExceeded:
        assume(False)
    comp = composite_lts(e, p, dom)
    for system, (lts, state) in ((p, (plts, p)), ((comp, comp.initial), (comp, comp.initial))):
        found = traces(lts, state, 4)
        candidates = set(found) | set(shallow_traces(dom, 2))
        # sequences the system cannot perform: every trace extended by every
        # action, and a run of one action past the depth
        for t in in_order(found)[:6]:
            candidates.update(t + (a,) for a in dom.actions)
        candidates.add((dom.actions[0],) * 6)
        want = {t for t in candidates if violates(system, t, f, dom)}
        assert violating_traces(system, candidates, f, dom) == want
        # a set that is not prefix-closed: only candidates decide
        odd = {t for t in candidates if len(t) % 2}
        assert violating_traces(system, odd, f, dom) == {t for t in want if len(t) % 2}


def test_violating_traces_examples(dom, terms):
    pb, phi1 = terms["pb"], terms["phi1"]
    req, ans = act("i?req"), act("i!ans")
    candidates = {(), (req,), (req, req), (req, ans), (req, req, req)}
    # a violating trace's extension is violating only if it is a candidate
    assert violating_traces(pb, candidates, phi1, dom) == {(req, req)}
    assert violating_traces(pb, (), phi1, dom) == frozenset()
    # falsehood along the empty trace only, and only where a candidate ends
    assert violating_traces(pb, candidates, FF, dom) == {()}
    assert violating_traces(pb, {(req,)}, FF, dom) == frozenset()
    assert violating_traces(pb, candidates, TT, dom) == frozenset()
    # steps must be performable: pb cannot output first
    assert violating_traces(pb, {(ans,)}, parse_formula("[i!ans]ff", dom), dom) == frozenset()


def test_violating_traces_decide_a_deep_candidate(dom):
    # 5000 requests then an answer: the walk keeps its trie on an explicit
    # stack, so the depth is not bounded by the recursion limit
    p = parse_process("rec X.(i?req.X + i!ans.nil)", dom)
    f = parse_formula("max X.([i?req]X && [i!ans]ff)", dom)
    req, ans = act("i?req"), act("i!ans")
    deep = (req,) * 5000 + (ans,)
    assert violating_traces(p, {deep, deep[:-1]}, f, dom) == {deep}


def test_violating_traces_need_a_guarded_safety_formula(dom, terms):
    with pytest.raises(HarnessError, match="only safety formulas are accepted"):
        violating_traces(terms["pg"], {()}, terms["phins"], dom)
    with pytest.raises(HarnessError, match="not guarded"):
        violating_traces(terms["pg"], {()}, parse_formula("max X.(X && [i?req]ff)", dom), dom)


def test_violation_functions_need_a_closed_formula(dom):
    p = parse_process("i?req.nil", dom)
    req = act("i?req")
    logic_open = Box(parse_formula("[i?req]ff", dom).action, FVar("X"))
    data_open = parse_formula("[(x)?req][x?req]ff", dom).body
    for f in (logic_open, data_open):
        with pytest.raises(HarnessError, match="formula must be closed"):
            violating_traces(p, {(), (req,)}, f, dom)
        with pytest.raises(HarnessError, match="formula must be closed"):
            violates(p, (req,), f, dom)


# ---------------------------------------------------------------------------
# after


def test_after_trivial_and_tau(dom, terms):
    a = act("i?req")
    assert after(TT, a) == TT
    assert after(FF, a) == FF
    assert after(terms["phi1"], TAU) == terms["phi1"]


def test_after_matching_branch_instantiates(dom, terms):
    phi1 = terms["phi1"]
    residual = after(phi1, act("i?req"))
    box_ans, box_req = residual.items
    assert str(box_ans.action) == "i!ans"
    assert box_ans.body == phi1
    assert str(box_req.action) == "i?req"
    assert box_req.body == FF


def test_after_no_match_gives_truth(dom, terms):
    assert after(terms["phi1"], act("j?req")) == TT


def test_after_overlapping_guards_conjoins_both_continuations(dom):
    f = parse_formula("[i?req][i!ans]ff && [(x)?req][x!cls]ff", dom)
    assert str(after(f, act("i?req"))) == "[i!ans]ff && [i!cls]ff"
    assert str(after(f, act("j?req"))) == "[j!cls]ff"
    # falsehood reached through a conjunction or an unfolding stays
    assert after(parse_formula("max X.([i?req]X && ff)", dom), act("i?req")) == FF


def test_after_rejects_what_the_view_cannot_read(dom, terms):
    with pytest.raises(HarnessError, match="not guarded"):
        after(Max("X", FVar("X")), act("i?req"))
    with pytest.raises(HarnessError, match="safety formulas"):
        after(terms["phins"], act("i?req"))


# ---------------------------------------------------------------------------
# non-violating-trace transparency


def test_nvtt_paper_instances(dom, terms):
    assert check_nvtt(Pair(terms["phi1"], terms["pb"], dom), 2).outcome == "pass"
    assert check_nvtt(Pair(terms["phi1"], terms["pg"], dom), 4).outcome == "pass"
    assert check_nvtt(Pair(TT, terms["pb"], dom), 3).outcome == "pass"


def test_nvtt_req_ans_preserved_both_directions(dom, terms):
    # the worked violating system keeps its non-violating trace req·ans
    pb, phi1 = terms["pb"], terms["phi1"]
    t = (act("i?req"), act("i!ans"))
    assert not violates(pb, t, phi1, dom)
    plts = reachable(pb, 100)
    comp = composite_lts(compile_formula(phi1, dom), pb, dom)
    plain = weak_trace_derivatives(plts, pb, t)
    projected = {c.system for c in weak_trace_derivatives(comp, comp.initial, t)}
    assert plain == projected == {pb}


def test_nvtt_backward_inclusion_fails_on_eager_suppressor(dom):
    # Counterexample to the per-state backward inclusion: the enforcer
    # suppresses the first input, so the composite reaches (via tau) a state
    # the bare process can only reach by a visible step.
    f = parse_formula("[i?req]ff", dom)
    p = parse_process("i?req.i?ans.nil", dom)
    v = check_nvtt(Pair(f, p, dom), 2)
    assert v.outcome == "fail"
    assert "invents" in v.witness


# ---------------------------------------------------------------------------
# violating-trace semantics


def test_violation_semantics_on_worked_example(dom, terms):
    for p in (terms["pg"], terms["pb"]):
        assert check_violation_semantics(Pair(terms["phi1"], p, dom), 6).outcome == "pass"


def test_violation_semantics_condition1_instance(dom, terms):
    pb, phi1 = terms["pb"], terms["phi1"]
    t = (act("i?req"), act("i?req"))
    assert violates(pb, t, phi1, dom)
    assert not satisfies(pb, phi1, dom)
    assert weak_trace_derivatives(reachable(pb, 100), pb, t)


def test_violation_semantics_satisfying_system_has_no_violations(dom, terms):
    pg, phi1 = terms["pg"], terms["phi1"]
    lts = reachable(pg, 100)
    for t in traces(lts, pg, 6):
        assert not violates(pg, t, phi1, dom)


def test_violation_semantics_names_the_depth_on_every_outcome(dom, monkeypatch):
    f = parse_formula("[i?req][i?req]ff", dom)
    p = parse_process("i?req.i?req.nil", dom)
    shallow = check_violation_semantics(Pair(f, p, dom), 1)
    assert shallow.outcome == "inconclusive" and shallow.subject[-1] == "depth=1"
    assert "no violating trace within depth 1" in shallow.witness
    deep = check_violation_semantics(Pair(f, p, dom), 2)
    assert deep.outcome == "pass" and deep.subject[-1] == "depth=2"
    # a bogus violating trace, which no state performs, fails the check
    # whether or not p satisfies the formula: it is not performable, and tt
    # has no violating trace.  The search never yields one, since its
    # obligation states lie in the process's derivatives.
    empty = frozenset()
    bogus = [((act("j?cls"),), (empty, empty, empty, True))]
    monkeypatch.setattr(harness, "_trace_classes", lambda *args, **kwargs: iter(bogus))
    why = {
        f: "violating trace j?cls is not performable",
        TT: "j?cls violates but the system satisfies the formula",
    }
    for g in (f, TT):
        v = check_violation_semantics(Pair(g, p, dom), 1)
        assert v.outcome == "fail" and v.subject[-1] == "depth=1"
        assert v.witness == why[g]


def test_trace_checks_keep_their_depth_handling(dom):
    f = parse_formula("[i?req][i?req]ff", dom)
    p = parse_process("i?req.i?req.nil", dom)
    for check in (check_nvtt, check_violation_semantics):
        with pytest.raises(ValueError, match="depth must be non-negative"):
            check(Pair(f, p, dom), -1)
    assert check_nvtt(Pair(f, p, dom), 0).outcome == "pass"
    v = check_violation_semantics(Pair(f, p, dom), 0)
    assert v.line().endswith("depth=0' inconclusive [no violating trace within depth 0]")


def test_violation_semantics_ff_everywhere(dom, terms):
    for p in (terms["pg"], terms["pb"], NIL):
        assert violates(p, (), FF, dom)
    assert check_violation_semantics(Pair(FF, terms["pg"], dom), 3).outcome == "pass"


# ---------------------------------------------------------------------------
# the trace search against the trie oracle


@settings(max_examples=60, deadline=None)
@given(
    fsize=st.integers(1, 10),
    fseed=st.integers(0, 10_000),
    psize=st.integers(1, 24),
    pseed=st.integers(0, 10_000),
    depth=st.integers(0, 6),
    bound=st.sampled_from([8, harness.DEFAULT_BOUND]),
)
def test_trace_search_matches_the_trie_oracle(dom, terms, fsize, fseed, psize, pseed, depth, bound):
    # every verdict line of both trace criteria, under the compiled enforcer
    # and under wrong ones, is the line of the route that lists every trace
    f, p = gen_formula(dom, fsize, fseed), gen_process(dom, psize, pseed)
    try:
        other = compile_formula(gen_formula(dom, 5, fseed + 1), dom)
    except BoundExceeded:
        other = ID
    for e in (None, ID, terms["ei"], terms["er"], terms["es"], other):
        pair = Pair(f, p, dom, enforcer=e, bound=bound)
        assert check_nvtt(pair, depth).line() == trie_nvtt(pair, depth).line()
    pair = Pair(f, p, dom, bound=bound)
    want = trie_violation_semantics(pair, depth).line()
    assert check_violation_semantics(pair, depth).line() == want


def test_trace_search_matches_the_trie_oracle_on_seeded_pairs(dom, terms):
    # a fixed sweep that makes both routes fail nvtt and leave violation
    # semantics inconclusive, not only pass
    fs = [terms["phi1"], terms["phi0"], *(gen_formula(dom, 8, s) for s in range(6))]
    enforcers = [None, ID, terms["ei"], terms["er"], terms["es"]]
    outcomes = Counter()
    for i in range(24):
        p = gen_process(dom, 6 + i % 18, 700 + i)
        for f in fs:
            depth = i % 7
            for e in enforcers:
                pair = Pair(f, p, dom, enforcer=e)
                v = check_nvtt(pair, depth)
                assert v.line() == trie_nvtt(pair, depth).line()
                outcomes["nvtt", v.outcome] += 1
            pair = Pair(f, p, dom)
            v = check_violation_semantics(pair, depth)
            assert v.line() == trie_violation_semantics(pair, depth).line()
            outcomes["violation-sem", v.outcome] += 1
    assert outcomes["nvtt", "fail"] >= 100 and outcomes["nvtt", "pass"] >= 100, outcomes
    assert outcomes["violation-sem", "inconclusive"] >= 2, outcomes


def _trace_of(text, d):
    labels = {str(a): a for a in d.actions}
    return () if text == "ε" else tuple(labels[x] for x in text.split("·"))


def test_trace_check_witnesses_check_themselves(dom):
    # each nvtt failure on the criterion-8 corpus (`verify` reads the same
    # pairs as random:200:42) names a non-violating trace whose weak
    # derivatives in the process and in the composite differ by the named
    # derivative, in the named direction; a violation-semantics failure
    # names a trace that `violates` confirms
    nvtt_failures = 0
    for f, p in make_corpus(dom, 200, 42):
        pair = Pair(f, p, dom)
        system = (pair.system, p)
        v = check_nvtt(pair, 6)
        if v.outcome == "fail":
            nvtt_failures += 1
            m = re.fullmatch(r"trace (\S+) (loses|invents) derivative (.+)", v.witness)
            t = _trace_of(m[1], dom)
            plain = weak_trace_derivatives(*system, t)
            comp = pair.composite
            projected = {cfg.system for cfg in weak_trace_derivatives(comp, comp.initial, t)}
            diff = plain - projected if m[2] == "loses" else projected - plain
            assert m[3] == min(map(str, diff)), v.line()
            assert not violates(system, t, f, dom), v.line()
        w = check_violation_semantics(pair, 6)
        if w.outcome == "fail":
            m = re.fullmatch(r"(?:violating trace )?(\S+) (?:violates but|is not performable).*", w.witness)
            assert violates(system, _trace_of(m[1], dom), f, dom), w.line()
    assert nvtt_failures == 13


# ---------------------------------------------------------------------------
# appendix-style lemma checks


@pytest.mark.parametrize("seed", range(16))
def test_residual_lemma_on_corpus(dom, seed):
    # not violating(p, a·t) and p =a=> p'  implies  not violating(p', t, after).
    # Formulas that are falsehood outright are excluded: falsehood is violated
    # along the empty trace only, so a one-action trace is "non-violating" for
    # it while its residual is still falsehood; see the companion test below.
    f = normalize(gen_formula(dom, 1 + (seed % 6), 8800 + seed), dom)
    if f == FF:
        pytest.skip("top-level falsehood: residual lemma does not apply")
    _check_residual_lemma(f, gen_process(dom, 1 + (seed % 8), 8801 + seed), dom)


@pytest.mark.parametrize("case", range(16))
def test_residual_lemma_on_non_ff_corpus(dom, case):
    # the same lemma on the first formula of each seed block whose normal form
    # is not falsehood, so no case skips; a branch that can do every action
    # forever makes the residuals matter
    seeds = range(9400 + 20 * case, 9420 + 20 * case)
    f = next(
        nf for nf in (normalize(gen_formula(dom, 2 + (case % 6), s), dom) for s in seeds)
        if nf != FF
    )
    chaos = Rec("X", Choice(tuple(Prefix(a, PVar("X")) for a in dom.actions)))
    p = Choice((gen_process(dom, 2 + (case % 8), 9401 + case), chaos))
    _check_residual_lemma(f, p, dom, depth=2)


def _check_residual_lemma(f, p, dom, depth=3):
    lts = reachable(p, 400)
    for t in sorted(traces(lts, p, depth), key=lambda t: (len(t), tuple(map(str, t)))):
        if not t or violates((lts, p), t, f, dom):
            continue
        head, rest = t[0], t[1:]
        residual = after(f, head)
        for q in weak_step(lts, p, head):
            assert not violates((lts, q), rest, residual, dom), (f, p, t)


def test_residual_lemma_edge_at_falsehood(dom):
    # Pinned inconsistency: with falsehood violated along the empty trace
    # only, a process that can move does not violate ff along its one-action
    # traces, yet the residual stays ff and the successor violates it along
    # the empty suffix.  The residual lemma therefore excludes bare ff.
    p = parse_process("j?cls.nil", dom)
    lts = reachable(p, 10)
    t = (act("j?cls"),)
    assert not violates((lts, p), t, FF, dom)
    assert after(FF, t[0]) == FF
    (q,) = weak_step(lts, p, t[0])
    assert violates((lts, q), (), FF, dom)


@pytest.mark.parametrize("seed", range(16))
def test_visible_steps_track_residual_synthesis(dom, seed):
    # a visible first step of the composite lands in the compile-image of the
    # residual formula, up to removing unused recursion binders
    f = normalize(gen_formula(dom, 1 + (seed % 6), 8900 + seed), dom)
    p = gen_process(dom, 1 + (seed % 8), 8901 + seed)
    e = synthesize(f, dom)
    comp = composite_lts(e, p, dom)
    for label, cfg in comp.steps(comp.initial):
        if label is TAU:
            continue
        expected = optimize(synthesize(after(f, label), dom))
        assert alpha_eq(optimize(cfg.enforcer), expected), (f, p, label)


# ---------------------------------------------------------------------------
# generators


def test_generators_deterministic(dom):
    assert gen_formula(dom, 5, 12) == gen_formula(dom, 5, 12)
    assert gen_process(dom, 5, 12) == gen_process(dom, 5, 12)
    assert make_corpus(dom, 5, 3) == make_corpus(dom, 5, 3)


def test_generator_smallest_sizes(dom):
    from enfkit.formulas import FFalse, FTrue
    from enfkit.processes import PNil

    for s in range(20):
        f = gen_formula(dom, 1, s)
        assert isinstance(f, (FTrue, FFalse))
        p = gen_process(dom, 1, s)
        assert isinstance(p, PNil)


def test_generator_distribution(dom):
    processes = [gen_process(dom, 1 + (i % 10), 2222 + i) for i in range(12)]
    plts = [(reachable(p, 500), p) for p in processes]
    satisfiable_count = 0
    refuted_count = 0
    for i in range(1000):
        f = gen_formula(dom, 1 + (i % 8), i)
        if is_sat(f, dom):
            satisfiable_count += 1
        if any(not satisfies(lp, f, dom) for lp in plts):
            refuted_count += 1
    assert satisfiable_count >= 100
    assert refuted_count >= 100


def test_oracle_and_normalization_checks_report_pass(dom, terms):
    assert check_oracle_agreement(Pair(terms["phi1"], terms["pb"], dom)).outcome == "pass"
    assert check_normalization(terms["phi1"], [terms["pg"], terms["pb"]], dom).outcome == "pass"


def test_system_forms_agree(dom):
    # a process, its LTS and an (LTS, state) pair are one system to both
    # satisfaction routes, the violation judgement and the normalisation check
    for i in range(12):
        f = gen_formula(dom, 1 + (i % 6), 700 + i)
        p = gen_process(dom, 2 + (i % 8), 701 + i)
        lts = reachable(p, 400)
        forms = (p, lts, (lts, p))
        for route in (satisfies, sat_oracle):
            assert len({route(s, f, dom) for s in forms}) == 1, (route, f, p)
        for t in traces(lts, p, 2):
            assert len({violates(s, t, f, dom) for s in forms}) == 1, (f, p, t)
        assert len({check_normalization(f, [s], dom) for s in forms}) == 1, (f, p)
        for q in lts.states:
            assert satisfies((lts, q), f, dom) == satisfies(q, f, dom), (f, q)


def test_check_normalization_checks_the_given_lts(dom, terms, monkeypatch):
    import enfkit.harness as harness

    sizes = []
    real_mc_eval = harness.mc_eval

    def spy(f, lts, valuation, d):
        sizes.append(len(lts))
        return real_mc_eval(f, lts, valuation, d)

    monkeypatch.setattr(harness, "mc_eval", spy)
    lts = reachable(terms["pg"], 10)
    assert check_normalization(terms["phi1"], [(lts, terms["pg"])], dom).outcome == "pass"
    assert sizes == [3, 3]  # the formula and its normal form, on all of pg's states


def test_non_systems_are_rejected(dom, terms):
    f = terms["phi1"]
    routes = (
        lambda s: satisfies(s, f, dom),
        lambda s: sat_oracle(s, f, dom),
        lambda s: violates(s, (), f, dom),
        lambda s: violating_traces(s, {()}, f, dom),
        lambda s: check_normalization(f, [s], dom),
        lambda s: composite_lts(terms["ess"], s, dom),
        lambda s: simulate(terms["ess"], s, 3, "first", dom),
    )
    for route in routes:
        with pytest.raises(ProcessError):
            route("hello")


def test_foreign_states_are_rejected(dom, terms):
    # an (LTS, state) pair must name a state of that LTS; before, satisfies
    # answered False, sat_oracle True and violates True for the same pair
    lts = reachable(terms["pg"], 10)
    routes = (
        lambda s: satisfies(s, TT, dom),
        lambda s: sat_oracle(s, TT, dom),
        lambda s: violates(s, (), FF, dom),
        lambda s: violating_traces(s, {()}, FF, dom),
        lambda s: check_normalization(terms["phi1"], [s], dom),
        lambda s: composite_lts(terms["ess"], s, dom),
        lambda s: simulate(terms["ess"], s, 3, "first", dom),
    )
    for state in ("bogus", terms["pb"], ["s0"]):
        for route in routes:
            with pytest.raises(ProcessError):
                route((lts, state))


def test_violates_needs_a_guarded_safety_formula(dom, terms):
    with pytest.raises(HarnessError, match="only safety formulas are accepted"):
        violates(terms["pg"], (), terms["phins"], dom)
    with pytest.raises(HarnessError, match="not guarded"):
        violates(terms["pg"], (), parse_formula("max X.(X && [i?req]ff)", dom), dom)


# ---------------------------------------------------------------------------
# the shared pair


def test_verify_derives_each_pair_once(monkeypatch):
    counts = Counter()
    for name in ("compile_formula", "reachable", "composite_lts"):
        real = getattr(harness, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, spy)
    with redirect_stdout(io.StringIO()):
        main(["verify", "--property", "all", "--corpus", "random:40:42"])
    assert counts["compile_formula"] <= 40
    assert counts["reachable"] == 40
    assert counts["composite_lts"] <= 40


def test_verify_never_evaluates_denotations(monkeypatch):
    # every satisfaction query of verify goes to the closure search
    calls = []
    real = modelcheck.mc_eval

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(modelcheck, "mc_eval", spy)
    monkeypatch.setattr(harness, "mc_eval", spy)
    with redirect_stdout(io.StringIO()) as out:
        code = main(["verify", "--property", "all", "--corpus", "random:20:1"])
    assert code in (0, 1) and len(out.getvalue().splitlines()) == 80
    assert calls == []


def test_each_trace_search_runs_once_per_pair_and_depth(dom, terms, monkeypatch):
    searches, explored = [], []
    real_search, real_reachable = harness._trace_classes, harness.reachable

    def search(system, f, depth, composite=None):
        searches.append(("violation-sem" if composite is None else "nvtt", depth))
        return real_search(system, f, depth, composite)

    def explore(p, bound):
        explored.append(p)
        return real_reachable(p, bound)

    monkeypatch.setattr(harness, "_trace_classes", search)
    monkeypatch.setattr(harness, "reachable", explore)
    monkeypatch.setattr(processes, "trace_tree", None)
    pair = Pair(terms["phi1"], terms["pb"], dom)
    check_violation_semantics(pair, 4)
    check_nvtt(pair, 4)
    assert searches == [("violation-sem", 4), ("nvtt", 4)]
    check_nvtt(pair, 5)
    assert searches[-1] == ("nvtt", 5) and len(searches) == 3
    assert explored == [terms["pb"]]


def test_given_enforcer_is_not_compiled(dom, terms, monkeypatch):
    monkeypatch.setattr(harness, "compile_formula", None)
    pair = Pair(terms["phi1"], terms["pg"], dom, enforcer=terms["ess"])
    assert pair.enforcer is terms["ess"]
    assert check_transparency(pair).outcome == "pass"


def test_bound_errors_are_not_kept(dom, terms):
    pair = Pair(terms["phi1"], terms["pg"], dom, bound=1)
    for check in (check_transparency, check_oracle_agreement):
        v = check(pair)
        assert v.outcome == "inconclusive" and "more than 1 reachable states" in v.witness
    assert "system" not in vars(pair) and "holds" not in vars(pair)


def test_transparency_compiles_before_reading_the_system(tmp_path):
    # 13 distinct, overlapping guards on one pattern exceed the minterm bound,
    # and pg violates the first; a check that asked whether pg satisfies the
    # formula before compiling it would pass vacuously
    guards = (
        "x != j", "x != j && y != ans", "x != j && y != cls", "x != j && y = req",
        "x != j && y != req", "x = i", "x = i && y != ans", "x = i && y != cls",
        "x = i && y = req", "x = i && y != req", "y = req", "y = req && x != j",
        "y != cls",
    )
    formula = " && ".join(f"[(x)?(y) when {g}]ff" for g in guards)
    spec = tmp_path / "guards.spec"
    spec.write_text(
        "ports = {i, j}\npayloads = {req, ans, cls}\n"
        "process pg = rec X.(i?req.i!ans.X + i?cls.nil)\n"
        f"formula guards = {formula}\n"
    )
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "--property", "transparency", "--corpus", str(spec)])
    lines = out.getvalue().splitlines()
    assert code == 3 and len(lines) == 1
    assert " inconclusive [" in lines[0] and "the bound is 12" in lines[0]


def test_oracle_agreement_is_inconclusive_past_the_closure_bound(dom, terms, monkeypatch):
    monkeypatch.setattr(modelcheck, "DEFAULT_CLOSURE_BOUND", 1)
    v = check_oracle_agreement(Pair(terms["phi1"], terms["pg"], dom))
    assert v.outcome == "inconclusive" and "closure" in v.witness


def test_verify_continues_past_a_closure_bound(monkeypatch):
    # a pair whose satisfaction search hits the bound gets an inconclusive
    # verdict; the other pairs are still checked, and verify exits 3
    monkeypatch.setattr(modelcheck, "DEFAULT_CLOSURE_BOUND", 2)
    with redirect_stdout(io.StringIO()) as out:
        code = main(["verify", "--property", "soundness", "--corpus", "random:20:1"])
    lines = out.getvalue().splitlines()
    inconclusive = [line for line in lines if " inconclusive [" in line]
    assert code == 3 and len(lines) == 20
    assert inconclusive and all("closure grew past the bound" in line for line in inconclusive)
    assert sum(line.endswith(" pass") for line in lines) == 20 - len(inconclusive)


# ---------------------------------------------------------------------------
# One bound decision: every bound error is a `BoundExceeded`, and `_verdict`
# alone turns it into an inconclusive verdict

BOUNDS = {
    StateBoundExceeded: ProcessError,
    ClosureBoundExceeded: ModelCheckError,
    MintermBlowup: NormalizeError,
    EquationBoundExceeded: NormalizeError,
}

#: The six checks, each on one pair, by the criterion its verdict names.
SIX_CHECKS = {
    "soundness": check_soundness,
    "transparency": check_transparency,
    "nvtt": lambda pair: check_nvtt(pair, 3),
    "violation-sem": lambda pair: check_violation_semantics(pair, 3),
    "normalization-equivalence": lambda pair: check_normalization(pair.f, [pair.p], pair.d),
    "oracle-agreement": check_oracle_agreement,
}


def _raise(error):
    def derive(*args):
        raise error("a bound was hit")

    return derive


@pytest.mark.parametrize("error", BOUNDS, ids=lambda error: error.__name__)
def test_every_bound_error_is_a_bound_exceeded_of_its_module(error):
    assert issubclass(error, BoundExceeded) and issubclass(error, BOUNDS[error])


@pytest.mark.parametrize("error", BOUNDS, ids=lambda error: error.__name__)
@pytest.mark.parametrize("criterion", SIX_CHECKS)
def test_a_bound_hit_in_a_derivation_makes_each_check_inconclusive(dom, terms, monkeypatch, criterion, error):
    # the pair's LTS, which the five pair checks derive, and the normal form,
    # which normalization derives, each hit the bound
    monkeypatch.setattr(harness, "reachable", _raise(error))
    monkeypatch.setattr(harness, "normalize", _raise(error))
    v = SIX_CHECKS[criterion](Pair(terms["phi1"], terms["pb"], dom))
    assert (v.criterion, v.outcome, v.witness) == (criterion, "inconclusive", "a bound was hit")


@pytest.mark.parametrize("error", BOUNDS, ids=lambda error: error.__name__)
def test_a_bound_hit_in_a_derivation_makes_verify_exit_inconclusive(monkeypatch, error):
    # every criterion derives the pair's LTS (soundness through the
    # composite: each formula of the server spec is satisfiable)
    monkeypatch.setattr(harness, "reachable", _raise(error))
    with redirect_stdout(io.StringIO()) as out:
        code = main(["verify", "--property", "all", "--corpus", SPEC])
    lines = out.getvalue().splitlines()
    assert code == 3 and len(lines) == 48
    assert all(line.endswith(" inconclusive [a bound was hit]") for line in lines)


def test_a_violator_without_a_violating_trace_within_the_depth_is_inconclusive():
    # pb violates phi0 only after two requests, beyond depth 1
    with redirect_stdout(io.StringIO()) as out:
        code = main(["verify", "--property", "violation-sem", "--depth", "1", "--corpus", SPEC])
    lines = out.getvalue().splitlines()
    inconclusive = [line for line in lines if " inconclusive " in line]
    assert code == 3 and len(inconclusive) == 2
    assert all(line.endswith(" depth=1' inconclusive [no violating trace within depth 1]")
               for line in inconclusive)
