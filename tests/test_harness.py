import io
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import assume, given, settings, strategies as st

import enfkit.harness as harness
from enfkit import modelcheck, processes
from enfkit.cli import main
from enfkit.formulas import FF, TT, Box, FVar, Max
from enfkit.harness import (
    BOUND_ERRORS,
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
    violating_traces,
)
from enfkit.modelcheck import sat_oracle, satisfies
from enfkit.normalizer import normalize
from enfkit.parsing import parse_formula, parse_process
from enfkit.processes import (
    NIL,
    Choice,
    Prefix,
    PVar,
    ProcessError,
    Rec,
    reachable,
    traces,
    weak_step,
    weak_trace_derivatives,
)
from enfkit.runtime import composite_lts, simulate
from enfkit.symbolic import TAU, TRUE, ActionPattern, Domain, Free, Lit, SymbolicAction
from enfkit.synthesis import compile_formula, optimize, synthesize
from enfkit.transducers import alpha_eq

from conftest import act


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
    except BOUND_ERRORS:
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
    except BOUND_ERRORS:
        assume(False)
    comp = composite_lts(e, p, dom)
    for system, (lts, state) in ((p, (plts, p)), ((comp, comp.initial), (comp, comp.initial))):
        found = traces(lts, state, 4)
        candidates = set(found) | set(harness._shallow_traces(dom, 2))
        # sequences the system cannot perform: every trace extended by every
        # action, and a run of one action past the depth
        for t in harness._in_order(found)[:6]:
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
    with pytest.raises(HarnessError, match="defined for safety formulas"):
        violating_traces(terms["pg"], {()}, terms["phins"], dom)
    with pytest.raises(HarnessError, match="not guarded"):
        violating_traces(terms["pg"], {()}, parse_formula("max X.(X && [i?req]ff)", dom), dom)


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
    # a bogus violating trace fails the check whether or not p satisfies
    # the formula: it is not performable, and tt has no violating trace
    monkeypatch.setattr(harness, "violating_traces", lambda *args: {(act("j?cls"),)})
    for g in (f, TT):
        v = check_violation_semantics(Pair(g, p, dom), 1)
        assert v.outcome == "fail" and v.subject[-1] == "depth=1"


def test_violation_semantics_ff_everywhere(dom, terms):
    for p in (terms["pg"], terms["pb"], NIL):
        assert violates(p, (), FF, dom)
    assert check_violation_semantics(Pair(FF, terms["pg"], dom), 3).outcome == "pass"


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
    with pytest.raises(HarnessError, match="defined for safety formulas"):
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


def test_checks_share_the_process_trace_tree(dom, terms, monkeypatch):
    roots = []
    real = processes.trace_tree

    def spy(lts, s, depth):
        roots.append(s)
        return real(lts, s, depth)

    monkeypatch.setattr(harness, "trace_tree", spy)
    monkeypatch.setattr(processes, "trace_tree", spy)
    pair = Pair(terms["phi1"], terms["pb"], dom)
    check_violation_semantics(pair, 4)
    check_nvtt(pair, 4)
    assert roots.count(terms["pb"]) == 1
    check_nvtt(pair, 5)
    assert roots.count(terms["pb"]) == 2


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
    monkeypatch.setattr(modelcheck, "DEFAULT_CLOSURE_BOUND", 3)
    with redirect_stdout(io.StringIO()) as out:
        code = main(["verify", "--property", "soundness", "--corpus", "random:20:1"])
    lines = out.getvalue().splitlines()
    inconclusive = [line for line in lines if " inconclusive [" in line]
    assert code == 3 and len(lines) == 20
    assert inconclusive and all("closure grew past the bound" in line for line in inconclusive)
    assert sum(line.endswith(" pass") for line in lines) == 20 - len(inconclusive)
