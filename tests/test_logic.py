import pytest

from enfkit.formulas import (
    Box, FAnd, FOr, FVar, FormulaError, Max, classify, free_data_vars, necessities,
    subst_data, unfold,
)
from enfkit import modelcheck
from enfkit.modelcheck import (
    ClosureBoundExceeded, ModelCheckError, mc_eval, sat_oracle, satisfies,
)
from enfkit.parsing import ParseError, parse_formula, parse_process
from enfkit.processes import NIL, reachable
from enfkit.harness import gen_formula, gen_process
from enfkit.symbolic import TAU, Val, Var


def test_parse_phi1_shape(dom, terms):
    phi1 = terms["phi1"]
    assert isinstance(phi1, Max)
    box = phi1.body
    assert isinstance(box, Box)
    inner = box.body
    assert isinstance(inner, FAnd) and len(inner.items) == 2
    assert isinstance(inner.items[1].body, type(parse_formula("ff", dom)))


def test_parse_trivia(dom):
    assert str(parse_formula("tt", dom)) == "tt"
    phins = parse_formula("[i?req]ff || [i!ans]ff", dom)
    assert isinstance(phins, FOr)


def test_parse_errors(dom):
    with pytest.raises(ParseError):
        parse_formula("max X.[i?req]Y", dom)  # unbound logical variable
    with pytest.raises(ParseError):
        parse_formula("[(x)?(x)]tt", dom)  # nonlinear pattern
    with pytest.raises(ParseError):
        parse_formula("[i?req when y = i]tt", dom)  # unbound data variable


def test_classify_phi1(dom, terms):
    flags = classify(terms["phi1"], dom)
    assert (flags.closed, flags.guarded, flags.shml, flags.shmlnf) == (True,) * 4


def test_classify_phins_not_shml(dom, terms):
    flags = classify(terms["phins"], dom)
    assert flags.closed and flags.guarded and not flags.shml


def test_classify_unguarded(dom):
    flags = classify(Max("X", FVar("X")), dom)
    assert flags.closed and not flags.guarded


def test_mc_eval_example(dom, terms):
    pg, pb, phi1 = terms["pg"], terms["pb"], terms["phi1"]
    lts_g = reachable(pg, 100)
    assert pg in mc_eval(phi1, lts_g, {}, dom)
    lts_b = reachable(pb, 100)
    assert pb not in mc_eval(phi1, lts_b, {}, dom)


def test_mc_eval_tt_everywhere(dom, terms):
    lts = reachable(terms["pb"], 100)
    assert mc_eval(parse_formula("tt", dom), lts, {}, dom) == frozenset(lts.states)


def test_mc_eval_vacuous_necessity(dom):
    lts = reachable(NIL, 1)
    assert NIL in mc_eval(parse_formula("[(x)?(y)]ff", dom), lts, {}, dom)


def test_satisfies_examples(dom, terms):
    assert satisfies(terms["pg"], terms["phi1"], dom)
    assert not satisfies(terms["pb"], terms["phi1"], dom)
    assert satisfies(terms["pg"], terms["phi0"], dom)
    assert not satisfies(terms["pb"], terms["phi0"], dom)
    assert satisfies(NIL, parse_formula("tt", dom), dom)


def test_satisfies_weak_modalities(dom):
    # the modality quantifies over weak derivatives, so a tau prefix is
    # transparent to the necessity
    p = parse_process("tau.i?req.i?req.nil", dom)
    f = parse_formula("[i?req][i?req]ff", dom)
    assert not satisfies(p, f, dom)
    q = parse_process("tau.i?req.tau.i!ans.nil", dom)
    assert satisfies(q, f, dom)


def test_sat_oracle_examples(dom, terms):
    assert sat_oracle(terms["pg"], terms["phi1"], dom)
    ff = parse_formula("ff", dom)
    for p in (terms["pg"], terms["pb"], NIL):
        assert not sat_oracle(p, ff, dom)
    assert sat_oracle(NIL, terms["phi1"], dom)


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
def test_sat_oracle_answers_a_falsehood_pair_before_the_bound(dom, bound, monkeypatch):
    monkeypatch.setattr(modelcheck, "DEFAULT_CLOSURE_BOUND", bound)
    # ff reached through a conjunction or an unfolding fails the root pair
    for text in ("(max X5.ff) && ff", "(max X5.ff) && tt", "max X.(tt && (ff && [i?req]X))"):
        assert not sat_oracle(NIL, parse_formula(text, dom), dom), text
    # ff behind a matching necessity is the root's one continuation, answered
    # before the bound is tested for its pair; nil meets the necessity
    behind = parse_formula("[i?req]((max X5.ff) && tt)", dom)
    assert not sat_oracle(parse_process("i?req.i?req.nil", dom), behind, dom)
    assert sat_oracle(NIL, behind, dom)
    # a search that meets no falsehood needs one pair per state, four here
    loop = parse_formula("max X.[i?req]X", dom)
    chain = parse_process("i?req.i?req.i?req.nil", dom)
    if bound < 4:
        with pytest.raises(ClosureBoundExceeded):
            sat_oracle(chain, loop, dom)
    else:
        assert sat_oracle(chain, loop, dom)


def test_sat_oracle_rejects_non_safety(dom, terms):
    with pytest.raises(ModelCheckError):
        sat_oracle(NIL, terms["phins"], dom)


def test_sat_oracle_rejects_an_unguarded_formula(dom):
    # the necessity view has no reading for it; satisfies still decides it
    f = parse_formula("max X.(X && [i?req]ff)", dom)
    with pytest.raises(ModelCheckError, match="formula is not guarded"):
        sat_oracle(NIL, f, dom)
    assert satisfies(NIL, f, dom)


@pytest.mark.parametrize("seed", range(50))
def test_necessities_reach_falsehood_exactly_when_nil_fails(dom, seed):
    # nil meets every necessity vacuously, so it fails a safety formula
    # exactly when conjunctions and unfoldings alone reach ff; the
    # denotation decides it independently of the view
    for size in range(1, 17):
        f = gen_formula(dom, size, seed)
        assert necessities(f)[1] == (not satisfies(NIL, f, dom)), f


def test_necessities_keep_source_order_and_repeats(dom):
    f = parse_formula("(max X.([i?req]ff && (tt && [j!ans]X))) && [i?req]ff", dom)
    boxes, falsified = necessities(f)
    loop = f"[j!ans]({f.items[0]})"
    assert [str(b) for b in boxes] == ["[i?req]ff", loop, "[i?req]ff"]
    assert not falsified
    # the necessities after ff are still read
    boxes, falsified = necessities(parse_formula("[i?req]ff && ff && [i!ans]tt", dom))
    assert [str(b) for b in boxes] == ["[i?req]ff", "[i!ans]tt"] and falsified


@pytest.mark.parametrize(
    "text, error",
    [
        ("max X.X", "not guarded"),
        ("max X.(X && [i?req]ff)", "not guarded"),
        ("max X.max Y.([i?req]ff && X)", "not guarded"),
        ("[i?req]ff || [i!ans]ff", "not a safety operator"),
    ],
)
def test_necessities_reject_what_has_no_reading(dom, text, error):
    with pytest.raises(FormulaError, match=error):
        necessities(parse_formula(text, dom))


def test_necessities_reject_a_free_logical_variable(dom):
    box = parse_formula("[i?req]ff", dom)
    for f in (FVar("X"), Box(box.action, FVar("X"))):
        with pytest.raises(FormulaError, match="open in logical variables"):
            necessities(f)


def test_tau_closure_of_safety(dom):
    # if p satisfies a safety formula, so does every tau derivative
    for i in range(40):
        f = gen_formula(dom, 1 + (i % 6), 300 + i)
        p = gen_process(dom, 1 + (i % 8), 301 + i)
        lts = reachable(p, 500)
        sat_states = mc_eval(f, lts, {}, dom)
        for s in sat_states:
            for label, t in lts.steps(s):
                if label is TAU:
                    assert t in sat_states, (f, p)


def test_fixpoint_unfolding_preserves_denotation(dom, terms):
    phi1 = terms["phi1"]
    for p in (terms["pg"], terms["pb"]):
        lts = reachable(p, 100)
        assert mc_eval(phi1, lts, {}, dom) == mc_eval(unfold(phi1), lts, {}, dom)
    for i in range(25):
        f = gen_formula(dom, 4, 500 + i)
        if not isinstance(f, Max):
            continue
        p = gen_process(dom, 6, 501 + i)
        lts = reachable(p, 500)
        assert mc_eval(f, lts, {}, dom) == mc_eval(unfold(f), lts, {}, dom)


def test_possibility_modality(dom, terms):
    f = parse_formula("<i?req>tt", dom)
    assert satisfies(terms["pg"], f, dom)
    assert not satisfies(NIL, f, dom)


def test_least_fixpoint_termination_property(dom, terms):
    # min X.(<i?cls>tt || <(y)?(z)>X): some finite run reaches a close input
    f = parse_formula("min X.(<i?cls>tt || <(y)?(z)>X)", dom)
    assert satisfies(terms["pg"], f, dom)
    assert satisfies(terms["pb"], f, dom)
    loop = parse_process("rec X.i?req.X", dom)
    assert not satisfies(loop, f, dom)


def test_subst_data_freshens_a_binder_away_from_the_free_slot(dom):
    # renaming the captured binder y must not pick u, the pattern's free slot
    g = parse_formula("[(u)!(x)][(z)?(w)][u?(y) when y = x && z = w]ff", dom).body.body
    renamed = subst_data(g, {"x": Var("y")})
    assert str(renamed) == "[u?(v) when v = y && z = w]ff"
    assert free_data_vars(renamed) == {"u", "y", "z", "w"}


def test_subst_data_freshens_a_capturing_binder(dom, terms):
    # x is free in the body below [(x)!ans]; substituting the name y for it
    # renames the inner binder y instead of letting it capture the new y
    body = lambda text: parse_formula(text, dom).body
    renamed = subst_data(body("[(x)!ans][(y)?req when y != x]ff"), {"x": Var("y")})
    assert renamed == body("[(y)!ans][(z)?req when z != y]ff")
    by_hand = body("[(y)!ans][(w)?req when w != y]ff")
    captured = body("[(y)!ans][(y)?req when y != y]ff")
    systems = [reachable(p, 100) for p in (terms["pg"], parse_process("j?req.nil", dom))]
    differs = False
    for value in sorted(dom.values):
        close = {"y": Val(value)}
        for lts in systems:
            got = mc_eval(subst_data(renamed, close), lts, {}, dom)
            assert got == mc_eval(subst_data(by_hand, close), lts, {}, dom)
            differs |= got != mc_eval(subst_data(captured, close), lts, {}, dom)
    assert differs
