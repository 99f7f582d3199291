import hashlib
import os

import pytest

from enfkit.cli import main
from enfkit.formulas import Box, FF, Max, TT, classify
from enfkit.harness import gen_formula, gen_process
from enfkit.modelcheck import mc_eval
from enfkit.normalizer import (
    MintermBlowup,
    NormalizeError,
    dump_stages,
    normalize,
    normalize_formula_patterns,
    stage2_equations,
    stage3_align,
    stage4_minterms,
    stage5_powerset,
    stage6_rebuild,
)
from enfkit.parsing import parse_formula
from enfkit.processes import reachable
from enfkit.symbolic import And, Cmp, Not, Val, Var


def test_stage2_worked_example(dom):
    f = parse_formula("max X.([i?req]X && [i!ans]ff)", dom)
    eqs = stage2_equations(f, dom)
    assert eqs.pretty() == "X0 = [i?req]X0 && [i!ans]X1\nX1 = ff"


def test_stage2_trivials(dom):
    assert stage2_equations(TT, dom).pretty() == "X0 = tt"
    eqs = stage2_equations(parse_formula("[i?req]tt", dom), dom)
    assert eqs.pretty() == "X0 = [i?req]X1\nX1 = tt"


def test_stage3_alignment_renames_to_first_branch(dom):
    f = parse_formula("[(x1)?(x2) when x1 = i]ff && [(x3)?(x4) when x4 = req]tt", dom)
    eqs = stage3_align(stage2_equations(f, dom))
    body = eqs.body(eqs.start)
    pats = [b.action.pattern for b in body]
    assert pats[0] == pats[1]
    assert pats[0].binders == {"x1", "x2"}
    # the renamed condition follows the new binder names
    assert body[1].action.condition == Cmp(Var("x2"), Val("req"), True)


def test_stage3_leaves_single_branches_alone(dom):
    f = parse_formula("[(x)?(y) when x = i]ff", dom)
    eqs = stage3_align(stage2_equations(f, dom))
    body = eqs.body(eqs.start)
    assert body[0].action.pattern.binders == {"x", "y"}


def test_stage3_aligns_only_same_direction(dom):
    f = parse_formula("[(x1)?(x2)]ff && [(x3)!(x4)]ff", dom)
    eqs = stage3_align(stage2_equations(f, dom))
    body = eqs.body(eqs.start)
    assert body[0].action.pattern.is_input != body[1].action.pattern.is_input
    assert body[1].action.pattern.binders == {"x3", "x4"}


def test_stage4_worked_example(dom):
    # two branches on one pattern with overlapping conditions c1, c3
    f = parse_formula("[(x)?(y) when x != j]tt && [(x)?(y) when y = req]ff", dom)
    eqs = stage4_minterms(stage3_align(stage2_equations(f, dom)))
    body = eqs.body(eqs.start)
    c1 = Cmp(Var("x"), Val("j"), False)
    c3 = Cmp(Var("y"), Val("req"), True)
    got = [(b.action.condition, b.target) for b in body]
    t_tt, t_ff = got[0][1], got[1][1]
    assert got == [
        (And((c1, c3)), t_tt),
        (And((c1, c3)), t_ff),
        (And((c1, Not(c3))), t_tt),
        (And((Not(c1), c3)), t_ff),
    ]


def test_stage4_single_condition_unchanged(dom):
    f = parse_formula("[(x)?(y) when x != j]ff", dom)
    eqs = stage4_minterms(stage3_align(stage2_equations(f, dom)))
    body = eqs.body(eqs.start)
    assert [b.action.condition for b in body] == [Cmp(Var("x"), Val("j"), False)]
    trivial = parse_formula("[(x)?(y)]ff", dom)
    eqs = stage4_minterms(stage3_align(stage2_equations(trivial, dom)))
    assert eqs.body(eqs.start) == stage3_align(
        stage2_equations(trivial, dom)
    ).body(eqs.start)


def test_stage4_unsatisfiable_minterm_dropped(dom):
    f = parse_formula("[(x)?(y) when x != j]tt && [(x)?(y) when x = j]ff", dom)
    eqs = stage4_minterms(stage3_align(stage2_equations(f, dom)))
    conds = [b.action.condition for b in eqs.body(eqs.start)]
    # the joint cell x != j && x = j is unsatisfiable and disappears
    assert conds == [Cmp(Var("x"), Val("j"), False), Cmp(Var("x"), Val("j"), True)]


def test_stage4_blowup_guard(dom):
    parts = [f"[(x)?(y) when x = {v}]tt" for v in ("i", "j")]
    # 13 distinct conditions on one pattern exceed the bound
    names = ["i", "j"] * 7
    branches = " && ".join(
        f"[(x)?(y) when {' && '.join(f'x != {n}' for n in names[: k + 1])}]tt" for k in range(13)
    )
    f = parse_formula(branches, dom)
    with pytest.raises(MintermBlowup):
        stage4_minterms(stage3_align(stage2_equations(f, dom)))


def test_stage5_worked_example(dom):
    f = parse_formula("max X.([(x)?(y) when x != j]X && [(x)?(y) when y = req]ff)", dom)
    eqs = stage4_minterms(stage3_align(stage2_equations(f, dom)))
    power = stage5_powerset(eqs)
    # the overlap cell now has a single branch to the unified {loop, ff} set,
    # which is absorbed to ff by its ff member
    body = power.body(power.start)
    targets = [b.target for b in body]
    assert frozenset((0, 1)) in targets or any(len(t) == 2 for t in targets)
    merged = [t for t in targets if len(t) == 2][0]
    assert power.body(merged) == "ff"


def test_stage5_absorbs_ff_members(dom):
    f = parse_formula("max X.([(x)?req]X && [(x)?req]ff)", dom)
    nf = normalize(f, dom)
    assert isinstance(nf, Box)
    assert nf.body == FF


def test_stage6_back_edge_and_leaf(dom):
    f = parse_formula("max X.[i?req]X", dom)
    power = stage5_powerset(
        stage4_minterms(stage3_align(stage2_equations(f, dom)))
    )
    out = stage6_rebuild(power)
    assert isinstance(out, Max)
    assert str(out.body.body) == out.var
    assert stage6_rebuild(stage5_powerset(stage4_minterms(
        stage3_align(stage2_equations(TT, dom))
    ))) == TT


def test_normalize_phi1(dom, terms):
    nf = normalize(terms["phi1"], dom)
    assert classify(nf, dom).shmlnf
    for name in ("pg", "pb"):
        lts = reachable(terms[name], 100)
        assert mc_eval(terms["phi1"], lts, {}, dom) == mc_eval(nf, lts, {}, dom)


def test_normalize_trivials(dom):
    assert normalize(TT, dom) == TT
    assert normalize(FF, dom) == FF


def test_normalize_overlapping_guards_to_guarded_ff(dom):
    f = parse_formula("max X.([(x)?req when x != j]X && [(x)?req when x != j]ff)", dom)
    nf = normalize(f, dom)
    assert isinstance(nf, Box) and nf.body == FF
    corpus = [gen_process(dom, 1 + (i % 5), 70 + i) for i in range(12)]
    for p in corpus:
        lts = reachable(p, 200)
        assert mc_eval(f, lts, {}, dom) == mc_eval(nf, lts, {}, dom)


def test_normalize_rejects_bad_inputs(dom, terms):
    with pytest.raises(NormalizeError):
        normalize(terms["phins"], dom)  # disjunction: not safety
    from enfkit.formulas import FVar, Max

    with pytest.raises(NormalizeError):
        normalize(Max("X", FVar("X")), dom)  # unguarded
    with pytest.raises(NormalizeError):
        normalize(FVar("X"), dom)  # open


def test_normalize_unfolds_a_long_binder_nest(dom, tmp_path, capsys):
    # a guarded formula unfolds at most once per leading binder, so no bound
    # on the unfolding chain is needed, and the CLI prints the normal form
    text = "".join(f"max X{k}." for k in range(10_001)) + "[i?req]X0"
    nf = "max X0.[(y)?(z) when y = i && z = req]X0"
    assert str(normalize(parse_formula(text, dom), dom)) == nf
    spec = tmp_path / "nest.spec"
    spec.write_text(f"ports = {{i, j}}\npayloads = {{req, ans, cls}}\nformula f = {text}\n")
    assert main(["--spec", str(spec), "normalize", "f"]) == 0
    assert capsys.readouterr() == (f"{nf}\n", "")


@pytest.mark.parametrize("seed", range(0, 40))
def test_normalize_equivalence_and_structure(dom, seed):
    f = gen_formula(dom, 1 + (seed % 8), 1000 + seed)
    nf = normalize(f, dom)
    assert classify(nf, dom).shmlnf, f
    for i in range(4):
        p = gen_process(dom, 1 + ((seed + i) % 9), 2000 + seed * 4 + i)
        lts = reachable(p, 500)
        assert mc_eval(f, lts, {}, dom) == mc_eval(nf, lts, {}, dom), (f, nf, p)


@pytest.mark.parametrize("seed", range(0, 25))
def test_normalize_idempotent(dom, seed):
    f = gen_formula(dom, 1 + (seed % 8), 5000 + seed)
    n1 = normalize(f, dom)
    assert str(normalize(n1, dom)) == str(n1)


def test_dump_stages_is_printable(dom, terms):
    text = dump_stages(terms["phi1"], dom)
    for marker in ["stage 1", "stage 2", "stage 3", "stage 4", "stage 5", "stage 6"]:
        assert marker in text


def test_dump_stages_stage1_is_what_stage2_reads(dom, terms):
    f = terms["phi1"]
    prepared = normalize_formula_patterns(f, dom)
    sections = dump_stages(f, dom).split("\n\n")
    assert sections[0].splitlines()[1:] == [str(prepared)]
    assert sections[1] == "stage 2 (equations):\n" + stage2_equations(prepared, dom).pretty()


def test_dump_stages_prints_nested_fixpoints_without_unfolding(dom):
    # seven nested fixpoints, each used under every deeper one: the one-step
    # unfolding prints as some 15.8M characters, stage 1 as about 1.5k
    body = "ff"
    for k in reversed(range(7)):
        uses = " && ".join(f"[i?req]X{m}" for m in range(k + 1))
        body = f"max X{k}.([j?req]{body} && {uses})"
    f = parse_formula(body, dom)
    stage1 = dump_stages(f, dom).split("\n\n")[0]
    assert stage1.splitlines()[1:] == [str(normalize_formula_patterns(f, dom))]


def test_dump_stages_ends_in_the_normal_form(dom):
    # the stage-6 section prints what `normalize` returns, binder names too
    for size in range(1, 17):
        for seed in range(40):
            f = gen_formula(dom, size, seed)
            last = dump_stages(f, dom).split("\n\n")[-1]
            assert last == "stage 6 (rebuilt formula):\n" + str(normalize(f, dom)), (size, seed)


NORMALIZE_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "normalize_2x3.txt")


def test_normalize_matches_the_golden_file(dom):
    # one line per formula of the 2x3 domain: size, seed, the sha256 of the
    # printed normal form and that of `dump_stages` from stage 2 on
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    with open(NORMALIZE_GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = []
    for size in range(1, 17):
        for seed in range(10):
            f = gen_formula(dom, size, seed)
            stages = dump_stages(f, dom)
            stages = stages[stages.index("stage 2"):]
            got.append(f"{size} {seed} {digest(str(normalize(f, dom)))} {digest(stages)}")
    assert got == want
