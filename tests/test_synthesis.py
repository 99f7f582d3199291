import hashlib
import os

import pytest
from hypothesis import given, settings, strategies as st

from enfkit.bisim import bisim
from enfkit.harness import Pair, check_soundness, gen_formula, make_corpus
from enfkit.normalizer import dump_stages, normalize
from enfkit.parsing import parse_formula, parse_transducer
from enfkit.symbolic import TAU, BoundExceeded, Domain, InsertPattern, underline
from enfkit.synthesis import (
    SynthesisError, _Names, _syn, compile_formula, normal_form, optimize, synthesize,
)
from enfkit.transducers import (
    ID,
    TPrefix,
    TRec,
    TSum,
    TVar,
    alpha_eq,
    transducer_lts,
)


def test_synthesize_truth_and_falsehood(dom):
    assert synthesize(parse_formula("tt", dom), dom) == ID
    assert synthesize(parse_formula("ff", dom), dom) == ID


def test_synthesize_suppression_branch(dom):
    out = synthesize(parse_formula("[(x)?req when x != j]ff", dom), dom)
    assert isinstance(out, TRec)
    branch = out.body
    assert isinstance(branch, TPrefix)
    assert branch.target is TAU
    assert branch.cont == TVar(out.var)


def test_synthesize_identity_branch_underlines_pattern(dom):
    out = synthesize(parse_formula("[(x)?req when x != j]tt", dom), dom)
    branch = out.body
    assert branch.target == underline(branch.pattern)
    assert branch.cont == ID


def test_synthesize_phi1_matches_worked_derivation(dom, terms):
    got = synthesize(terms["phi1"], dom)
    expected = parse_transducer(
        "rec x.rec z.{(v)?req when v != j}.rec y.({v!ans}.x + {v?req -> tau}.y)", dom
    )
    assert alpha_eq(got, expected)


def test_optimize_drops_unused_recursions(dom, terms):
    opt = optimize(synthesize(terms["phi1"], dom))
    assert alpha_eq(opt, terms["ess"])


def test_optimize_trivia(dom):
    assert optimize(ID) == ID
    loop = parse_transducer("rec x.{(y)?req -> tau}.x", dom)
    assert optimize(loop) == loop


def test_optimize_preserves_transducer_behaviour(dom, terms):
    for f in (terms["phi1"], terms["phi0"], parse_formula("[(x)?(y)]ff", dom)):
        raw = synthesize(f if f is not terms["phi1"] else terms["phi1"], dom)
        opt = optimize(raw)
        l1, l2 = transducer_lts(raw, dom), transducer_lts(opt, dom)
        equal, _ = bisim(l1, l1.initial, l2, l2.initial)
        assert equal


def test_compile_phi1_behaviourally_equals_ess(dom, terms):
    compiled = compile_formula(terms["phi1"], dom)
    assert alpha_eq(compiled, terms["ess"])
    l1, l2 = transducer_lts(compiled, dom), transducer_lts(terms["ess"], dom)
    equal, _ = bisim(l1, l1.initial, l2, l2.initial)
    assert equal


def test_compile_trivials(dom):
    assert compile_formula(parse_formula("tt", dom), dom) == ID


def test_compile_phi0_is_sound_on_pb(dom, terms):
    verdict = check_soundness(Pair(terms["phi0"], terms["pb"], dom))
    assert verdict.outcome == "pass"


def test_compile_rejects_non_safety(dom, terms):
    with pytest.raises(SynthesisError):
        compile_formula(terms["phins"], dom)
    with pytest.raises(SynthesisError):
        synthesize(terms["phins"], dom)


@pytest.mark.parametrize("text", ["max X.X", "max X.([i?req]ff && X)"])
def test_synthesize_refuses_an_unguarded_formula(dom, text):
    f = parse_formula(text, dom)
    for synthesise in (synthesize, compile_formula):
        with pytest.raises(SynthesisError, match="formula is not guarded"):
            synthesise(f, dom)


def _prefixes(e):
    if isinstance(e, TPrefix):
        yield e
        yield from _prefixes(e.cont)
    elif isinstance(e, TSum):
        for b in e.branches:
            yield from _prefixes(b)
    elif isinstance(e, TRec):
        yield from _prefixes(e.body)


@pytest.mark.parametrize("seed", range(30))
def test_synthesis_emits_only_suppression_and_identity(dom, seed):
    f = gen_formula(dom, 1 + (seed % 8), 7200 + seed)
    e = compile_formula(f, dom)
    for prefix in _prefixes(e):
        assert not isinstance(prefix.pattern, InsertPattern)
        if prefix.target is not TAU:
            assert prefix.target == underline(prefix.pattern)


@pytest.mark.parametrize("seed", range(12))
def test_synthesis_is_deterministic(dom, seed):
    f = gen_formula(dom, 1 + (seed % 8), 7300 + seed)
    nf = normalize(f, dom)
    assert synthesize(nf, dom) == synthesize(nf, dom)
    assert str(compile_formula(f, dom)) == str(compile_formula(f, dom))


def test_compile_deep_necessity_chain(dom):
    # 450 nested necessities stay within the default recursion limit
    f = parse_formula("max X." + "[i?req]" * 450 + "X", dom)
    e = compile_formula(f, dom)
    assert isinstance(e, TRec)
    # rec x.{i?req}. ... .{i?req}.x, walked without recursion
    node, depth = e.body, 0
    while isinstance(node, TPrefix):
        node, depth = node.cont, depth + 1
    assert depth == 450 and node == TVar(e.var)


LADDER_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "compile_ladder_2x3.txt")
LADDER_3X4_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "compile_ladder_3x4.txt")


def test_compile_ladder_matches_the_golden_file(dom):
    # one line per formula of the 2x3 domain: size, seed and the sha256 of
    # the printed enforcer
    with open(LADDER_GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = []
    for size in range(8, 21, 2):
        for seed in range(10):
            text = str(compile_formula(gen_formula(dom, size, seed), dom))
            got.append(f"{size} {seed} {hashlib.sha256(text.encode()).hexdigest()}")
    assert got == want


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_compile_ladder_3x4_matches_the_golden_file():
    # one line per formula of the 3x4 domain: size, seed, the sha256 of the
    # printed enforcer and the sha256 of the normaliser stages from stage 2
    # on.  Unlike the 2x3 ladder, these compiles freshen pattern binders
    # (`symbolic.avoid_capture`), e.g. gen_formula(3x4, 9, 36), so the file
    # pins the fresh names the normaliser picks.
    d = Domain({"i", "j", "k"}, {"req", "ans", "cls", "ack"})
    with open(LADDER_3X4_GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    got = []
    for size in range(8, 17):
        for seed in range(40):
            f = gen_formula(d, size, seed)
            stages = dump_stages(f, d)
            stages = stages[stages.index("stage 2 ("):]
            got.append(f"{size} {seed} {_sha(str(compile_formula(f, d)))} {_sha(stages)}")
    assert got == want


# ---------------------------------------------------------------------------
# compile_formula drops unused binders as it builds: optimize, run over the
# raw synthesis, is its oracle.  Terms are hash-consed, so equal is identical.

D23 = Domain({"i", "j"}, {"req", "ans", "cls"})
D34 = Domain({"i", "j", "k"}, {"req", "ans", "cls", "ack"})
DOMAINS = {"2x3": D23, "3x4": D34}


def _compiles_as_optimised(f, d):
    try:
        nf = normal_form(f, d)
    except BoundExceeded:  # the normaliser's safety bound, which compiles share
        with pytest.raises(BoundExceeded):
            compile_formula(f, d)
        return
    assert compile_formula(f, d) is optimize(synthesize(nf, d)), f


@settings(max_examples=80, deadline=None)
@given(dom=st.sampled_from(sorted(DOMAINS)), size=st.integers(1, 20), seed=st.integers(0, 10**6))
def test_compile_is_optimize_of_synthesize_on_seeded_formulas(dom, size, seed):
    _compiles_as_optimised(gen_formula(DOMAINS[dom], size, seed), DOMAINS[dom])


def test_compile_is_optimize_of_synthesize_on_the_ladders_and_a_corpus(dom):
    for size in range(8, 21, 2):
        for seed in range(10):
            _compiles_as_optimised(gen_formula(D23, size, seed), D23)
    for size in range(8, 17):
        for seed in range(40):
            _compiles_as_optimised(gen_formula(D34, size, seed), D34)
    for f, _ in make_corpus(dom, 200, 42):  # verify --corpus random:200:42
        _compiles_as_optimised(f, dom)


def test_an_inner_binder_of_the_same_name_keeps_no_outer_one_alive(dom):
    # not in normal form (the outer X is unused), so the pass is called as is
    f = parse_formula("max X.[i?req](max X.[i!ans]X)", dom)
    raw = _syn(f, _Names(), raw=True)
    assert str(raw) == "rec x.rec y.{i?req}.(rec x.rec y1.{i!ans}.x)"
    pruned = _syn(f, _Names(), raw=False)
    assert pruned is optimize(raw)
    assert str(pruned) == "{i?req}.(rec x.{i!ans}.x)"
    # an occurrence of the outer X before the inner binder keeps it
    f = parse_formula("max X.([i?req]X && [i!ans](max X.[j?req]X))", dom)
    pruned = _syn(f, _Names(), raw=False)
    assert pruned is optimize(_syn(f, _Names(), raw=True))
    assert str(pruned) == "rec x.{i?req}.x + {i!ans}.(rec x.{j?req}.x)"
