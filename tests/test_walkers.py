"""The binder-aware walkers of the term languages: recursion-variable
substitution, validation, keys up to binder names, what a term does next,
and the per-term facts and the map they run on; and every command on
guards far deeper or wider than the recursion limit."""
import os
import time

import pytest
from hypothesis import given, settings, strategies as st

from enfkit.formulas import (
    FF, Box, FAnd, FormulaError, FVar, Max, all_names, classify, free_data_vars,
    free_logic_vars, is_guarded, is_shml, necessities, subst_data, subst_logic,
)
from enfkit.bisim import bisim
from enfkit.harness import (
    Pair, check_nvtt, check_soundness, check_transparency, check_violation_semantics, gen_formula,
    gen_process,
)
from enfkit.modelcheck import ModelCheckError, sat_oracle, satisfies
from enfkit.normalizer import _renumber_binders, normalize, normalize_formula_patterns
from enfkit.parsing import load_specfile, parse_formula, parse_process, parse_transducer
from enfkit.processes import (
    NIL, Choice, Prefix, ProcessError, PVar, Rec, free_proc_vars, reachable, step, subst_proc,
    validate_process,
)
from enfkit.runtime import composite_lts, simulate
from enfkit.symbolic import (
    INSERT, TAU, TRUE, ActionPattern, Binder, BoundExceeded, Cmp, Free, Lit, SymbolicAction,
    Val, Var, heads, underline,
)
from enfkit.synthesis import compile_formula, optimize
from enfkit import symbolic, transducers
from enfkit.transducers import (
    ID, TPrefix, TRec, TSum, TVar, TransducerError, alpha_eq, free_rec_vars, subst_rec,
    transducer_lts, tstep, validate_transducer,
)

from conftest import act
from oracles import naive_step, naive_tstep

SPEC = os.path.join(os.path.dirname(__file__), "..", "specs", "server.spec")


# ---------------------------------------------------------------------------
# Recursion-variable substitution


def test_a_binder_of_the_substituted_name_stops_the_substitution(dom):
    f = parse_formula("max X.max Z.([i?req]X && max X.[i!ans]X)", dom).body.body
    assert str(subst_logic(f, "X", FF)) == "[i?req]ff && (max X.[i!ans]X)"
    loop = f.items[1]
    assert subst_logic(loop, "X", FF) is loop

    p = parse_process("rec X.(i?req.X + rec X.i!ans.X)", dom).body
    assert str(subst_proc(p, "X", NIL)) == "i?req.nil + (rec X.i!ans.X)"
    assert subst_proc(p.branches[1], "X", NIL) == p.branches[1]

    e = parse_transducer("rec x.({i?req}.x + rec x.{i!ans}.x)", dom).body
    assert str(subst_rec(e, "x", ID)) == "{i?req}.id + (rec x.{i!ans}.x)"
    assert subst_rec(e.branches[1], "x", ID) == e.branches[1]


def test_subst_logic_returns_untouched_subtrees_as_they_are(dom):
    f = parse_formula("max X.max Z.([i?req]X && [i?req]Z)", dom).body.body
    out = subst_logic(f, "X", FVar("W"))
    assert str(out) == "[i?req]W && [i?req]Z"
    assert out.items[1] is f.items[1]


def test_subst_logic_renames_a_binder_that_would_capture(dom):
    f = parse_formula("max X.max Y.[i?req](X && Y)", dom).body
    assert str(subst_logic(f, "X", FVar("Y"))) == "max Y'.[i?req](Y && Y')"


def test_rec_substitution_replaces_every_free_occurrence(dom):
    e = parse_transducer("rec x.{i?req}.({i!ans}.x + {j?req}.x)", dom)
    assert str(subst_rec(e.body, "x", TVar("z"))) == "{i?req}.({i!ans}.z + {j?req}.z)"
    p = parse_process("rec X.i?req.(i!ans.X + j?req.X)", dom)
    assert str(subst_proc(p.body, "X", PVar("Z"))) == "i?req.(i!ans.Z + j?req.Z)"


# ---------------------------------------------------------------------------
# Validation


def test_validation_rejects_terms_of_another_language(dom, terms):
    pg = terms["pg"]
    with pytest.raises(TransducerError):
        validate_transducer(NIL)
    with pytest.raises(TransducerError):
        composite_lts(pg, pg, dom)
    with pytest.raises(TransducerError):
        simulate(NIL, pg, 3, "first", dom)
    with pytest.raises(ProcessError):
        validate_process(ID)
    with pytest.raises(ProcessError):
        validate_process(Prefix("garbage", NIL))
    with pytest.raises(ProcessError):
        validate_process(Prefix(act("i?req"), Prefix("garbage", NIL)))


def test_validation_rejects_open_and_unguarded_terms(dom):
    e = parse_transducer("rec x.{(y)?req -> y!ans}.x", dom)
    with pytest.raises(TransducerError, match="unbound recursion variable 'x'"):
        validate_transducer(e.body)
    with pytest.raises(TransducerError, match=r"unbound data variables \['y'\]"):
        validate_transducer(parse_transducer("{(y)?req}.{y!ans}.id", dom).cont)
    with pytest.raises(TransducerError, match="'x' is not guarded"):
        validate_transducer(TRec("x", TSum((TVar("x"), ID))))
    with pytest.raises(ProcessError, match="'X' is not guarded"):
        validate_process(Rec("X", Choice((PVar("X"), NIL))))


def test_validation_names_the_first_free_variable_in_sorted_order():
    with pytest.raises(ProcessError, match="unbound recursion variable 'X'"):
        validate_process(Choice((Prefix(act("i?req"), PVar("Y")), Prefix(TAU, PVar("X")))))


def test_validation_is_linear_in_nested_distinct_binders():
    # quadratic when each binder copied the set of names in scope: seconds
    p = Prefix(act("i?req"), PVar("X0"))
    for k in reversed(range(10_000)):
        p = Rec(f"X{k}", p)
    start = time.perf_counter()
    validate_process(p)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# What a term does next: `step`, `tstep` and `necessities` read `heads`


def test_heads_unfold_binders_and_pass_sums_in_source_order(dom):
    f = parse_formula("(max X.([i?req]X && (ff && [i!ans]tt))) && [i?req]ff", dom)
    loop = f.items[0]
    assert heads(f, FormulaError) == [
        Box(loop.body.items[0].action, loop), FF, loop.body.items[1].items[1], f.items[1]
    ]
    req = Prefix(act("i?req"), NIL)
    p = Choice((req, Rec("X", Choice((req, NIL, PVar("Y"), Prefix(TAU, PVar("X")))))))
    assert heads(p, ProcessError) == [req, req, NIL, PVar("Y"), Prefix(TAU, p.branches[1])]


@pytest.mark.parametrize(
    "term, error",
    [
        (Max("X", FAnd((FVar("X"), FF))), FormulaError),
        (Max("X", Max("Y", FAnd((FF, FVar("X"))))), FormulaError),
        (Rec("X", Choice((NIL, PVar("X")))), ProcessError),
        (TRec("x", TRec("y", TSum((TVar("y"), ID)))), TransducerError),
    ],
)
def test_heads_reject_unguarded_recursion_in_each_language(term, error):
    with pytest.raises(error, match="fixpoint is not guarded"):
        heads(term, error)


def test_step_and_tstep_reject_unguarded_recursion(dom):
    with pytest.raises(ProcessError, match="not guarded"):
        step(Rec("X", Choice((NIL, PVar("X")))))
    with pytest.raises(TransducerError, match="not guarded"):
        tstep(TRec("x", TSum((ID, TVar("x")))), dom)


def _assert_steps_match_the_oracles(lts, next_moves, oracle):
    for state in lts.states:
        assert next_moves(state) == oracle(state), state


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 24), seed=st.integers(0, 10_000))
def test_step_matches_the_recursive_walk(dom, size, seed):
    lts = reachable(gen_process(dom, size, seed), 10_000)
    _assert_steps_match_the_oracles(lts, step, naive_step)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_tstep_matches_the_recursive_walk_on_compiled_enforcers(dom, size, seed):
    try:
        e = compile_formula(gen_formula(dom, size, seed), dom)
    except BoundExceeded:
        return
    lts = transducer_lts(e, dom)
    _assert_steps_match_the_oracles(lts, lambda t: tstep(t, dom), lambda t: naive_tstep(t, dom))


def test_tstep_matches_the_recursive_walk_on_the_server_enforcers():
    spec = load_specfile(SPEC)
    d = spec.domain
    assert any(gamma is INSERT for (gamma, _), _ in tstep(spec.transducers["ei"], d))
    for e in spec.transducers.values():
        lts = transducer_lts(e, d)
        _assert_steps_match_the_oracles(lts, lambda t: tstep(t, d), lambda t: naive_tstep(t, d))


# ---------------------------------------------------------------------------
# The satisfaction oracle's gate


def test_sat_oracle_rejects_a_data_open_formula(dom, terms):
    # x is free in [i?x]ff: the oracle refuses it with its own error instead
    # of failing to match the open slot
    open_box = parse_formula("[(x)?req][i?x]ff", dom).body
    assert str(open_box) == "[i?x]ff"
    with pytest.raises(ModelCheckError, match="formula must be closed"):
        sat_oracle(terms["pg"], open_box, dom)


# ---------------------------------------------------------------------------
# The fold and the map: each distinct subterm once, and no recursion limit.
# Terms are interned, so hashing or comparing a deep chain never recurses.

DEPTH = 10_000


def _chain(depth, leaf, wrap):
    """`wrap` applied `depth` times above `leaf`."""
    t = leaf
    for k in range(depth):
        t = wrap(t, k)
    return t


def _spine(t, field, depth):
    for _ in range(depth):
        t = getattr(t, field)
    return t


def _distinct_subterms(t):
    seen, stack = {}, [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(getattr(node, "items", ()))
            stack.extend(x for x in (getattr(node, "body", None),) if x is not None)
    return set(seen.values())


def test_each_fact_is_computed_once_per_distinct_subterm(monkeypatch):
    writes, store = [], symbolic._store

    def counted(t, slot, value):
        if len(writes) == most:  # fail fast, and print no term: its repr walks every path
            pytest.fail("a slot was filled twice", pytrace=False)
        writes.append((slot, id(t)))
        store(t, slot, value)

    monkeypatch.setattr(symbolic, "_store", counted)
    # max Once.([i?req]Once && [(x)!ans when x != j]Once), with its variable
    # unfolded 40 times: 2**40 paths as a tree.  The name is this test's own,
    # so no other test has filled these slots.
    req = SymbolicAction(ActionPattern(Lit("i"), True, Lit("req")), TRUE)
    ans = SymbolicAction(ActionPattern(Binder("x"), False, Lit("ans")), Cmp(Var("x"), Val("j"), False))
    body = lambda g: FAnd((Box(req, g), Box(ans, g)))
    g = Max("Once", body(FVar("Once")))
    for _ in range(40):
        g = body(g)
    assert not writes  # building a term computes no fact
    distinct = _distinct_subterms(g)
    most = len(symbolic.FACTS) * len(distinct)
    for _ in range(2):  # the second read finds every slot filled
        facts = free_logic_vars(g), free_data_vars(g), is_guarded(g), is_shml(g)
        assert facts == (frozenset(), frozenset(), True, True)
    for slot in symbolic.FACTS:  # each rule ran once at each distinct subterm
        written = [t for s, t in writes if s == slot]
        assert len(written) == len(set(written)) == len(distinct)
        assert set(written) == {id(t) for t in distinct}


def test_formula_walkers_pass_a_deep_chain(dom):
    differ = Cmp(Var("x"), Var("y"), False)
    bind = SymbolicAction(ActionPattern(Binder("x"), True, Binder("y")), differ)
    use = SymbolicAction(ActionPattern(Free("z"), False, Lit("ans")), TRUE)
    body = _chain(DEPTH, Box(use, FVar("X")), lambda t, k: Max("Y", Box(bind, t)))
    f = Max("X", Box(SymbolicAction(ActionPattern(Binder("z"), True, Lit("req")), TRUE), body))
    assert free_logic_vars(body) == {"X"} and free_data_vars(body) == {"z"}
    assert free_logic_vars(f) == free_data_vars(f) == frozenset()
    assert is_guarded(f) and is_shml(f)
    assert all_names(f) == {"X", "Y", "x", "y", "z", "ans", "req"}
    bottom = _spine(subst_logic(body, "X", FF), "body", 2 * DEPTH)
    assert bottom == Box(use, FF)
    bottom = _spine(subst_data(body, {"z": Val("i")}), "body", 2 * DEPTH)
    assert str(bottom) == "[i!ans]X"
    assert normalize_formula_patterns(f, dom).body.action.pattern.payload != Lit("req")
    renumbered = _renumber_binders(f)
    last = _spine(renumbered.body.body, "body", 2 * DEPTH - 2)
    assert renumbered.var == "X0" and last.var == f"X{DEPTH}"
    assert last.body.body == Box(use, FVar("X0"))


def test_process_walkers_pass_a_deep_chain(dom):
    chain = _chain(DEPTH, PVar("X"), lambda t, k: Prefix(act("i?req"), t))
    p = Rec("X", chain)
    assert free_proc_vars(chain) == {"X"} and free_proc_vars(p) == frozenset()
    validate_process(p)
    assert _spine(subst_proc(chain, "X", NIL), "cont", DEPTH) == NIL
    assert len(reachable(p, 2 * DEPTH)) == DEPTH


def test_transducer_walkers_pass_a_deep_chain(dom):
    source = ActionPattern(Binder("y"), True, Lit("req"))
    step = lambda t, k: TPrefix(source, Cmp(Var("y"), Var("z"), False), underline(source), t)
    chain = _chain(DEPTH, TRec("w", TVar("x")), step)
    outer = ActionPattern(Binder("z"), False, Lit("ans"))
    e = TRec("x", TPrefix(outer, TRUE, underline(outer), chain))
    assert free_rec_vars(chain) == {"x"} and transducers.free_data_vars(chain) == {"z"}
    validate_transducer(e)
    assert _spine(subst_rec(chain, "x", ID), "cont", DEPTH) == TRec("w", ID)
    closed = _spine(transducers.subst_data(chain, {"z": Val("i")}), "cont", DEPTH - 1)
    assert str(closed.condition) == "y != i"
    assert _spine(optimize(e).body, "cont", DEPTH + 1) == TVar("x")


def test_alpha_eq_passes_a_deep_chain():
    # the two chains differ only in the name of their recursion variable
    source = ActionPattern(Binder("v"), False, Lit("ans"))
    step = lambda t, k: TPrefix(source, Cmp(Var("v"), Val("i"), False), underline(source), t)
    under = lambda var: TRec(var, _chain(DEPTH, TVar(var), step))
    assert alpha_eq(under("x"), under("y"))


def test_steps_pass_a_deep_nest_of_sums(dom):
    # a sum inside a sum, DEPTH times, each level adding one prefix
    acts = dom.actions
    p = _chain(DEPTH, NIL, lambda t, k: Choice((Prefix(acts[k % len(acts)], NIL), t)))
    outermost_first = (acts[k % len(acts)] for k in reversed(range(DEPTH)))
    assert step(p) == [(a, NIL) for a in dict.fromkeys(outermost_first)]
    assert len(reachable(p, 2)) == 2
    e = _chain(DEPTH, ID, lambda t, k: TSum((TPrefix(*_suppress(acts[k % len(acts)]), ID), t)))
    assert len(tstep(e, dom)) == 2 * len(acts)
    box = parse_formula("[i?req]ff", dom)
    f = _chain(DEPTH, FF, lambda t, k: FAnd((box, t)))
    assert necessities(f) == ((box,) * DEPTH, True)


def _suppress(action):
    """The pattern, condition and target of a transform that suppresses
    `action`."""
    pattern = ActionPattern(Lit(action.port), action.is_input, Lit(action.payload))
    return pattern, TRUE, TAU


def test_classify_passes_a_deep_chain(dom):
    req = SymbolicAction(ActionPattern(Lit("i"), True, Lit("req")), TRUE)
    f = Max("Z", _chain(DEPTH, FVar("Z"), lambda t, k: Box(req, t)))
    assert all(classify(f, dom))


def test_two_builds_of_a_deep_chain_are_one_term():
    # nothing hashes the chain while it is built; the second build finds
    # each level of the first, so hash, == and alpha_eq take no recursion
    source = ActionPattern(Binder("v"), True, Lit("cls"))
    step = lambda t, k: TPrefix(source, TRUE, underline(source), t)
    build = lambda: TRec("x", _chain(DEPTH, TVar("x"), step))
    first, second = build(), build()
    assert second is first
    assert hash(second) == hash(first) and second == first
    assert alpha_eq(first, second)


def test_alpha_eq_of_two_deep_parses(dom):
    # each parse builds its own chain bottom-up, level by level
    text = "rec x." + "{i?req}." * 900 + "x"
    first, second = parse_transducer(text, dom), parse_transducer(text, dom)
    assert alpha_eq(first, second) and first is second


# Guards of DEPTH nested connectives, and one of 3000 conjoined disjunctions,
# each with the one-comparison guard it is equivalent to.  No condition
# walker recurses, so every command passes them under the default limit.
DEEP_GUARDS = {
    "negations": ("!" * DEPTH + "true", "true"),
    "conjunctions": ("(" * DEPTH + "x = i" + " && x = i)" * DEPTH, "x = i"),
    "disjunctions whose early alternatives are unsatisfiable": (
        " || (".join(["(x = j && x = i)"] * DEPTH) + " || x = i" + ")" * (DEPTH - 1), "x = i"
    ),
    "conjoined disjunctions": (" && ".join(["(x = i || x = j)"] * 3000), "x = i || x = j"),
}


@pytest.mark.parametrize("name", DEEP_GUARDS)
def test_every_command_passes_a_deep_guard(dom, name):
    guard, plain = DEEP_GUARDS[name]

    def formula(condition, var="X", binder="x"):
        condition = condition.replace("x = ", f"{binder} = ")
        return parse_formula(f"max {var}.[({binder})?req when {condition}]ff && [i!ans]{var}", dom)

    f, g = formula(guard), formula(plain)
    p = parse_process("rec X.(i?req.i!ans.X + j?req.X)", dom)
    nf = normalize(f, dom)
    e, e_plain = compile_formula(f, dom), compile_formula(g, dom)
    assert parse_formula(str(nf), dom) is nf
    assert satisfies(p, f, dom) == satisfies(p, g, dom) == False
    steps = lambda e: [(s.rule, s.label) for s in simulate(e, p, 8, "first", dom)]
    assert steps(e) == steps(e_plain)
    lts, lts_plain = transducer_lts(e, dom), transducer_lts(e_plain, dom)
    assert bisim(lts, lts.initial, lts_plain, lts_plain.initial)[0]
    # the same guard with its binder and fixpoint variable renamed
    renamed = compile_formula(formula(guard, "Y", "w"), dom)
    assert renamed is not e and alpha_eq(renamed, e)
    # the four checks give the plain guard's verdicts and witnesses
    verdicts = lambda f: [
        (v.outcome, v.witness)
        for v in (check_soundness(Pair(f, p, dom)), check_transparency(Pair(f, p, dom)),
                  check_nvtt(Pair(f, p, dom), 4), check_violation_semantics(Pair(f, p, dom), 4))
    ]
    assert verdicts(f) == verdicts(g)
