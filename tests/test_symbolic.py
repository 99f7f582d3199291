import pytest
from hypothesis import assume, given, settings, strategies as st

from enfkit.symbolic import (
    INSERT,
    Action,
    ActionPattern,
    Binder,
    Cmp,
    Domain,
    FALSE,
    Free,
    InsertPattern,
    KEYWORDS,
    Lit,
    And,
    Not,
    SymbolicAction,
    SymbolicError,
    TRUE,
    UnboundVariable,
    Val,
    Var,
    cond_key,
    denote,
    disjoint,
    disjoint_under,
    eval_condition,
    free_data_vars,
    match,
    normalize_pattern,
    pattern_key,
    satisfiable,
    term_key,
    underline,
)

from inputs import CONDITIONS, D23, D34, SHARED, condition_domains, var_names
from oracles import denote_under, naive_disjoint_under, naive_satisfiable, values_sub

D = D23

IREQ = Action("i", True, "req")
IANS = Action("i", False, "ans")


def pat(port, is_input, payload):
    return ActionPattern(port, is_input, payload)


# ---------------------------------------------------------------------------
# match


def test_match_binder_binds_port():
    assert match(pat(Binder("x"), True, Lit("req")), IREQ) == {"x": Val("i")}


def test_match_literals_empty_substitution():
    assert match(pat(Lit("i"), True, Lit("req")), IREQ) == {}


def test_match_direction_mismatch():
    assert match(pat(Binder("x"), True, Lit("req")), Action("i", False, "req")) is None


def test_match_insert_marker():
    assert match(InsertPattern(), INSERT) == {}
    assert match(InsertPattern(), IREQ) is None
    assert match(pat(Binder("x"), True, Lit("req")), INSERT) is None


def test_match_reconstructs_action():
    # applying the returned substitution to the binders reproduces the action
    p = pat(Binder("x"), True, Binder("y"))
    for a in D.actions:
        sub = match(p, a)
        if sub is None:
            continue
        assert sub["x"] == Val(a.port) and sub["y"] == Val(a.payload)


@pytest.mark.parametrize("name", sorted(KEYWORDS))
def test_domain_rejects_keywords(name):
    # a term naming the value could not be parsed back
    with pytest.raises(SymbolicError, match="keyword"):
        Domain({"i", name}, {"req"})
    with pytest.raises(SymbolicError, match="keyword"):
        Domain({"i"}, {"req", name})


@pytest.mark.parametrize("name", ["é", "réq"])
def test_domain_rejects_names_the_tokenizer_cannot_read(name):
    # a term naming the value could not be parsed back
    with pytest.raises(SymbolicError, match="ASCII identifier"):
        Domain({"i", name}, {"req"})
    with pytest.raises(SymbolicError, match="ASCII identifier"):
        Domain({"i"}, {"req", name})


def test_binder_keys_count_distance_and_keep_free_names():
    p = pat(Binder("y"), True, Free("x"))
    pkey, level, env = pattern_key(p, 1, {"x": 0})
    # the free slot names the outer x, one binder out; the binder opens level 1
    assert pkey == (True, None, 1) and level == 2 and env == {"x": 0, "y": 1}
    assert cond_key(Cmp(Var("y"), Var("z"), True), level, env) == ("=", 1, "z")
    assert cond_key(Cmp(Var("x"), Var("z"), True), level, env) == ("=", 2, "z")
    assert term_key(Val("x"), level, env) != term_key(Var("x"), 0, {})
    a = SymbolicAction(pat(Binder("x"), True, Lit("req")), Cmp(Var("x"), Val("j"), False))
    b = SymbolicAction(pat(Binder("y"), True, Lit("req")), Cmp(Var("y"), Val("j"), False))

    def key(sa):
        k, level, env = pattern_key(sa.pattern, 0, {})
        return k, cond_key(sa.condition, level, env)

    assert key(a) == key(b)
    assert pattern_key(InsertPattern(), 3, {})[0] != pattern_key(p, 3, {})[0]


def test_double_binder_rejected():
    with pytest.raises(SymbolicError):
        pat(Binder("x"), True, Binder("x"))


def test_a_binder_name_cannot_name_the_other_slot():
    # a name is either a binder or a free slot of one pattern
    for port, payload in ((Binder("x"), Free("x")), (Free("x"), Binder("x"))):
        with pytest.raises(SymbolicError):
            pat(port, True, payload)
    assert pat(Free("x"), True, Free("x")).free_vars == {"x"}


def test_disjoint_under_reads_a_repeated_free_slot_as_one_outer_variable():
    d = Domain({"i", "j"}, {"i", "req"})
    same = SymbolicAction(pat(Free("x"), True, Free("x")), TRUE)
    on_i = SymbolicAction(pat(Lit("i"), True, Binder("y")), TRUE)
    on_j = SymbolicAction(pat(Lit("j"), True, Binder("y")), TRUE)
    # x?x meets i?(y) for x = i; no payload is named j
    assert not disjoint_under(same, on_i, d) and disjoint_under(same, on_j, d)
    for other in (on_i, on_j):
        assert disjoint_under(same, other, d) == naive_disjoint_under(same, other, d)


# ---------------------------------------------------------------------------
# eval


def test_eval_examples():
    assert eval_condition(Cmp(Var("x"), Val("j"), equal=False), values_sub({"x": "i"}))
    assert eval_condition(TRUE, {})
    both = And((Cmp(Var("x"), Val("j"), True), Cmp(Var("y"), Val("ans"), True)))
    assert not eval_condition(both, values_sub({"x": "i", "y": "ans"}))


def test_eval_unbound_errors():
    from enfkit.symbolic import UnboundVariable

    with pytest.raises(UnboundVariable):
        eval_condition(Cmp(Var("x"), Val("j"), True), {})


# ---------------------------------------------------------------------------
# denote / satisfiable / disjoint


def test_denote_filters_by_condition():
    sa = SymbolicAction(pat(Binder("x"), True, Lit("req")), Cmp(Var("x"), Val("j"), False))
    assert denote(sa, D) == frozenset({IREQ})


def test_denote_concrete_action():
    sa = SymbolicAction(pat(Lit("i"), True, Lit("req")), TRUE)
    assert denote(sa, D) == frozenset({IREQ})


def test_denote_unsatisfiable():
    sa = SymbolicAction(pat(Binder("x"), True, Binder("y")), FALSE)
    assert denote(sa, D) == frozenset()


def test_satisfiable_examples():
    neq = Cmp(Var("x"), Val("j"), False)
    assert satisfiable(neq, {"x"}, D)
    assert not satisfiable(And((neq, Cmp(Var("x"), Val("j"), True))), {"x"}, D)
    assert satisfiable(TRUE, set(), D)


def test_disjoint_examples():
    in_req = SymbolicAction(pat(Binder("x"), True, Lit("req")), Cmp(Var("x"), Val("j"), False))
    out_ans = SymbolicAction(pat(Binder("x"), False, Lit("ans")), TRUE)
    any_req = SymbolicAction(pat(Binder("x"), True, Lit("req")), TRUE)
    i_req = SymbolicAction(pat(Lit("i"), True, Lit("req")), TRUE)
    eq_i = SymbolicAction(pat(Binder("x"), True, Lit("req")), Cmp(Var("x"), Val("i"), True))
    neq_i = SymbolicAction(pat(Binder("x"), True, Lit("req")), Cmp(Var("x"), Val("i"), False))
    assert disjoint(in_req, out_ans, D)
    assert not disjoint(any_req, i_req, D)
    assert disjoint(eq_i, neq_i, D)


def test_disjoint_symmetric_and_self():
    sa = SymbolicAction(pat(Binder("x"), True, Lit("req")), Cmp(Var("x"), Val("j"), False))
    empty = SymbolicAction(pat(Binder("x"), True, Binder("y")), FALSE)
    other = SymbolicAction(pat(Binder("x"), False, Binder("y")), TRUE)
    assert disjoint(sa, other, D) == disjoint(other, sa, D)
    assert disjoint(empty, empty, D)
    assert not disjoint(sa, sa, D)


def test_satisfiable_agrees_with_denotation_on_shared_namespace():
    # over a domain where ports and payloads coincide, a condition on the two
    # slots is satisfiable exactly when the all-binder pattern denotes something
    shared = Domain({"a", "b"}, {"a", "b"})
    conds = [
        TRUE,
        FALSE,
        Cmp(Var("x"), Val("a"), True),
        Cmp(Var("x"), Var("y"), False),
        And((Cmp(Var("x"), Val("a"), True), Cmp(Var("y"), Val("a"), False))),
        And((Cmp(Var("x"), Val("a"), True), Cmp(Var("x"), Val("b"), True))),
    ]
    for c in conds:
        sa = SymbolicAction(pat(Binder("x"), True, Binder("y")), c)
        assert satisfiable(c, {"x", "y"}, shared) == bool(denote(sa, shared))


# ---------------------------------------------------------------------------
# normalize_pattern / underline


def test_normalize_pattern_free_port_literal_payload():
    # <x!ans when x != j>  ->  <(y)!(z) when x != j && y = x && z = ans>
    sa = SymbolicAction(pat(Free("x"), False, Lit("ans")), Cmp(Var("x"), Val("j"), False))
    out = normalize_pattern(sa)
    assert out.pattern == pat(Binder("y"), False, Binder("z"))
    assert out.condition == And(
        (
            Cmp(Var("x"), Val("j"), False),
            Cmp(Var("y"), Var("x"), True),
            Cmp(Var("z"), Val("ans"), True),
        )
    )


def test_normalize_pattern_already_normal():
    sa = SymbolicAction(pat(Binder("x"), True, Binder("y")), TRUE)
    assert normalize_pattern(sa) is sa


def test_normalize_pattern_literals():
    sa = SymbolicAction(pat(Lit("i"), True, Lit("req")), TRUE)
    out = normalize_pattern(sa)
    assert out.pattern.binders == {"y", "z"}
    assert denote(out, D) == denote(sa, D) == frozenset({IREQ})


def test_normalize_pattern_preserves_denotation_under_env():
    sa = SymbolicAction(pat(Free("x"), False, Lit("ans")), Cmp(Var("x"), Val("j"), False))
    out = normalize_pattern(sa)
    for v in sorted(D.values):
        assert denote_under(sa, D, {"x": v}) == denote_under(out, D, {"x": v})


def test_underline():
    assert underline(pat(Binder("x"), True, Lit("req"))) == pat(Free("x"), True, Lit("req"))
    p = pat(Lit("i"), True, Lit("req"))
    assert underline(p) == p
    assert underline(pat(Binder("x"), False, Binder("y"))) == pat(Free("x"), False, Free("y"))
    with pytest.raises(SymbolicError):
        underline(InsertPattern())


# ---------------------------------------------------------------------------
# properties, on the shared guards over the 2x3 domain


@given(sa=CONDITIONS[D23][1])
def test_normalize_pattern_denotation_property(sa):
    if sa.is_closed():
        assert denote(normalize_pattern(sa), D) == denote(sa, D)


@given(sa=CONDITIONS[D23][1])
def test_match_substitution_domain_property(sa):
    assume(not sa.pattern.free_vars)
    for a in D.actions:
        sub = match(sa.pattern, a)
        if sub is not None:
            assert set(sub) == sa.pattern.binders


# ---------------------------------------------------------------------------
# the equality-class solver; its agreement with the enumerating oracles is
# checked here on drawn conditions, and in the `condition walkers` and
# `disjoint_under` rows of tests/test_oracles.py


@settings(deadline=None, max_examples=200)
@given(d=condition_domains, data=st.data())
def test_satisfiable_agrees_with_enumeration(d, data):
    c = data.draw(CONDITIONS[d][0])
    variables = free_data_vars(c) | data.draw(st.sets(var_names))
    assert satisfiable(c, variables, d) == naive_satisfiable(c, variables, d)


def test_satisfiable_needs_distinct_values():
    # pairwise distinct variables: only the colouring step sees the conflict
    x, y, z = Var("x"), Var("y"), Var("z")
    c = And((Cmp(x, y, False), Cmp(y, z, False), Cmp(x, z, False)))
    assert not satisfiable(c, {"x", "y", "z"}, SHARED)
    assert satisfiable(c, {"x", "y", "z"}, D)
    assert not satisfiable(Cmp(x, Val("zz"), True), {"x"}, D)
    assert satisfiable(Not(Cmp(x, Val("zz"), True)), {"x"}, D)


def test_satisfiable_rejects_undeclared_variables():
    c = Cmp(Var("x"), Val("i"), True)
    for decide in (satisfiable, naive_satisfiable):
        with pytest.raises(UnboundVariable):
            decide(c, set(), D)


def test_disjoint_under_renames_binders_apart():
    # (x) binds the port in the first guard; x is an outer variable in the
    # second, so the guards overlap where the outer x is the bound port
    bound = SymbolicAction(pat(Binder("x"), True, Lit("req")), Cmp(Var("x"), Val("i"), True))
    outer = SymbolicAction(pat(Free("x"), True, Binder("y")), Cmp(Var("y"), Val("req"), True))
    assert not disjoint_under(bound, outer, D)
    assert disjoint_under(bound, SymbolicAction(outer.pattern, FALSE), D)
    # the slot variables differ in range: a port is never the payload b
    port_b = SymbolicAction(pat(Binder("x"), True, Binder("y")), Cmp(Var("x"), Val("b"), True))
    assert disjoint_under(port_b, SymbolicAction(pat(Lit("a"), True, Lit("a")), TRUE), SHARED)
    # no port of D is neither i nor j: only the colouring step sees it
    not_i = SymbolicAction(pat(Binder("x"), True, Lit("req")), Cmp(Var("x"), Val("i"), False))
    not_j = SymbolicAction(pat(Free("y"), True, Binder("z")), Cmp(Var("y"), Val("j"), False))
    assert disjoint_under(not_i, not_j, D)
    assert not disjoint_under(not_i, not_j, D34)
    any_a = SymbolicAction(pat(Binder("x"), True, Binder("y")), Cmp(Var("y"), Val("a"), True))
    assert not disjoint_under(any_a, SymbolicAction(pat(Lit("a"), True, Lit("a")), TRUE), SHARED)
