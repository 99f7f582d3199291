"""Conditions on the term engine: their variables are the `free_data_vars`
fact, substitution into them is `subst_data`, `eval_condition` and
`cond_key` are bottom-up walks on an explicit stack, and the guard solver
searches on an explicit stack over the condition itself.  Each agrees with
its recursive oracle in `tests/oracles.py`, and satisfiability with
enumerating every assignment, on drawn conditions and on every guard of the
compile-ladder goldens' inputs."""
from itertools import combinations, islice

from hypothesis import given, settings, strategies as st

from enfkit import symbolic
from enfkit.formulas import Box
from enfkit.harness import gen_formula
from enfkit.normalizer import normalize
from enfkit.symbolic import (
    FALSE, TRUE, And, Cmp, Domain, Not, Or, Val, Var, cond_key, disjoint_under, eval_condition,
    free_data_vars, pattern_key, satisfiable, subst_data,
)

from oracles import (
    _naive_cond_vars, assignments, naive_cond_key, naive_decide, naive_disjoint_under,
    naive_eval_condition, naive_satisfiable, naive_subst_condition, values_sub,
)

D23 = Domain({"i", "j"}, {"req", "ans", "cls"})
D34 = Domain({"i", "j", "k"}, {"req", "ans", "cls", "ack"})
# ports and payloads share the name a; with one name, any x != y is false
SHARED = Domain({"a"}, {"a", "b"})
VARS = ("x", "y", "z")
var_names = st.sampled_from(VARS)


def _not_chain(c, n):
    for _ in range(n):
        c = Not(c)
    return c


def conditions(d):
    """Conditions over x, y, z, the domain's names and one name the domain
    does not declare, with nested negations, conjunctions and disjunctions."""
    names = st.sampled_from(sorted(d.values) + ["zz"])
    terms = st.one_of(st.builds(Var, var_names), st.builds(Val, names))
    atoms = st.one_of(st.builds(Cmp, terms, terms, st.booleans()), st.sampled_from([TRUE, FALSE]))
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(And, st.lists(inner, max_size=4).map(tuple)),
            st.builds(Or, st.lists(inner, max_size=4).map(tuple)),
            st.builds(_not_chain, inner, st.integers(1, 3)),
        ),
        max_leaves=16,
    )


CONDITIONS = {d: conditions(d) for d in (D23, D34, SHARED)}
domains = st.sampled_from([D23, D34, SHARED])


def _agrees_with_the_oracles(c, d, level, env, sub):
    assert free_data_vars(c) == _naive_cond_vars(c)
    assert cond_key(c, level, env) == naive_cond_key(c, level, env)
    assert subst_data(c, sub) is naive_subst_condition(c, sub)
    values = d.values
    want = naive_decide(c, lambda name: values)
    assert symbolic._decide(c, lambda name: values) == want
    assert satisfiable(c, free_data_vars(c), d) == want


@settings(deadline=None, max_examples=300)
@given(d=domains, data=st.data())
def test_condition_walkers_agree_with_the_recursive_oracles(d, data):
    c = data.draw(CONDITIONS[d])
    bound = data.draw(st.lists(var_names, unique=True))
    level = len(bound) + data.draw(st.integers(0, 2))
    env = {name: k for k, name in enumerate(bound)}
    values = st.sampled_from(sorted(d.values))
    targets = st.one_of(st.builds(Var, var_names), st.builds(Val, values))
    sub = data.draw(st.dictionaries(var_names, targets))
    _agrees_with_the_oracles(c, d, level, env, sub)
    assignment = values_sub({v: data.draw(values) for v in VARS})
    assert eval_condition(c, assignment) == naive_eval_condition(c, assignment)
    variables = free_data_vars(c) | data.draw(st.sets(var_names))
    assert satisfiable(c, variables, d) == naive_satisfiable(c, variables, d)


def test_the_solver_flips_polarity_and_branches_on_disjunctions():
    x, y, i = Var("x"), Var("y"), Val("i")
    either = (Cmp(x, i, True), Cmp(x, i, False))
    assert not satisfiable(Not(Or(either)), {"x"}, D23)
    assert satisfiable(Not(And(either)), {"x"}, D23)
    assert satisfiable(Not(Not(Or(either))), {"x"}, D23)
    assert satisfiable(Or((Cmp(x, i, True), Cmp(x, Val("j"), True))), {"x"}, D23)
    assert not satisfiable(And((Cmp(x, y, False), Not(Not(Cmp(x, y, True))))), {"x", "y"}, D23)


def _ladder_formulas():
    """The inputs of the two compile-ladder goldens, and the normal forms of
    the 2x3 ones, whose guards are the normaliser's minterm conditions."""
    for size in range(8, 21, 2):
        for seed in range(10):
            f = gen_formula(D23, size, seed)
            yield D23, f
            yield D23, normalize(f, D23)
    for size in range(8, 17):
        for seed in range(40):
            yield D34, gen_formula(D34, size, seed)


def test_condition_walkers_agree_on_the_compile_ladder_guards():
    # each guard's condition keyed and substituted in the scope its pattern
    # opens, evaluated under a few assignments of its variables, and decided;
    # and each pair of guards of one conjunction decided disjoint or not
    guards, pairs = {}, {}
    for d, f in _ladder_formulas():
        for g in symbolic.subterms(f):
            action = getattr(g, "action", None)
            if action is not None:
                guards[action, d] = None
            items = [b.action for b in getattr(g, "items", ()) if isinstance(b, Box)]
            pairs.update(((a, b, d), None) for a, b in combinations(items, 2))
    assert len(guards) > 1000 and len(pairs) > 100
    for (sa, d) in guards:
        c = sa.condition
        _, level, env = pattern_key(sa.pattern, 0, {})
        sub = {name: Var("v") for name in sa.binders}
        sub.update({name: Val("i") for name in sa.free_vars})
        _agrees_with_the_oracles(c, d, level, env, sub)
        for assignment in map(values_sub, islice(assignments(free_data_vars(c), d), 20)):
            assert eval_condition(c, assignment) == naive_eval_condition(c, assignment)
        assert satisfiable(c, free_data_vars(c), d) == naive_satisfiable(c, free_data_vars(c), d)
    for sa1, sa2, d in pairs:
        assert disjoint_under(sa1, sa2, d) == naive_disjoint_under(sa1, sa2, d)
