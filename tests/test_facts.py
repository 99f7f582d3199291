"""Per-term facts, kept in slots on the terms: free recursion and data
variables, guardedness and the safety fragment, and the normal-form check
that reads them; and the variables of a condition, its `free_data_vars`.
On every distinct subterm of hand-written terms and of generated ones over
both ladder domains they agree with the plain recursive references in
`tests/oracles.py`, whichever order filled the slots."""
import random

import pytest

from enfkit import symbolic
from enfkit.formulas import Box, Max, is_shml, is_shmlnf, subst_data, unfold
from enfkit.harness import gen_formula, gen_process
from enfkit.parsing import parse_formula
from enfkit.processes import NIL, Choice, Prefix, PVar, Rec
from enfkit.symbolic import (
    FALSE, TAU, TRUE, Action, ActionPattern, And, Binder, Cmp, Free, Lit, Not, Or, Val, Var,
)
from enfkit.synthesis import compile_formula
from enfkit.transducers import ID, TPrefix, TRec, TSum, TVar

from inputs import D23, DOMAINS
from oracles import (
    _naive_cond_vars, naive_free_data_vars, naive_free_rec_vars, naive_is_shml, naive_is_shmlnf,
    naive_kids, naive_unguarded,
)

#: the largest generated formula size per domain
LARGEST = {"2x3": 24, "3x4": 16}
SEEDS = range(10)


def _facts(t, d):
    return (
        symbolic.free_rec_vars(t), symbolic.free_data_vars(t), symbolic.unguarded(t),
        is_shml(t), is_shmlnf(t, d),
    )


def _naive_facts(t, d):
    return (
        naive_free_rec_vars(t), naive_free_data_vars(t), naive_unguarded(t),
        naive_is_shml(t), naive_is_shmlnf(t, d),
    )


def _post_order(t, kids=naive_kids) -> list:
    """The distinct subterms of `t`, each after all of its own."""
    out, seen, stack = [], set(), [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            out.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((k, False) for k in reversed(kids(node)))
    return out


def _forget(nodes):
    """Empty every fact slot, as a newly built term has them."""
    for node in nodes:
        for slot in symbolic.FACTS:
            object.__setattr__(node, slot, symbolic._MISSING)


def _assert_facts_match_the_reference(terms, d):
    rng = random.Random(0)
    for t in terms:
        nodes = _post_order(t)
        expected = [_naive_facts(n, d) for n in nodes]
        # the root first (one walk fills every slot), the subterms first
        # (each walk stops at filled subterms), and a shuffled order
        for order in (nodes[::-1], nodes, rng.sample(nodes, len(nodes))):
            _forget(nodes)
            for node in order:
                _facts(node, d)
            assert [_facts(n, d) for n in nodes] == expected, t


def _formulas(name):
    d, largest = DOMAINS[name], LARGEST[name]
    return [gen_formula(d, 1 + (3 * seed + size) % largest, seed) for seed in SEEDS for size in (4, 11)]


def _enforcers(name):
    d = DOMAINS[name]
    return [compile_formula(gen_formula(d, 1 + seed % 10, seed), d) for seed in SEEDS]


@pytest.mark.parametrize("name", DOMAINS)
def test_facts_of_generated_formulas_match_the_reference(name):
    _assert_facts_match_the_reference(_formulas(name), DOMAINS[name])


@pytest.mark.parametrize("name", DOMAINS)
def test_facts_of_generated_processes_match_the_reference(name):
    d = DOMAINS[name]
    _assert_facts_match_the_reference([gen_process(d, 1 + (7 * seed) % 40, seed) for seed in SEEDS], d)


@pytest.mark.parametrize("name", DOMAINS)
def test_facts_of_compiled_enforcers_match_the_reference(name):
    _assert_facts_match_the_reference(_enforcers(name), DOMAINS[name])


@pytest.mark.parametrize("name", DOMAINS)
def test_facts_of_fixpoint_unfoldings_match_the_reference(name):
    # inner fixpoints are open, and so are their unfoldings
    fixpoints = [n for f in _formulas(name) for n in _post_order(f) if isinstance(n, Max)]
    assert len(fixpoints) >= 10
    _assert_facts_match_the_reference([unfold(m) for m in fixpoints], DOMAINS[name])


@pytest.mark.parametrize("name", DOMAINS)
def test_facts_of_data_substitutions_match_the_reference(name):
    # each open subterm closed by values, and renamed onto one variable,
    # which a binder of that name must be freshened to avoid capturing
    d = DOMAINS[name]
    value, results = sorted(d.values)[0], []
    for g in (n for t in _formulas(name) for n in _post_order(t) if naive_free_data_vars(n)):
        free = naive_free_data_vars(g)
        results.append(subst_data(g, {v: Val(value) for v in free}))
        results.append(subst_data(g, {v: Var("x") for v in free}))
    assert len(results) >= 20
    _assert_facts_match_the_reference(results, d)


def test_facts_of_open_unguarded_and_unsafe_terms_match_the_reference():
    d = D23
    formulas = [
        parse_formula(text, d)
        for text in (
            "max X.X",
            "max X.max Y.[i?req]X && Y",
            "<(x)?req>[x!ans]ff",
            "[(x)?req]ff || min X.[i!ans]X",
            "max X.[(x)?req](<x!ans>X && max Y.Y)",
            "max X.[i?req]X && max Y.Y && max Z.Z",
            "(max X.X) && (max Y.Y)",
            "[(x)?req]([x!ans]ff && [x!ans]ff)",
            "max X.[i?req]ff",
        )
    ]
    req = Action("i", True, "req")
    processes = [
        Rec("X", Choice((PVar("X"), Prefix(req, NIL)))),
        Rec("X", Prefix(TAU, Rec("Y", Choice((PVar("Y"), PVar("X")))))),
        Choice((PVar("Z"), Prefix(req, PVar("Y")))),
        Choice((Rec("X", PVar("X")), Rec("Y", PVar("Y")))),
    ]
    source = ActionPattern(Binder("y"), True, Lit("req"))
    bound = ActionPattern(Free("y"), False, Lit("ans"))
    transducers = [
        TRec("x", TSum((TVar("x"), TPrefix(source, TRUE, TAU, ID)))),
        TPrefix(source, TRUE, bound, TRec("z", TPrefix(bound, TRUE, TAU, TVar("x")))),
    ]
    _assert_facts_match_the_reference([*formulas, *processes, *transducers], d)


@pytest.mark.parametrize("name", DOMAINS)
def test_condition_variables_match_the_reference(name):
    # the guards of generated formulas and of compiled enforcers (the
    # normaliser's minterm conditions), and nested connectives
    terms = _formulas(name) + _enforcers(name)
    guards = [n for t in terms for n in _post_order(t) if isinstance(n, (Box, TPrefix))]
    conditions = [getattr(g, "action", g).condition for g in guards]
    x, y, i = Var("x"), Var("y"), Val("i")
    nested = Or((Not(And((Cmp(x, y, False), Cmp(y, i, True)))), Not(Not(Cmp(Var("z"), x, True))), FALSE))
    conditions += [nested, And((nested, TRUE, Cmp(i, Var("w"), False))), Not(nested)]
    # the distinct subconditions, each after its own, and then their conjunction
    kids = lambda c: getattr(c, "items", None) or ((c.item,) if isinstance(c, Not) else ())
    nodes = _post_order(And(tuple(conditions)), kids)[:-1]
    assert len(nodes) > 50 and any(isinstance(n, Not) for n in nodes)
    expected = [_naive_cond_vars(n) for n in nodes]
    rng = random.Random(0)
    for order in (nodes[::-1], nodes, rng.sample(nodes, len(nodes))):
        _forget(nodes)
        for node in order:
            symbolic.free_data_vars(node)
        assert [symbolic.free_data_vars(n) for n in nodes] == expected
