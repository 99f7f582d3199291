"""Alpha-equivalence of transducers: equality up to the names of recursion
variables and pattern binders, checked against strong bisimilarity; and
what `symbolic.AlphaKeys`, the key under it, equates in all three term
languages."""
import itertools

import pytest

from enfkit.bisim import bisim
from enfkit.formulas import Box, Max
from enfkit.harness import gen_formula
from enfkit.parsing import parse_formula, parse_process, parse_transducer
from enfkit.symbolic import (
    TAU,
    ActionPattern,
    AlphaKeys,
    Binder,
    Cmp,
    Domain,
    Free,
    Lit,
    Val,
    Var,
    underline,
)
from enfkit.synthesis import compile_formula
from enfkit.transducers import TPrefix, TRec, TSum, TVar, alpha_eq, transducer_lts, tstep

from oracles import naive_subst_condition as subst_condition

D22 = Domain({"i", "j"}, {"req", "ans"})


def bisimilar(e1, e2, d) -> bool:
    l1, l2 = transducer_lts(e1, d), transducer_lts(e2, d)
    return bisim(l1, l1.initial, l2, l2.initial)[0]


@pytest.mark.parametrize(
    "left, right",
    [
        # the inner binder y shadows the outer one on the right only
        (
            "{(x)?req}.{(y)?req when x = y -> tau}.id",
            "{(y)?req}.{(y)?req when y = y -> tau}.id",
        ),
        # the inner rec y shadows the outer one on the right only
        (
            "rec x.{i?req}.rec y.({i!ans}.x + {j!ans}.y)",
            "rec y.{i?req}.rec y.({i!ans}.y + {j!ans}.y)",
        ),
    ],
)
def test_shadowing_binders_are_not_alpha_equal(left, right):
    e1, e2 = parse_transducer(left, D22), parse_transducer(right, D22)
    assert not alpha_eq(e1, e2)
    assert not alpha_eq(e2, e1)
    assert not bisimilar(e1, e2, D22)


def test_shadowing_that_renames_consistently_is_alpha_equal():
    e1 = parse_transducer("rec x.{(x)?req}.rec y.({x!ans}.y + {x?req -> tau}.x)", D22)
    e2 = parse_transducer("rec y.{(y)?req}.rec x.({y!ans}.x + {y?req -> tau}.y)", D22)
    assert alpha_eq(e1, e2) and alpha_eq(e2, e1)
    assert not alpha_eq(e1, parse_transducer("rec y.{(y)?req}.rec y.({y!ans}.y + {y?req -> tau}.y)", D22))


def test_free_names_and_literals_do_not_rename(dom):
    assert not alpha_eq(TVar("x"), TVar("y"))
    assert alpha_eq(TVar("x"), TVar("x"))
    e1 = parse_transducer("{(x)?req -> i?req}.id", dom)
    e2 = parse_transducer("{(x)?req -> j?req}.id", dom)
    assert not alpha_eq(e1, e2)
    # a target slot keyed inside its source pattern's scope
    assert alpha_eq(e1, parse_transducer("{(z)?req -> i?req}.id", dom))
    assert not alpha_eq(
        parse_transducer("{(x)?(y) -> x!ans}.id", dom),
        parse_transducer("{(x)?(y) -> y!ans}.id", dom),
    )


def _rename(e, rec_name, data_name):
    """Rename every recursion variable and pattern binder of `e` through the
    name choosers, keeping each use tied to its binder."""

    def slot(s, dmap):
        return Free(dmap.get(s.name, s.name)) if isinstance(s, Free) else s

    def pattern(p, dmap):
        if not isinstance(p, ActionPattern):
            return p, dmap
        inner = dict(dmap)
        slots = []
        for s in (p.port, p.payload):
            if isinstance(s, Binder):
                inner[s.name] = data_name()
                slots.append(Binder(inner[s.name]))
            else:
                slots.append(slot(s, dmap))
        return ActionPattern(slots[0], p.is_input, slots[1]), inner

    def go(t, rmap, dmap):
        if isinstance(t, TVar):
            return TVar(rmap.get(t.name, t.name))
        if isinstance(t, TSum):
            return TSum(tuple(go(b, rmap, dmap) for b in t.branches))
        if isinstance(t, TRec):
            new = rec_name()
            return TRec(new, go(t.body, {**rmap, t.var: new}, dmap))
        if isinstance(t, TPrefix):
            source, inner = pattern(t.pattern, dmap)
            ren = {old: Var(new) for old, new in inner.items()}
            target = t.target
            if target is not TAU:
                target = ActionPattern(slot(target.port, inner), target.is_input, slot(target.payload, inner))
            return TPrefix(source, subst_condition(t.condition, ren), target, go(t.cont, rmap, inner))
        return t

    return go(e, {}, {})


def _fresh(prefix):
    counter = itertools.count()
    return lambda: f"{prefix}{next(counter)}"


def _pool(dom, size, seed, limit=12):
    """A compiled enforcer and the continuations `tstep` reaches from it
    (unfolding leaves shadowed recursion variables behind)."""
    start = compile_formula(gen_formula(dom, size, seed), dom)
    seen, queue = [start], [start]
    while queue and len(seen) < limit:
        for _, cont in tstep(queue.pop(0), dom):
            if cont not in seen and len(seen) < limit:
                seen.append(cont)
                queue.append(cont)
    return seen


CASES = [(size, seed) for size in (4, 6, 8, 10) for seed in range(6)]


@pytest.mark.parametrize("size, seed", CASES)
def test_consistent_renaming_is_alpha_equal(dom, size, seed):
    for e in _pool(dom, size, seed):
        renamed = _rename(e, _fresh("r"), _fresh("d"))
        assert alpha_eq(e, renamed) and alpha_eq(renamed, e), (e, renamed)


@pytest.mark.parametrize("size, seed", CASES)
def test_alpha_eq_is_symmetric_and_implies_bisimilarity(dom, size, seed):
    pool = []
    for e in _pool(dom, size, seed):
        # one name for every recursion variable: a variant that captures a
        # use is not alpha-equal to `e`, one that does not capture is
        pool += [e, _rename(e, lambda: "x", _fresh("d"))]
    for a, b in itertools.combinations(pool, 2):
        assert alpha_eq(a, b) == alpha_eq(b, a), (a, b)
        if alpha_eq(a, b):
            assert bisimilar(a, b, dom), (a, b)


# ---------------------------------------------------------------------------
# The key up to binder names, in every term language


def test_alpha_keys_equate_renamed_binders(dom):
    keys = AlphaKeys()
    f, p = (lambda text: parse_formula(text, dom)), (lambda text: parse_process(text, dom))
    assert keys(f("[(x)?req][x!ans]ff")) == keys(f("[(y)?req][y!ans]ff"))
    assert keys(f("max X.[i?req]X")) == keys(f("max Y.[i?req]Y"))
    assert keys(p("rec X.i?req.X")) == keys(p("rec Y.i?req.Y"))


@pytest.mark.parametrize(
    "left, right",
    [
        ("[i?req]ff", "<i?req>ff"),
        ("[i?req]ff && [i!ans]ff", "[i?req]ff || [i!ans]ff"),
        ("max X.[i?req]X", "min X.[i?req]X"),
        # the inner binder shadows the outer one on the right only
        ("[(x)?req][(y)?req when x = y]ff", "[(y)?req][(y)?req when y = y]ff"),
        ("max X.[i?req](max Y.[i!ans]X)", "max Y.[i?req](max Y.[i!ans]Y)"),
    ],
)
def test_alpha_keys_separate_near_misses(dom, left, right):
    keys = AlphaKeys()
    assert keys(parse_formula(left, dom)) != keys(parse_formula(right, dom))


def test_alpha_keys_separate_free_from_bound_names(dom):
    keys = AlphaKeys()
    bound = parse_formula("[(x)?req][x!ans]ff", dom)
    free = Box(parse_formula("[(y)?req]ff", dom).action, bound.body)  # [(y)?req][x!ans]ff
    assert keys(bound) != keys(free)
    loop = parse_formula("max X.[i?req]X", dom)
    assert keys(loop) != keys(Max("Y", loop.body))  # max Y.[i?req]X
    # a process label is keyed as it is
    assert keys(parse_process("i?req.nil", dom)) != keys(parse_process("i!ans.nil", dom))


def test_alpha_eq_keys_each_shared_subterm_once():
    def nested(rec, binder):
        source = ActionPattern(Binder(binder), True, Lit("req"))
        t = TPrefix(source, Cmp(Var(binder), Val("i"), True), underline(source), TVar(rec))
        for _ in range(40):  # 2**40 paths as a tree
            t = TSum((t, t))
        return TRec(rec, t)

    left, right = nested("x", "y"), nested("z", "w")
    assert alpha_eq(left, right)
    keys = AlphaKeys()
    assert keys(left) == keys(right)
    # one handle per distinct subterm: the variable, the prefix, 40 sums, the rec
    assert len(keys) == 43
