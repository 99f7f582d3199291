"""One table of the fast algorithms of `enfkit` against their slow oracles.

Each row of `ROWS` names the fast functions, their oracles (most in
`tests/oracles.py`), the relation checked (identity: the very term, as terms
are interned; equality; or the same verdict), its hypothesis budget on a
drawn family, and per input family the helper that checks it there.  Each
family is one test below, run once per row that lists it:

- `conditions`: conditions and guards drawn by `inputs.CONDITIONS` over
  four domains;
- `seeded_formulas`, `seeded_pairs`: drawn by `inputs.seeded_formulas`
  and `inputs.seeded_pairs`;
- `ladder`: the 430 formulas of the compile-ladder goldens;
- `corpus`: the pinned `random:200:<seed>` corpora of the seeds a row names;
- `large_pairs`: the 160 check-large pairs;
- `worked`: the worked server example;
- `sweep`: a fixed sweep of the row's own.

A new oracle adds a row here, over the families that exercise it.  Four
checks keep the tests they had before the table, each in the module of what
it checks: per-term facts per domain (tests/test_facts.py), the integer core
per pinned corpus (tests/test_numbered_lts.py), the parser on mutated texts
(tests/test_parsing.py) and `satisfiable` on drawn conditions
(tests/test_symbolic.py)."""
from collections import Counter, namedtuple
from functools import cache
from itertools import combinations, islice, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from enfkit import harness, symbolic
from enfkit.bisim import bisim, naive_bisim
from enfkit.formulas import Box
from enfkit.harness import (
    Pair, _trace_classes, _trace_text, check_nvtt, check_violation_semantics, gen_formula,
    gen_process, violates,
)
from enfkit.modelcheck import sat_oracle, satisfies, shortest_violation
from enfkit.normalizer import (
    EquationBoundExceeded, normalize, normalize_formula_patterns, stage5_powerset, stage6_rebuild,
)
from enfkit.parsing import parse_specfile, parse_transducer
from enfkit.processes import (
    NIL, Prefix, cached_step, reachable, step, tau_closure, trace_tree, traces, weak_moves,
    weak_trace_derivatives,
)
from enfkit.runtime import composite_lts, istep
from enfkit.symbolic import (
    INSERT, TAU, BoundExceeded, Val, Var, cond_key, disjoint_under, eval_condition, free_data_vars,
    pattern_key, satisfiable, subst_data,
)
from enfkit.synthesis import compile_formula, normal_form, optimize, synthesize
from enfkit.transducers import ID, transducer_lts, tstep

from inputs import (
    CONDITIONS, D23, VARS, check_large_spec, condition_domains, corpus, ladder_formulas,
    large_pairs, seeded_formulas, seeded_pairs, var_names, worked_terms,
)
from oracles import (
    _naive_cond_vars, assignments, depth_bounded_witness, descent_parse_specfile,
    descent_parse_transducer, in_order, method_str, naive_cond_key, naive_decide,
    naive_disjoint_under, naive_eval_condition, naive_istep, naive_normalize_formula_patterns,
    naive_satisfiable, naive_stage5_powerset, naive_stage6_rebuild, naive_step,
    naive_subst_condition, naive_tau_closure, naive_trace_classes, naive_tstep, naive_weak_moves,
    shallow_traces, trie_nvtt, trie_violation_semantics, union_bisim, values_sub, violating_traces,
)
from test_parsing import _agree, _pinned_enforcers, _seeded_texts
from test_powerset import _stage4

# conditions: the walkers and the guard solver against their recursive and
# enumerating oracles


def _condition_agrees(c, d, level, env, sub, values_subs, variables):
    """The walkers of `c`, keyed and substituted in the scope `level` and
    `env`, evaluated under each of `values_subs` and decided over
    `variables`, agree with their oracles."""
    assert free_data_vars(c) == _naive_cond_vars(c)
    assert cond_key(c, level, env) == naive_cond_key(c, level, env)
    assert subst_data(c, sub) is naive_subst_condition(c, sub)
    values = d.values
    want = naive_decide(c, lambda name: values)
    assert symbolic._decide(c, lambda name: values) == want
    assert satisfiable(c, free_data_vars(c), d) == want
    for assignment in values_subs:
        assert eval_condition(c, assignment) == naive_eval_condition(c, assignment)
    assert satisfiable(c, variables, d) == naive_satisfiable(c, variables, d)


def _drawn_condition(d, data):
    c = data.draw(CONDITIONS[d][0])
    bound = data.draw(st.lists(var_names, unique=True))
    level = len(bound) + data.draw(st.integers(0, 2))
    env = {name: k for k, name in enumerate(bound)}
    values = st.sampled_from(sorted(d.values))
    targets = st.one_of(st.builds(Var, var_names), st.builds(Val, values))
    sub = data.draw(st.dictionaries(var_names, targets))
    assignment = values_sub({v: data.draw(values) for v in VARS})
    variables = free_data_vars(c) | data.draw(st.sets(var_names))
    _condition_agrees(c, d, level, env, sub, [assignment], variables)


@cache
def _ladder_guards(formulas):
    """Each guard of the formulas and of the 2x3 ones' normal forms (the
    normaliser's minterm conditions), and each pair of guards of one
    conjunction, with the domain."""
    guards, pairs = {}, {}
    for d, f in formulas:
        for top in (f, normalize(f, d)) if d == D23 else (f,):
            for g in symbolic.subterms(top):
                action = getattr(g, "action", None)
                if action is not None:
                    guards[action, d] = None
                items = [b.action for b in getattr(g, "items", ()) if isinstance(b, Box)]
                pairs.update(((a, b, d), None) for a, b in combinations(items, 2))
    return list(guards), list(pairs)


def _ladder_conditions(formulas):
    # each guard's condition in the scope its pattern opens, under a few
    # assignments of its variables
    guards, _ = _ladder_guards(formulas)
    assert len(guards) > 1000
    for sa, d in guards:
        c = sa.condition
        _, level, env = pattern_key(sa.pattern, 0, {})
        sub = {name: Var("v") for name in sa.binders}
        sub.update({name: Val("i") for name in sa.free_vars})
        values_subs = map(values_sub, islice(assignments(free_data_vars(c), d), 20))
        _condition_agrees(c, d, level, env, sub, values_subs, free_data_vars(c))


def _drawn_guards(d, data):
    sa1, sa2 = data.draw(CONDITIONS[d][1]), data.draw(CONDITIONS[d][1])
    want = naive_disjoint_under(sa1, sa2, d)
    assert disjoint_under(sa1, sa2, d) == want
    assert disjoint_under(sa2, sa1, d) == want


def _ladder_guard_pairs(formulas):
    _, pairs = _ladder_guards(formulas)
    assert len(pairs) > 100
    for sa1, sa2, d in pairs:
        assert disjoint_under(sa1, sa2, d) == naive_disjoint_under(sa1, sa2, d)


# compile: `compile_formula` drops unused binders as it builds, and
# `optimize` of the raw synthesis is its oracle


def _compiles_as_optimised(d, f, data=None):
    try:
        nf = normal_form(f, d)
    except BoundExceeded:  # the normaliser's safety bound, which compiles share
        with pytest.raises(BoundExceeded):
            compile_formula(f, d)
        return
    assert compile_formula(f, d) is optimize(synthesize(nf, d)), f


# the normaliser: the pattern pre-pass, stage 5 and stage 6 against the
# copy-per-guard, align-and-split-every-state and rename-after oracles


def _same_as_the_oracles(d, f, data=None) -> int:
    """Checks that the pattern pre-pass, stage 5 (each on its own builder)
    and stage 6 give their oracles' results, and returns how many of the
    stage-5 states merge variables."""
    assert normalize_formula_patterns(f, d) is naive_normalize_formula_patterns(f, d), f
    try:
        fast = stage5_powerset(_stage4(f, d))
    except BoundExceeded:
        with pytest.raises(BoundExceeded):
            naive_stage5_powerset(_stage4(f, d))
        return 0
    slow = naive_stage5_powerset(_stage4(f, d))
    assert (fast.start, fast.order) == (slow.start, slow.order)
    assert list(fast.bodies.items()) == list(slow.bodies.items())
    try:
        rebuilt = naive_stage6_rebuild(fast)
    except EquationBoundExceeded:
        with pytest.raises(EquationBoundExceeded):
            stage6_rebuild(fast)
    else:
        assert stage6_rebuild(fast) is rebuilt, f
    return sum(isinstance(k, frozenset) and len(k) > 1 for k in fast.order)


def _stages_on_the_ladder(formulas):
    assert sum(_same_as_the_oracles(d, f) for d, f in formulas) > 0  # the slow path runs too


# what a term does next: `step` and `tstep` read `symbolic.heads`, the
# oracles walk each term by its own constructors


def _steps_agree(f, p, data):
    for state in reachable(p, 10_000).states:
        assert step(state) == naive_step(state), state


def _tsteps_of(e, d):
    for state in transducer_lts(e, d).states:
        assert tstep(state, d) == naive_tstep(state, d), state


def _tsteps_agree(d, f, data=None):
    try:
        e = compile_formula(f, d)
    except BoundExceeded:
        return
    _tsteps_of(e, d)


def _tsteps_of_the_worked_enforcers(terms):
    assert any(gamma is INSERT for (gamma, _), _ in tstep(terms["ei"], D23))
    for e in (ID, terms["ei"], terms["er"], terms["es"], terms["ess"]):
        _tsteps_of(e, D23)


# the integer core of an LTS: closures, weak moves, the trace search and
# bisimulation over state numbers and bitmasks, against the oracles that
# step the states themselves

DEPTH = 6


def _set_nvtt_witness(classes):
    """The nvtt witness read off the set-valued classes: the first
    non-violating class whose composite derivatives, projected to their
    system states, differ from the system's."""
    for t, (plain, composite, _, falsified) in classes:
        if falsified:
            continue
        projected = {cfg.system for cfg in composite}
        for verb, diff in (("loses", plain - projected), ("invents", projected - plain)):
            if diff:
                return f"trace {_trace_text(t)} {verb} derivative {sorted(map(str, diff))[0]}"
    return None


def _assert_agrees(f, p, data=None):
    """Closures, weak moves, trace classes and bisimilarity of one pair
    agree with the oracles; False when a bound cut the pair's derivations."""
    pair = Pair(f, p, D23)
    try:
        plts, comp = pair.system, pair.composite
    except BoundExceeded:
        return False
    for lts in (plts, comp):
        for s in lts.states:
            assert lts.decode(tau_closure(lts, s)) == naive_tau_closure(lts, s), s
    for composite in (comp, None):
        found = list(_trace_classes((plts, p), f, DEPTH, composite))
        want = naive_trace_classes((plts, p), f, DEPTH, composite)
        decoded = [
            (t, (plts.decode(p_set), frozenset() if composite is None else comp.decode(c_set),
                 frozenset((box, plts.decode(states)) for box, states in obligations), falsified))
            for t, (p_set, c_set, obligations, falsified) in found
        ]
        assert decoded == want, (f, p)
        if composite is not None:
            assert check_nvtt(pair, DEPTH).witness == _set_nvtt_witness(want), (f, p)
        for _, (p_set, c_set, obligations, _) in found:
            sets = [(plts, p_set), *((plts, states) for _, states in obligations)]
            for lts, mask in sets + ([(comp, c_set)] if composite is not None else []):
                moves = {label: lts.decode(m) for label, m in weak_moves(lts, mask).items()}
                assert moves == naive_weak_moves(lts, lts.decode(mask))
    assert bisim(comp, comp.initial, plts, p) == union_bisim(comp, comp.initial, plts, p), (f, p)
    return True


def _integer_core_on(pairs, least):
    compared = sum(_assert_agrees(f, p) for f, p in pairs)
    assert compared >= least, compared


# bisimulation: partition refinement against the naive fixpoint


def _bisim_on_small_processes():
    ps = [gen_process(D23, 1 + (i % 5), 4100 + i) for i in range(16)]
    small = [(reachable(p, 200), p) for p in ps]
    small = [(lts, p) for lts, p in small if len(lts) <= 5]
    assert len(small) >= 6
    for (l1, p1), (l2, p2) in product(small, repeat=2):
        assert bisim(l1, p1, l2, p2)[0] == naive_bisim(l1, p1, l2, p2)


def _bisim_on_composites(pairs):
    # each composite against its bare system, wherever the union is small
    # enough for the naive fixpoint
    compared = split = 0
    for f, p in pairs:
        plts = reachable(p, 200)
        comp = composite_lts(compile_formula(f, D23), (plts, p), D23)
        if len(comp) + len(plts) > 40:
            continue
        equal, witness = bisim(comp, comp.initial, plts, p)
        assert equal == naive_bisim(comp, comp.initial, plts, p), (f, p)
        compared += 1
        if not equal:
            split += 1
            roots = ((comp, comp.initial), (plts, p))
            performed = {str(label) for lts, s in roots for label, _ in lts.steps(s)}
            assert witness[0] in performed, (f, p, witness)
    assert compared >= 100 and split >= 10, (compared, split)


# satisfaction: the closure search against the denotation, and the
# soundness witness against the depth-bounded enumeration


def _closure_search_sweep():
    # at every state of the process, with and without a leading silent
    # step, at every state of its composite with the compiled enforcer, and
    # on nil; enough answers are False that the search's early exit runs
    answers = Counter()
    for i in range(60):
        f = gen_formula(D23, 1 + (i % 8), 900 + i)
        p = gen_process(D23, 1 + (i % 24), 901 + i)
        assert sat_oracle(p, f, D23) == satisfies(p, f, D23), (f, p)
        systems = [NIL]
        for q in (p, Prefix(TAU, p)):
            for lts in (reachable(q, 500), composite_lts(compile_formula(f, D23), q, D23, 500)):
                systems += [(lts, s) for s in lts.states]
        for system in systems:
            answer = sat_oracle(system, f, D23)
            assert answer == satisfies(system, f, D23), (f, p, system)
            answers[answer] += 1
    assert answers[False] >= 200 and answers[True] >= 200, answers


def _shortest_violation_sweep():
    # wrong enforcers over seeded processes: the search fails exactly the
    # composites that do not satisfy the formula, each witness violates the
    # formula there, and it is the enumerated witness when one lies within
    # the depth, else longer than the depth
    depth, terms = 2, worked_terms()
    fs = [terms["phi1"], terms["phi0"], *(gen_formula(D23, 12, s) for s in (15, 17, 25, 29, 39))]
    enforcers = [ID, terms["ei"], terms["er"], terms["es"], *(
        compile_formula(gen_formula(D23, 5, 60 + s), D23) for s in range(2))]
    within = Counter()
    for i in range(30):
        p = gen_process(D23, 6 + i % 24, 500 + i)
        for e in enforcers:
            comp = composite_lts(e, p, D23)
            system = (comp, comp.initial)
            for f in fs:
                witness = shortest_violation(system, f, D23)
                assert (witness is None) == satisfies(system, f, D23), (e, p, f)
                if witness is None:
                    continue
                assert violates(system, witness, f, D23), (e, p, f, witness)
                enumerated = depth_bounded_witness(system, f, D23, depth)
                if enumerated is None:
                    assert len(witness) > depth, (e, p, f, witness)
                else:
                    assert witness == enumerated, (e, p, f)
                within[enumerated is not None] += 1
    assert within[True] >= 20 and within[False] >= 5, within


# traces: the trie walk of the oracles against `violates`, the trace tree
# against `traces` and `weak_trace_derivatives`, and the trace criteria
# against the route that lists every trace


def _composite_or_skip(f, p):
    try:
        e = compile_formula(f, D23)
    except BoundExceeded:  # e.g. (10, 89) has 13 minterm conditions
        assume(False)
    return composite_lts(e, p, D23)


def _violating_traces_agree(f, p, data):
    # one walk over every candidate against one `violates` call per trace, on
    # the process and on its instrumented composite
    plts, comp = reachable(p, 500), _composite_or_skip(f, p)
    for system, (lts, state) in ((p, (plts, p)), ((comp, comp.initial), (comp, comp.initial))):
        found = traces(lts, state, 4)
        candidates = set(found) | set(shallow_traces(D23, 2))
        # sequences the system cannot perform: every trace extended by every
        # action, and a run of one action past the depth
        for t in in_order(found)[:6]:
            candidates.update(t + (a,) for a in D23.actions)
        candidates.add((D23.actions[0],) * 6)
        want = {t for t in candidates if violates(system, t, f, D23)}
        assert violating_traces(system, candidates, f, D23) == want
        # a set that is not prefix-closed: only candidates decide
        odd = {t for t in candidates if len(t) % 2}
        assert violating_traces(system, odd, f, D23) == {t for t in want if len(t) % 2}


def _trace_trees_agree(f, p, data):
    depth = data.draw(st.integers(0, 5), label="depth")
    comp = _composite_or_skip(f, p)
    for lts, state in ((reachable(p, 500), p), (comp, comp.initial)):
        tree = trace_tree(lts, state, depth)
        assert tree.keys() == traces(lts, state, depth)
        assert () in tree
        for t, derivatives in tree.items():
            assert derivatives == weak_trace_derivatives(lts, state, t)
            # the keys are exactly the performable sequences up to the depth
            assert derivatives
            if len(t) < depth:
                for a in D23.actions:
                    assert (t + (a,) in tree) == bool(weak_trace_derivatives(lts, state, t + (a,)))


def _trace_lines_agree(f, p, depth, enforcers, bound=harness.DEFAULT_BOUND) -> Counter:
    """Every verdict line of both trace criteria, under each enforcer, is the
    line of the route that lists every trace; the outcomes, counted."""
    outcomes = Counter()
    for e in enforcers:
        pair = Pair(f, p, D23, enforcer=e, bound=bound)
        v = check_nvtt(pair, depth)
        assert v.line() == trie_nvtt(pair, depth).line()
        outcomes["nvtt", v.outcome] += 1
    pair = Pair(f, p, D23, bound=bound)
    v = check_violation_semantics(pair, depth)
    assert v.line() == trie_violation_semantics(pair, depth).line()
    outcomes["violation-sem", v.outcome] += 1
    return outcomes


def _drawn_trace_lines(f, p, data):
    # under the compiled enforcer and under wrong ones
    depth = data.draw(st.integers(0, 6), label="depth")
    bound = data.draw(st.sampled_from([8, harness.DEFAULT_BOUND]), label="bound")
    try:
        other = compile_formula(gen_formula(D23, 5, data.draw(st.integers(1, 10_001))), D23)
    except BoundExceeded:
        other = ID
    terms = worked_terms()
    _trace_lines_agree(f, p, depth, (None, ID, terms["ei"], terms["er"], terms["es"], other), bound)


def _trace_lines_sweep():
    # a fixed sweep that makes both routes fail nvtt and leave violation
    # semantics inconclusive, not only pass
    terms = worked_terms()
    fs = [terms["phi1"], terms["phi0"], *(gen_formula(D23, 8, s) for s in range(6))]
    enforcers = [None, ID, terms["ei"], terms["er"], terms["es"]]
    outcomes = Counter()
    for i in range(24):
        p = gen_process(D23, 6 + i % 18, 700 + i)
        for f in fs:
            outcomes += _trace_lines_agree(f, p, i % 7, enforcers)
    assert outcomes["nvtt", "fail"] >= 100 and outcomes["nvtt", "pass"] >= 100, outcomes
    assert outcomes["violation-sem", "inconclusive"] >= 2, outcomes


# instrumentation: `istep` reads memoised transform tables, the oracle
# steps the enforcer afresh and scans every transform

#: Hand-written enforcers that insert, redirect and suppress; the last one
#: may insert at any state and has three transforms for i?req.
HAND_WRITTEN = (
    "ei", "er", "es", "ess",
    "rec x.({* -> j!ans}.x + {(y)?req -> tau}.x + {(y)?(z) -> j!ans}.x + {i?(z)}.id)",
)


def _isteps_agree(f, p, data):
    # at every configuration a composite reaches, the table lookups give the
    # list a fresh tstep and a scan give, in order; and composing over the
    # process's explored LTS gives the same composite as over its term
    terms = worked_terms()
    enforcers = [terms.get(e) or parse_transducer(e, D23) for e in HAND_WRITTEN]
    try:
        enforcers.append(compile_formula(f, D23))
    except BoundExceeded:
        pass
    plts = reachable(p, 10_000)
    for e in enforcers:
        comp = composite_lts(e, p, D23)
        for cfg in comp.states:
            assert istep(cfg, cached_step, D23) == naive_istep(cfg, step, D23), cfg
        over_lts = composite_lts(e, (plts, p), D23)
        assert over_lts.states == comp.states
        assert list(over_lts.transitions()) == list(comp.transitions())


# the parser against the recursive-descent oracle, and the printer against
# the per-class methods

def _parser_sweep():
    # the oracle's terms on seeded texts and pinned enforcers
    for new, old, d, text in _seeded_texts():
        assert _agree(new, old, text, d)
    for d, text in _pinned_enforcers():
        assert _agree(parse_transducer, descent_parse_transducer, text, d)


def _parser_on_the_large_pairs(pairs):
    for key in range(len(pairs)):
        assert _agree(parse_specfile, descent_parse_specfile, check_large_spec(key))


def _prints_as_the_methods(terms_and_texts, count):
    """Each term prints as the methods print it and as the text it was read
    from, if any; and there are `count` of them."""
    n = 0
    for n, (t, text) in enumerate(terms_and_texts, 1):
        assert str(t) == method_str(t)
        assert text is None or str(t) == text
    assert n == count


def _printer_sweep():
    _prints_as_the_methods(((new(text, d), text) for new, _, d, text in _seeded_texts()), 260)
    _prints_as_the_methods(((parse_transducer(text, d), text) for d, text in _pinned_enforcers()), 1560)


def _printer_on_the_large_pairs(pairs):
    def printed():
        for key in range(len(pairs)):
            spec, lines = parse_specfile(check_large_spec(key)), check_large_spec(key).splitlines()
            yield spec.formulas["f0"], lines[2].split(" = ", 1)[1]
            yield spec.processes["p0"], lines[3].split(" = ", 1)[1]

    _prints_as_the_methods(printed(), 320)


# the table


#: The fast functions, their oracles, the relation checked, the hypothesis
#: examples on a drawn family, and input family -> the helper that checks it.
Row = namedtuple("Row", "name fast oracle relation budget checks")


def row(name, fast, oracle, relation, budget=0, **checks):
    return Row(name, fast, oracle, relation, budget, checks)


ROWS = [
    row("condition walkers", "free_data_vars, cond_key, subst_data, _decide, satisfiable, eval_condition",
        "_naive_cond_vars and the naive_ walk of each", "equality; identity for subst_data", 300,
        conditions=_drawn_condition, ladder=_ladder_conditions),
    row("disjoint_under", "disjoint_under, both orders", "naive_disjoint_under", "same verdict", 200,
        conditions=_drawn_guards, ladder=_ladder_guard_pairs),
    row("compile", "compile_formula", "optimize(synthesize(normal_form(f)))", "identity", 80,
        seeded_formulas=_compiles_as_optimised,
        ladder=lambda formulas: [_compiles_as_optimised(d, f) for d, f in formulas],
        corpus=lambda: [_compiles_as_optimised(D23, f) for f, _ in corpus(42)]),
    row("normaliser stages", "normalize_formula_patterns, stage5_powerset, stage6_rebuild",
        "the naive_ of each", "identity; equality of the stage-5 systems", 80,
        seeded_formulas=_same_as_the_oracles, ladder=_stages_on_the_ladder,
        corpus=lambda: [_same_as_the_oracles(D23, f) for f, _ in corpus(42)]),
    row("tstep", "transducers.tstep", "naive_tstep", "equality", 40,
        seeded_formulas=_tsteps_agree, worked=_tsteps_of_the_worked_enforcers),
    row("step", "processes.step", "naive_step", "equality", 60, seeded_pairs=_steps_agree),
    row("istep", "runtime.istep over cached_step, composite_lts over an LTS",
        "naive_istep over step, composite_lts over the term", "equality", 60, seeded_pairs=_isteps_agree),
    row("integer core", "tau_closure, weak_moves, _trace_classes, check_nvtt's witness, bisim",
        "naive_tau_closure, naive_weak_moves, naive_trace_classes, _set_nvtt_witness, union_bisim",
        "equality", 40, seeded_pairs=_assert_agrees,
        large_pairs=lambda pairs: _integer_core_on(pairs, len(pairs)),
        worked=lambda terms: _integer_core_on(
            [(terms[f], terms[p]) for f, p in product(("phi0", "phi1"), ("pg", "pb", "reqnil"))], 6)),
    row("bisim", "bisim.bisim", "bisim.naive_bisim", "same verdict",
        sweep=_bisim_on_small_processes, corpus=lambda: _bisim_on_composites(corpus(42))),
    row("closure search", "modelcheck.sat_oracle", "modelcheck.satisfies", "same verdict",
        sweep=_closure_search_sweep),
    row("shortest violation", "modelcheck.shortest_violation", "depth_bounded_witness",
        "equality within the depth", sweep=_shortest_violation_sweep),
    row("violating traces", "violating_traces", "harness.violates per trace", "equality", 60,
        seeded_pairs=_violating_traces_agree),
    row("trace tree", "processes.trace_tree", "traces, weak_trace_derivatives", "equality", 60,
        seeded_pairs=_trace_trees_agree),
    row("trace criteria", "check_nvtt, check_violation_semantics", "trie_nvtt, trie_violation_semantics",
        "same verdict line", 60, seeded_pairs=_drawn_trace_lines, sweep=_trace_lines_sweep),
    row("parser", "parse_formula, parse_process, parse_transducer, parse_specfile", "descent_ of each",
        "identity, or the same error", sweep=_parser_sweep, large_pairs=_parser_on_the_large_pairs),
    row("printer", "str (symbolic.show)", "method_str", "equality",
        sweep=_printer_sweep,
        corpus=lambda: _prints_as_the_methods(((compile_formula(f, D23), None) for f, _ in corpus(42)), 200),
        large_pairs=_printer_on_the_large_pairs),
]


def rows(family):
    return [pytest.param(row, id=row.name) for row in ROWS if family in row.checks]


def _drawn(row, family, items):
    """The row's check on `items`, within its hypothesis budget."""
    check = row.checks[family]

    @settings(max_examples=row.budget, deadline=None)
    @given(item=items, data=st.data())
    def run(item, data):
        check(*item, data) if isinstance(item, tuple) else check(item, data)

    # one example database key per row, as hypothesis gives a parametrized test
    run.hypothesis.inner_test._hypothesis_internal_add_digest = f"{family}:{row.name}".encode()
    run()


@pytest.mark.parametrize("row", rows("conditions"))
def test_drawn_conditions(row):
    _drawn(row, "conditions", condition_domains)


@pytest.mark.parametrize("row", rows("seeded_formulas"))
def test_seeded_formulas(row):
    _drawn(row, "seeded_formulas", seeded_formulas)


@pytest.mark.parametrize("row", rows("seeded_pairs"))
def test_seeded_pairs(row):
    _drawn(row, "seeded_pairs", seeded_pairs)


@pytest.mark.parametrize("row", rows("ladder"))
def test_the_compile_ladder(row):
    row.checks["ladder"](ladder_formulas())


@pytest.mark.parametrize("row", rows("corpus"))
def test_the_pinned_corpora(row):
    row.checks["corpus"]()


@pytest.mark.parametrize("row", rows("large_pairs"))
def test_the_check_large_pairs(row):
    row.checks["large_pairs"](large_pairs())


@pytest.mark.parametrize("row", rows("worked"))
def test_the_worked_example(row):
    row.checks["worked"](worked_terms())


@pytest.mark.parametrize("row", rows("sweep"))
def test_a_sweep_of_its_own(row):
    row.checks["sweep"]()
