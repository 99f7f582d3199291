"""Slow test oracles for the fast algorithms of `enfkit`.

`satisfiable` and `disjoint_under` decide their queries by an equality-class
search; the functions here decide the same queries by trying every
assignment of the variables into the domain's value universe.

`runtime.istep` reads memoised transform tables indexed by action;
`naive_istep` steps the enforcer afresh with `tstep` and scans every
transform for each system move.

`processes.step` and `transducers.tstep` read `symbolic.heads`;
`naive_step` and `naive_tstep` walk the term recursively by its own
constructors instead.

`modelcheck.shortest_violation` names a soundness witness from the search
that decides satisfaction; `depth_bounded_witness` enumerates every trace of
the system up to a depth and keeps the first violating one.

`harness.check_nvtt` and `harness.check_violation_semantics` read one search
that keeps a trace per class of derivative sets and open obligations;
`trie_nvtt` and `trie_violation_semantics` list every trace of the trace
trees instead, and decide violation for all of them with `violating_traces`,
one walk over the prefix trie of the candidates.

Terms are interned, so their `==` is identity; `structurally_equal`
compares two terms field by field instead.
"""
import dataclasses
from itertools import product
from typing import Mapping

from enfkit.formulas import necessities
from enfkit.harness import BOUND_ERRORS, DEFAULT_BOUND, Verdict, _require_safety, _trace_text
from enfkit.processes import (
    Choice, Prefix, ProcessError, PVar, Rec, as_lts, subst_proc, trace_tree, traces, weak_step,
)
from enfkit.runtime import Config
from enfkit.symbolic import (
    INSERT,
    TAU,
    Condition,
    Domain,
    SymbolicAction,
    UnboundVariable,
    Val,
    cond_vars,
    denote,
    disjoint,
    eval_condition,
    match,
    subst_condition,
    subst_data,
    subst_pattern,
    sym_match,
)
from enfkit.transducers import (
    ID, TId, TPrefix, TRec, TSum, TVar, TransducerError, _instantiate_target, subst_rec, tstep,
)


def structurally_equal(a, b) -> bool:
    """Whether two values are equal field by field: terms of one class with
    equal fields, tuples of equal items, or other values that are `==`.  It
    reads `dataclasses.fields` on an explicit stack, so it never calls a
    term's own `==` or hash and takes terms of any depth."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if dataclasses.is_dataclass(x):
            stack.extend((getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
        elif type(x) is tuple:
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def values_sub(assignment: Mapping[str, str]) -> dict:
    return {k: Val(v) for k, v in assignment.items()}


def denote_under(sa: SymbolicAction, d: Domain, env: Mapping[str, str]) -> frozenset:
    """Denotation of a possibly open symbolic action, closing it with env."""
    sub = {k: v for k, v in values_sub(env).items() if k not in sa.binders}
    closed = SymbolicAction(subst_pattern(sa.pattern, sub), subst_condition(sa.condition, sub))
    return denote(closed, d)


def assignments(variables, d: Domain):
    """All assignments of the given variables into the domain's value universe."""
    names = sorted(variables)
    values = sorted(d.values)
    for combo in product(values, repeat=len(names)):
        yield dict(zip(names, combo))


def naive_satisfiable(c: Condition, variables, d: Domain) -> bool:
    """`satisfiable` by enumerating every assignment."""
    missing = cond_vars(c) - frozenset(variables)
    if missing:
        raise UnboundVariable(f"condition mentions undeclared variables {sorted(missing)}")
    return any(eval_condition(c, values_sub(env)) for env in assignments(variables, d))


def naive_disjoint_under(sa1: SymbolicAction, sa2: SymbolicAction, d: Domain) -> bool:
    """`disjoint_under` by enumerating every assignment of the outer variables
    and intersecting denotations."""
    outer = sa1.free_vars | sa2.free_vars
    if not outer:
        return disjoint(sa1, sa2, d)
    return all(
        not (denote_under(sa1, d, env) & denote_under(sa2, d, env))
        for env in assignments(outer, d)
    )


def in_order(ts):
    """Traces by length, then by the text of their labels."""
    return sorted(ts, key=lambda t: (len(t), tuple(map(str, t))))


class _TrieNode:
    __slots__ = ("children", "trace")

    def __init__(self):
        self.children = {}
        self.trace = None  # the candidate ending here, if any


def violating_traces(system, candidates, f, domain: Domain) -> frozenset:
    """The candidate traces along which the system violates the safety
    formula: `violates` for every candidate, decided in one walk.

    The walk visits the prefix trie of the candidates with an explicit
    stack.  A node holds the obligations open at its prefix, as the states
    that must still meet each necessity, read off `formulas.necessities`.
    A child fires every necessity whose action matches its own along weak
    steps of the states, and instantiates the continuation.  A node
    violates when its obligations reach falsehood and its trace is a
    candidate.  A process term is explored up to `DEFAULT_STATE_BOUND`
    states.
    """
    _require_safety(f)
    lts, root = as_lts(system, DEFAULT_BOUND)
    trie = _TrieNode()
    for t in candidates:
        node = trie
        for a in t:
            child = node.children.get(a)
            if child is None:
                child = node.children[a] = _TrieNode()
            node = child
        node.trace = tuple(t)

    fired: dict = {}

    def fire(box, a):
        # what the continuation a necessity leaves after action a demands,
        # or None when a does not match it
        key = (box, a)
        if key not in fired:
            sub = sym_match(box.action, a)
            fired[key] = None if sub is None else necessities(subst_data(box.body, sub))
        return fired[key]

    boxes, falsified = necessities(f)
    found = set()
    stack = [(trie, {box: {root} for box in boxes}, falsified)]
    while stack:
        node, open_, falsified = stack.pop()
        if falsified and node.trace is not None:
            found.add(node.trace)
        if not open_:
            continue
        for a, child in node.children.items():
            nxt, reached = {}, False
            for box, states in open_.items():
                cont = fire(box, a)
                if cont is None:
                    continue
                targets = set()
                for s in states:
                    targets |= weak_step(lts, s, a)
                if not targets:
                    continue
                cont_boxes, cont_falsified = cont
                reached = reached or cont_falsified
                for b in cont_boxes:
                    nxt.setdefault(b, set()).update(targets)
            if nxt or reached:
                stack.append((child, nxt, reached))
    return frozenset(found)


#: The trie route also asks about every action sequence up to this length.
EXHAUSTIVE_DEPTH = 2


def shallow_traces(d: Domain, depth: int):
    """Every sequence of the domain's actions up to the depth."""
    return [t for n in range(depth + 1) for t in product(d.actions, repeat=n)]


def trie_nvtt(pair, depth: int) -> Verdict:
    """`check_nvtt` over the trace trees of the process and the composite:
    every trace either performs, less those `violating_traces` finds, is
    compared in `in_order`."""
    subject = (*pair.subject, f"depth={depth}")
    try:
        pair.enforcer
        plts = pair.system
        comp = pair.composite
        # a trace missing from a tree is not performable there: no derivatives
        plain_tree = trace_tree(plts, pair.p, depth)
        comp_tree = trace_tree(comp, comp.initial, depth)
        relevant = plain_tree.keys() | comp_tree.keys()
        relevant -= violating_traces((plts, pair.p), relevant, pair.f, pair.d)
        for t in in_order(relevant):
            plain = plain_tree.get(t, frozenset())
            composite = comp_tree.get(t, frozenset())
            projected = {cfg.system for cfg in composite}
            for verb, diff in (("loses", plain - projected), ("invents", projected - plain)):
                if diff:
                    why = f"trace {_trace_text(t)} {verb} derivative {sorted(map(str, diff))[0]}"
                    return Verdict("nvtt", subject, "fail", why)
    except BOUND_ERRORS as exc:
        return Verdict("nvtt", subject, "inconclusive", str(exc))
    return Verdict("nvtt", subject, "pass")


def trie_violation_semantics(pair, depth: int) -> Verdict:
    """`check_violation_semantics` over the process's trace tree and every
    action sequence up to `EXHAUSTIVE_DEPTH`, each candidate decided by
    `violating_traces` and read in `in_order`."""
    subject = (*pair.subject, f"depth={depth}")
    try:
        plts = pair.system
        # every candidate is within the depth, so it is performable exactly
        # when it is in the trace tree
        tree = trace_tree(plts, pair.p, depth)
        candidates = set(tree)
        candidates.update(shallow_traces(pair.d, min(depth, EXHAUSTIVE_DEPTH)))
        holds = pair.holds
        found = False
        for t in in_order(violating_traces((plts, pair.p), candidates, pair.f, pair.d)):
            if holds:
                why = f"{_trace_text(t)} violates but the system satisfies the formula"
                return Verdict("violation-sem", subject, "fail", why)
            if t not in tree:
                why = f"violating trace {_trace_text(t)} is not performable"
                return Verdict("violation-sem", subject, "fail", why)
            found = True
        if not holds and not found:
            why = f"no violating trace within depth {depth}"
            return Verdict("violation-sem", subject, "inconclusive", why)
    except BOUND_ERRORS as exc:
        return Verdict("violation-sem", subject, "inconclusive", str(exc))
    return Verdict("violation-sem", subject, "pass")


def depth_bounded_witness(system, f, d: Domain, depth: int):
    """`shortest_violation` within a depth: every trace of the (LTS, state)
    system up to the depth, the violating ones among them by
    `violating_traces`, and the first of those in `in_order`; None when no
    trace within the depth violates."""
    lts, state = system
    found = violating_traces(system, traces(lts, state, depth), f, d)
    return next(iter(in_order(found)), None)


def naive_istep(cfg: Config, sys_steps, domain: Domain):
    """`runtime.istep` by scanning every transform of a fresh `tstep` for
    each system move: the same list, in the same order."""
    transforms = tstep(cfg.enforcer, domain)
    sys_moves = sys_steps(cfg.system)
    inserts = [((g, u), e2) for (g, u), e2 in transforms if g is INSERT]
    handled = {g for (g, _), _ in transforms if g is not INSERT}

    out = []
    for label, target in sys_moves:
        if label is TAU:
            continue
        for (gamma, produced), e2 in transforms:
            if gamma is not INSERT and gamma == label:
                out.append(("iTrn", produced, Config(e2, target)))
    for label, target in sys_moves:
        if label is TAU:
            out.append(("iAsy", TAU, Config(cfg.enforcer, target)))
    for (_, produced), e2 in inserts:
        out.append(("iIns", produced, Config(e2, cfg.system)))
    if not inserts:
        for label, target in sys_moves:
            if label is TAU or label in handled:
                continue
            out.append(("iTer", label, Config(ID, target)))
    return out


def naive_step(p):
    """`processes.step` by a recursive walk over choices and unfoldings."""
    out = []

    def walk(term):
        if isinstance(term, Prefix):
            if (term.label, term.cont) not in out:
                out.append((term.label, term.cont))
        elif isinstance(term, Choice):
            for b in term.branches:
                walk(b)
        elif isinstance(term, Rec):
            walk(subst_proc(term.body, term.var, term))
        elif isinstance(term, PVar):
            raise ProcessError(f"cannot step open term with free {term.name!r}")

    walk(p)
    return out


def naive_tstep(e, domain: Domain):
    """`transducers.tstep` by a recursive walk over sums and unfoldings,
    matching every transform prefix against every action and `INSERT`."""
    out = []

    def emit(move):
        if move not in out:
            out.append(move)

    def walk(term):
        if isinstance(term, TId):
            for a in domain.actions:
                emit(((a, a), term))
        elif isinstance(term, TPrefix):
            for gamma in (*domain.actions, INSERT):
                sub = match(term.pattern, gamma)
                if sub is not None and eval_condition(term.condition, sub):
                    produced = _instantiate_target(term.target, sub)
                    emit(((gamma, produced), subst_data(term.cont, sub)))
        elif isinstance(term, TSum):
            for b in term.branches:
                walk(b)
        elif isinstance(term, TRec):
            walk(subst_rec(term.body, term.var, term))
        elif isinstance(term, TVar):
            raise TransducerError(f"cannot step open term with free {term.name!r}")

    walk(e)
    return out
