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

Terms are interned, so their `==` is identity; `structurally_equal`
compares two terms field by field instead.
"""
import dataclasses
from itertools import product
from typing import Mapping

from enfkit.harness import _in_order, violating_traces
from enfkit.processes import Choice, Prefix, ProcessError, PVar, Rec, subst_proc, traces
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


def depth_bounded_witness(system, f, d: Domain, depth: int):
    """`shortest_violation` within a depth: every trace of the (LTS, state)
    system up to the depth, the violating ones among them by
    `violating_traces`, and the first of those in `_in_order`; None when no
    trace within the depth violates."""
    lts, state = system
    found = violating_traces(system, traces(lts, state, depth), f, d)
    return next(iter(_in_order(found)), None)


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
