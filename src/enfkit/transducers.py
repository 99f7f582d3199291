"""Transducer terms: the enforcers placed between a system and its environment.

A transducer is the identity, a symbolic transform prefix, a finite sum, or a
recursive term.  A prefix `{p when c -> p'}.e` transforms any action matching
p (under condition c) into the instantiation of p'; a `tau` target suppresses
the action, a `*` source pattern inserts one.  Transition labels are pairs
(consumed extended action, produced label).
"""
from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple, Union

from .processes import DEFAULT_STATE_BOUND, LTS, explore
from .symbolic import (
    INSERT,
    TAU,
    Action,
    ActionPattern,
    CTrue,
    InsertPattern,
    Lit,
    Substitution,
    avoid_capture,
    cond_key,
    cond_vars,
    eval_condition,
    match,
    narrow,
    paren,
    pattern_key,
    subst_condition,
    subst_pattern,
    term,
    term_memo,
    underline,
)


class TransducerError(Exception):
    pass


@term
class TId:
    def __str__(self):
        return "id"


@term
class TPrefix:
    pattern: object  # ActionPattern | InsertPattern
    condition: object
    target: object  # ActionPattern (no binders) | TAU
    cont: "Transducer"

    PREC = 2

    def __str__(self):
        parts = [str(self.pattern)]
        if not isinstance(self.condition, CTrue):
            parts.append(f"when {self.condition}")
        if self.target is TAU:
            parts.append("-> tau")
        elif isinstance(self.pattern, InsertPattern) or self.target != underline(
            self.pattern
        ):
            parts.append(f"-> {self.target}")
        return f"{{{' '.join(parts)}}}.{paren(self.cont, 2)}"


@term
class TSum:
    branches: tuple

    PREC = 1

    def __str__(self):
        return " + ".join(paren(b, 2) for b in self.branches)


@term
class TRec:
    var: str
    body: "Transducer"

    PREC = 0

    def __str__(self):
        return f"rec {self.var}.{self.body}"


@term
class TVar:
    name: str

    def __str__(self):
        return self.name


Transducer = Union[TId, TPrefix, TSum, TRec, TVar]

ID = TId()


# ---------------------------------------------------------------------------
# Variables and substitution


def free_rec_vars(e: Transducer) -> frozenset:
    if isinstance(e, TVar):
        return frozenset((e.name,))
    if isinstance(e, TPrefix):
        return free_rec_vars(e.cont)
    if isinstance(e, TSum):
        return frozenset().union(*(free_rec_vars(b) for b in e.branches))
    if isinstance(e, TRec):
        return free_rec_vars(e.body) - {e.var}
    return frozenset()


def free_data_vars(e: Transducer) -> frozenset:
    if isinstance(e, TPrefix):
        inner = (
            cond_vars(e.condition)
            | (e.target.free_vars if isinstance(e.target, ActionPattern) else frozenset())
            | free_data_vars(e.cont)
        )
        return e.pattern.free_vars | (inner - e.pattern.binders)
    if isinstance(e, TSum):
        return frozenset().union(*(free_data_vars(b) for b in e.branches))
    if isinstance(e, TRec):
        return free_data_vars(e.body)
    return frozenset()


def subst_rec(e: Transducer, var: str, rep: Transducer) -> Transducer:
    if isinstance(e, TVar):
        return rep if e.name == var else e
    if isinstance(e, TPrefix):
        return TPrefix(e.pattern, e.condition, e.target, subst_rec(e.cont, var, rep))
    if isinstance(e, TSum):
        return TSum(tuple(subst_rec(b, var, rep) for b in e.branches))
    if isinstance(e, TRec):
        if e.var == var:
            return e
        return TRec(e.var, subst_rec(e.body, var, rep))
    return e


def subst_data(e: Transducer, sub: Substitution) -> Transducer:
    if not sub:
        return e
    if isinstance(e, TSum):
        return TSum(tuple(subst_data(b, sub) for b in e.branches))
    if isinstance(e, TRec):
        return TRec(e.var, subst_data(e.body, sub))
    if isinstance(e, TPrefix):
        narrowed, captures = narrow(sub, e.pattern.binders)
        if not narrowed:
            return e
        pattern, cond, scope = e.pattern, e.condition, (e.target, e.cont)
        if captures:
            pattern, cond, scope = avoid_capture(
                pattern, cond, scope, narrowed, _scope_vars, _subst_scope
            )
        target, cont = _subst_scope(scope, narrowed)
        return TPrefix(
            subst_pattern(pattern, narrowed), subst_condition(cond, narrowed), target, cont
        )
    return e


# A prefix's binders scope over its target pattern and its continuation.


def _scope_vars(scope) -> frozenset:
    target, cont = scope
    own = target.free_vars if isinstance(target, ActionPattern) else frozenset()
    return own | free_data_vars(cont)


def _subst_scope(scope, sub: Substitution):
    target, cont = scope
    if isinstance(target, ActionPattern):
        target = subst_pattern(target, sub)
    return target, subst_data(cont, sub)


# ---------------------------------------------------------------------------
# Well-formedness


def validate_transducer(e: Transducer):
    """Check closedness and the prefix constraints: the target pattern has no
    binders and mentions only variables bound by the source pattern (or an
    enclosing one); recursion must be transform-guarded."""
    _validate(e, frozenset(), frozenset(), frozenset())


def _validate(e, rec_scope, data_scope, unguarded):
    if isinstance(e, TVar):
        if e.name not in rec_scope:
            raise TransducerError(f"unbound recursion variable {e.name!r}")
        if e.name in unguarded:
            raise TransducerError(
                f"recursion variable {e.name!r} is not transform-guarded"
            )
    elif isinstance(e, TSum):
        for b in e.branches:
            _validate(b, rec_scope, data_scope, unguarded)
    elif isinstance(e, TRec):
        _validate(e.body, rec_scope | {e.var}, data_scope, unguarded | {e.var})
    elif isinstance(e, TPrefix):
        if isinstance(e.target, ActionPattern):
            if e.target.binders:
                raise TransducerError("transform targets may not bind variables")
        inner_scope = data_scope | e.pattern.binders
        bad = cond_vars(e.condition) - inner_scope
        if isinstance(e.target, ActionPattern):
            bad |= e.target.free_vars - inner_scope
        bad |= e.pattern.free_vars - data_scope
        if bad:
            raise TransducerError(f"unbound data variables {sorted(bad)}")
        _validate(e.cont, rec_scope, inner_scope, frozenset())


# ---------------------------------------------------------------------------
# Dynamics


def _instantiate_target(target, sub):
    if target is TAU:
        return TAU
    concrete = subst_pattern(target, sub)
    parts = []
    for slot in (concrete.port, concrete.payload):
        if not isinstance(slot, Lit):
            raise TransducerError(f"transform target {target} is not fully instantiated")
        parts.append(slot.value)
    return Action(parts[0], concrete.is_input, parts[1])


def tstep(e: Transducer, domain):
    """All transform transitions ((gamma, output), continuation), enumerated
    over the domain's actions plus the insertion marker, in source order."""
    out = []
    seen = set()

    def emit(gamma, produced, cont):
        key = (gamma, produced, cont)
        if key not in seen:
            seen.add(key)
            out.append(((gamma, produced), cont))

    gammas = tuple(domain.actions) + (INSERT,)

    def walk(term):
        if isinstance(term, TId):
            for a in domain.actions:
                emit(a, a, term)
        elif isinstance(term, TPrefix):
            for gamma in gammas:
                sub = match(term.pattern, gamma)
                if sub is None or not eval_condition(term.condition, sub):
                    continue
                emit(gamma, _instantiate_target(term.target, sub), subst_data(term.cont, sub))
        elif isinstance(term, TSum):
            for b in term.branches:
                walk(b)
        elif isinstance(term, TRec):
            walk(subst_rec(term.body, term.var, term))
        elif isinstance(term, TVar):
            raise TransducerError(f"cannot step open term with free {term.name!r}")

    walk(e)
    return out


class TransformTable(NamedTuple):
    """The transforms of one transducer state over one domain, as `tstep`
    gives them: `by_action` maps each consumed action to its (output,
    continuation) pairs, `inserts` holds the insertions' pairs, each in
    `tstep`'s source order.  Tables are shared through a memo: read only."""

    by_action: Mapping
    inserts: tuple


@term_memo
def transform_table(e: Transducer, domain) -> TransformTable:
    """`tstep` of a transducer state, indexed by consumed action and memoised
    by (term, domain), so each state is stepped once."""
    by_action, inserts = {}, []
    for (gamma, produced), cont in tstep(e, domain):
        moves = inserts if gamma is INSERT else by_action.setdefault(gamma, [])
        moves.append((produced, cont))
    return TransformTable(
        MappingProxyType({gamma: tuple(moves) for gamma, moves in by_action.items()}),
        tuple(inserts),
    )


def transducer_lts(e: Transducer, domain, bound: int = DEFAULT_STATE_BOUND) -> LTS:
    """The LTS of a transducer, labelled by (consumed, produced) pairs."""
    validate_transducer(e)
    return explore(e, lambda t: tstep(t, domain), bound)


# ---------------------------------------------------------------------------
# Alpha equivalence (recursion variables and pattern binders both rename)


def alpha_eq(e1: Transducer, e2: Transducer) -> bool:
    return _alpha_key(e1, 0, {}, 0, {}) == _alpha_key(e2, 0, {}, 0, {})


def _alpha_key(e, rlevel, renv, level, env):
    """The key of `e` up to binder names: recursion variables are numbered by
    binder distance in `(rlevel, renv)`, data as in `symbolic.pattern_key`
    in `(level, env)`.  A transform target is keyed inside its source
    pattern's scope."""
    if isinstance(e, TVar):
        bound = renv.get(e.name)
        return e.name if bound is None else rlevel - bound
    if isinstance(e, TSum):
        return ("+", *(_alpha_key(b, rlevel, renv, level, env) for b in e.branches))
    if isinstance(e, TRec):
        return ("rec", _alpha_key(e.body, rlevel + 1, {**renv, e.var: rlevel}, level, env))
    if isinstance(e, TPrefix):
        source, level, env = pattern_key(e.pattern, level, env)
        target = e.target if e.target is TAU else pattern_key(e.target, level, env)[0]
        cont = _alpha_key(e.cont, rlevel, renv, level, env)
        return ("{}", source, cond_key(e.condition, level, env), target, cont)
    return e
