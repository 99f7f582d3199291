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

from . import symbolic
from .processes import DEFAULT_STATE_BOUND, LTS, explore
from .symbolic import (
    INSERT,
    TAU,
    Action,
    CTrue,
    InsertPattern,
    Lit,
    Shape,
    eval_condition,
    match,
    paren,
    subst_data,
    subst_pattern,
    term,
    term_memo,
    underline,
)


class TransducerError(Exception):
    pass


@term(shape=Shape())
class TId:
    def __str__(self):
        return "id"


@term(shape=Shape("cont", guard=("pattern", "condition", "target")))
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


@term(shape=Shape("branches"))
class TSum:
    branches: tuple

    PREC = 1

    def __str__(self):
        return " + ".join(paren(b, 2) for b in self.branches)


@term(shape=Shape(occurs="name"))
class TVar:
    name: str

    def __str__(self):
        return self.name


@term(shape=Shape("body", binds="var", occurrence=TVar))
class TRec:
    var: str
    body: "Transducer"

    PREC = 0

    def __str__(self):
        return f"rec {self.var}.{self.body}"


Transducer = Union[TId, TPrefix, TSum, TRec, TVar]

ID = TId()


# ---------------------------------------------------------------------------
# Variables, substitution and well-formedness, on the engine of `symbolic`

free_rec_vars = symbolic.free_rec_vars
free_data_vars = symbolic.free_data_vars
subst_rec = symbolic.subst_var


def validate_transducer(e: Transducer):
    """Check that `e` is a transducer term, closed in recursion and data
    variables, with transform-guarded recursion, and that no target pattern
    binds: a target mentions only variables bound by its source pattern or
    an enclosing one."""
    symbolic.check_term(e, _is_transducer_node, TransducerError)


def _is_transducer_node(e) -> bool:
    binding_target = isinstance(e, TPrefix) and getattr(e.target, "binders", None)
    return isinstance(e, Transducer.__args__) and not binding_target


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
    over the domain's actions plus the insertion marker, in source order:
    the identity and transform prefixes among `symbolic.heads`, each once."""
    moves = {}
    for head in dict.fromkeys(symbolic.heads(e, TransducerError)):
        if isinstance(head, TVar):
            raise TransducerError(f"cannot step open term with free {head.name!r}")
        if isinstance(head, TId):
            moves.update(dict.fromkeys(((a, a), head) for a in domain.actions))
        elif isinstance(head, TPrefix):
            for gamma in (*domain.actions, INSERT):
                sub = match(head.pattern, gamma)
                if sub is not None and eval_condition(head.condition, sub):
                    target = _instantiate_target(head.target, sub)
                    moves[(gamma, target), subst_data(head.cont, sub)] = None
    return list(moves)


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
    keys = symbolic.AlphaKeys()
    return keys(e1) == keys(e2)
