"""Formula terms for the recursive Hennessy-Milner logic with symbolic actions.

The grammar covers truth/falsehood, finite conjunction and disjunction,
necessity and possibility modalities guarded by symbolic actions, and least
and greatest fixpoints.  The safety fragment (no disjunction, no possibility,
no least fixpoints) and its normal form are recognised by `classify`.

A modality's pattern binders scope over both the guard condition and the
continuation formula, so formulas can be open in data variables as well as in
logical variables.

A formula's free logical and data variables, its guardedness and whether it
is a safety formula are facts kept on the term (`symbolic.fact`).  The
necessities a safety formula demands of a state, and what a necessity
demands after a label (`residual`), are memoised by term in bounded caches.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple, Union

from . import symbolic
from .symbolic import (
    Domain,
    Shape,
    SymbolicAction,
    disjoint_under,
    term,
    term_memo,
)


class FormulaError(Exception):
    pass


@term(shape=Shape())
class FTrue:
    """Truth: every state satisfies it."""


@term(shape=Shape())
class FFalse:
    """Falsehood: no state satisfies it."""


@term(shape=Shape("items"))
class FAnd:
    items: tuple


@term(shape=Shape("items"))
class FOr:
    items: tuple


@term(shape=Shape("body", guard="action"))
class Box:
    action: SymbolicAction
    body: "Formula"


@term(shape=Shape("body", guard="action"))
class Dia:
    action: SymbolicAction
    body: "Formula"


@term(shape=Shape(occurs="name"))
class FVar:
    name: str


@term(shape=Shape("body", binds="var", occurrence=FVar))
class Max:
    var: str
    body: "Formula"


@term(shape=Shape("body", binds="var", occurrence=FVar))
class Min:
    var: str
    body: "Formula"


Formula = Union[FTrue, FFalse, FAnd, FOr, Box, Dia, Max, Min, FVar]

TT = FTrue()
FF = FFalse()


def conj(items) -> Formula:
    items = tuple(items)
    if not items:
        return TT
    if len(items) == 1:
        return items[0]
    return FAnd(items)


# ---------------------------------------------------------------------------
# Variables and substitution, on the engine of `symbolic`

free_logic_vars = symbolic.free_rec_vars
free_data_vars = symbolic.free_data_vars
subst_data = symbolic.subst_data
subst_logic = symbolic.subst_var


def all_names(f: Formula) -> set:
    """Every identifier occurring in the formula (variables, binders, values);
    used to pick fresh names that cannot capture anything."""
    out = set()
    for g in symbolic.subterms(f):
        if isinstance(g, (Box, Dia)):
            slots = (g.action.pattern.port, g.action.pattern.payload)
            out.update(getattr(slot, "name", None) or slot.value for slot in slots)
            out.update(free_data_vars(g.action.condition))
        elif isinstance(g, (Max, Min, FVar)):
            out.add(g.name if isinstance(g, FVar) else g.var)
    return out



def unfold(f) -> Formula:
    """One unfolding of a fixpoint: the binder's body with the whole fixpoint
    substituted for its variable."""
    if not isinstance(f, (Max, Min)):
        raise FormulaError("can only unfold a fixpoint formula")
    return subst_logic(f.body, f.var, f)


# ---------------------------------------------------------------------------
# Classification


class Classification(NamedTuple):
    closed: bool
    guarded: bool
    shml: bool
    shmlnf: bool


def is_guarded(f: Formula) -> bool:
    """Every occurrence of a logical variable must sit under a modality
    inside its binder."""
    return type(symbolic.unguarded(f)) is not str


_SAFETY = (FTrue, FFalse, FVar, FAnd, Box, Max)
#: Whether a formula is in the safety fragment: no disjunction, possibility
#: or least fixpoint anywhere.
is_shml = symbolic.fact("_shml", lambda f, shape, kids: isinstance(f, _SAFETY) and all(kids))


def require_safety(f: Formula, error):
    """Raise `error` unless `f` is a closed, guarded safety formula, the
    formulas that are normalised, compiled and checked.  The one place that
    decides it."""
    if free_logic_vars(f) or free_data_vars(f):
        raise error("formula must be closed")
    if not is_guarded(f):
        raise error("formula is not guarded")
    if not is_shml(f):
        raise error("only safety formulas are accepted")


@term_memo
def necessities(f: Formula) -> tuple:
    """What a safety formula demands of a state: the necessities among its
    `symbolic.heads`, which it reaches through conjunction items and
    fixpoint unfoldings, in source order with repeats kept, and whether it
    reaches falsehood that way.

    A free logical variable, a non-safety operator anywhere (`FOr` has the
    shape of `FAnd`, so it is ruled out first) and a fixpoint met again on
    its own unfolding path each raise FormulaError.
    """
    if free_logic_vars(f):
        raise FormulaError("formula is open in logical variables")
    if not is_shml(f):
        raise FormulaError("a disjunction, possibility or least fixpoint is not a safety operator")
    found = symbolic.heads(f, FormulaError)
    return tuple(g for g in found if type(g) is Box), FF in found


@term_memo
def residual(box: Box, label) -> Formula | None:
    """What a necessity demands once a label is seen: its continuation,
    instantiated by the label's match with its guard, or None when the label
    does not match.  The one place that decides it."""
    sub = symbolic.sym_match(box.action, label)
    return None if sub is None else subst_data(box.body, sub)


def necessity_branches(f):
    """View a formula as a conjunction of necessity branches, or None."""
    if isinstance(f, Box):
        return (f,)
    if isinstance(f, FAnd) and all(isinstance(i, Box) for i in f.items):
        return f.items
    return None


def is_shmlnf(f: Formula, d: Domain) -> bool:
    """Normal form: conjunctions combine only necessities whose guards are
    pairwise disjoint, and every fixpoint binder is used in its body.  It
    depends on the domain: each distinct subterm is checked once per call."""

    def normal(g):
        if isinstance(g, Max):
            return g.var in free_logic_vars(g.body)
        if not isinstance(g, FAnd):
            return isinstance(g, (FTrue, FFalse, FVar, Box))
        return all(isinstance(b, Box) for b in g.items) and all(
            disjoint_under(a.action, b.action, d) for a, b in combinations(g.items, 2))

    return all(map(normal, symbolic.subterms(f)))


def classify(f: Formula, d: Domain) -> Classification:
    closed = not free_logic_vars(f) and not free_data_vars(f)
    guarded = is_guarded(f)
    shml = is_shml(f)
    shmlnf = shml and is_shmlnf(f, d)
    return Classification(closed, guarded, shml, shmlnf)
