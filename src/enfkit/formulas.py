"""Formula terms for the recursive Hennessy-Milner logic with symbolic actions.

The grammar covers truth/falsehood, finite conjunction and disjunction,
necessity and possibility modalities guarded by symbolic actions, and least
and greatest fixpoints.  The safety fragment (no disjunction, no possibility,
no least fixpoints) and its normal form are recognised by `classify`.

A modality's pattern binders scope over both the guard condition and the
continuation formula, so formulas can be open in data variables as well as in
logical variables.

Derived facts about a formula (its free logical and data variables, whether
it is guarded, whether it is a safety formula, and the necessities a safety
formula demands of a state) are memoised by term, in bounded caches keyed
on the formula value.
"""
from __future__ import annotations

from typing import NamedTuple, Union

from . import symbolic
from .symbolic import (
    Domain,
    Shape,
    SymbolicAction,
    cond_vars,
    disjoint_under,
    paren,
    term,
    term_memo,
)


class FormulaError(Exception):
    pass


@term(shape=Shape())
class FTrue:
    def __str__(self):
        return "tt"


@term(shape=Shape())
class FFalse:
    def __str__(self):
        return "ff"


@term(shape=Shape("items"))
class FAnd:
    items: tuple

    PREC = 2

    def __str__(self):
        return " && ".join(paren(i, 3) for i in self.items)


@term(shape=Shape("items"))
class FOr:
    items: tuple

    PREC = 1

    def __str__(self):
        return " || ".join(paren(i, 2) for i in self.items)


@term(shape=Shape("body", guard="action"))
class Box:
    action: SymbolicAction
    body: "Formula"

    def __str__(self):
        return f"[{self.action}]{paren(self.body, 3)}"


@term(shape=Shape("body", guard="action"))
class Dia:
    action: SymbolicAction
    body: "Formula"

    def __str__(self):
        return f"<{self.action}>{paren(self.body, 3)}"


@term(shape=Shape(occurs="name"))
class FVar:
    name: str

    def __str__(self):
        return self.name


@term(shape=Shape("body", binds="var", occurrence=FVar))
class Max:
    var: str
    body: "Formula"

    PREC = 0

    def __str__(self):
        return f"max {self.var}.{self.body}"


@term(shape=Shape("body", binds="var", occurrence=FVar))
class Min:
    var: str
    body: "Formula"

    PREC = 0

    def __str__(self):
        return f"min {self.var}.{self.body}"


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

    def enter(g, ctx):
        if isinstance(g, (Box, Dia)):
            slots = (g.action.pattern.port, g.action.pattern.payload)
            out.update(getattr(slot, "name", None) or slot.value for slot in slots)
            out.update(cond_vars(g.action.condition))
        elif isinstance(g, (Max, Min, FVar)):
            out.add(g.name if isinstance(g, FVar) else g.var)
        return g, ctx

    symbolic.rebuild(f, enter)
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
is_shml = symbolic.Fold(lambda f, shape, kids: isinstance(f, _SAFETY) and all(kids)).__getitem__


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


def necessity_branches(f):
    """View a formula as a conjunction of necessity branches, or None."""
    if isinstance(f, Box):
        return (f,)
    if isinstance(f, FAnd) and all(isinstance(i, Box) for i in f.items):
        return f.items
    return None


def is_shmlnf(f: Formula, d: Domain) -> bool:
    """Normal form: conjunctions combine only necessities whose guards are
    pairwise disjoint, and every fixpoint binder is used in its body.  A
    fold of its own per call, since the answer depends on the domain."""

    def rule(g, shape, kids):
        if not all(kids):
            return False
        if isinstance(g, Max):
            return g.var in free_logic_vars(g.body)
        if not isinstance(g, FAnd):
            return isinstance(g, (FTrue, FFalse, FVar, Box))
        items = g.items
        pairs = ((a, b) for i, a in enumerate(items) for b in items[i + 1:])
        return all(isinstance(b, Box) for b in items) and all(
            disjoint_under(a.action, b.action, d) for a, b in pairs)

    return symbolic.Fold(rule)[f]


def classify(f: Formula, d: Domain) -> Classification:
    closed = not free_logic_vars(f) and not free_data_vars(f)
    guarded = is_guarded(f)
    shml = is_shml(f)
    shmlnf = shml and is_shmlnf(f, d)
    return Classification(closed, guarded, shml, shmlnf)
