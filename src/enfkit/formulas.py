"""Formula terms for the recursive Hennessy-Milner logic with symbolic actions.

The grammar covers truth/falsehood, finite conjunction and disjunction,
necessity and possibility modalities guarded by symbolic actions, and least
and greatest fixpoints.  The safety fragment (no disjunction, no possibility,
no least fixpoints) and its normal form are recognised by `classify`.

A modality's pattern binders scope over both the guard condition and the
continuation formula, so formulas can be open in data variables as well as in
logical variables.

Derived facts about a formula (its free logical and data variables, whether
it is guarded, whether it is a safety formula) are memoised by term, in
bounded caches keyed on the formula value.
"""
from __future__ import annotations

from typing import Union

from .symbolic import (
    Domain,
    SymbolicAction,
    Substitution,
    avoid_capture,
    cond_vars,
    disjoint_under,
    narrow,
    paren,
    term,
    term_memo,
)


class FormulaError(Exception):
    pass


@term
class FTrue:
    def __str__(self):
        return "tt"


@term
class FFalse:
    def __str__(self):
        return "ff"


@term
class FAnd:
    items: tuple

    PREC = 2

    def __str__(self):
        return " && ".join(paren(i, 3) for i in self.items)


@term
class FOr:
    items: tuple

    PREC = 1

    def __str__(self):
        return " || ".join(paren(i, 2) for i in self.items)


@term
class Box:
    action: SymbolicAction
    body: "Formula"

    def __str__(self):
        return f"[{self.action}]{paren(self.body, 3)}"


@term
class Dia:
    action: SymbolicAction
    body: "Formula"

    def __str__(self):
        return f"<{self.action}>{paren(self.body, 3)}"


@term
class Max:
    var: str
    body: "Formula"

    PREC = 0

    def __str__(self):
        return f"max {self.var}.{self.body}"


@term
class Min:
    var: str
    body: "Formula"

    PREC = 0

    def __str__(self):
        return f"min {self.var}.{self.body}"


@term
class FVar:
    name: str

    def __str__(self):
        return self.name


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
# Variables


# Formulas unfold into DAGs (substitution shares subterms), so the recursive
# helpers below memoise by term; an unfolding and a reparse of one formula
# share entries.


@term_memo
def free_logic_vars(f: Formula) -> frozenset:
    if isinstance(f, FVar):
        return frozenset((f.name,))
    if isinstance(f, (FAnd, FOr)):
        return frozenset().union(*(free_logic_vars(i) for i in f.items))
    if isinstance(f, (Box, Dia)):
        return free_logic_vars(f.body)
    if isinstance(f, (Max, Min)):
        return free_logic_vars(f.body) - {f.var}
    return frozenset()


@term_memo
def free_data_vars(f: Formula) -> frozenset:
    if isinstance(f, (FAnd, FOr)):
        return frozenset().union(*(free_data_vars(i) for i in f.items))
    if isinstance(f, (Box, Dia)):
        return f.action.free_vars | (free_data_vars(f.body) - f.action.binders)
    if isinstance(f, (Max, Min)):
        return free_data_vars(f.body)
    return frozenset()


def all_names(f: Formula) -> set:
    """Every identifier occurring in the formula (variables, binders, values);
    used to pick fresh names that cannot capture anything."""
    out = set()

    def walk(g):
        if isinstance(g, (FAnd, FOr)):
            for i in g.items:
                walk(i)
        elif isinstance(g, (Box, Dia)):
            pat = g.action.pattern
            for slot in (pat.port, pat.payload):
                out.add(getattr(slot, "name", None) or getattr(slot, "value", None))
            out.update(cond_vars(g.action.condition))
            walk(g.body)
        elif isinstance(g, (Max, Min)):
            out.add(g.var)
            walk(g.body)
        elif isinstance(g, FVar):
            out.add(g.name)

    walk(f)
    out.discard(None)
    return out


# ---------------------------------------------------------------------------
# Substitution


def subst_logic(f: Formula, var: str, rep: Formula) -> Formula:
    """Capture-avoiding substitution of a formula for a logical variable.

    Subtrees without the variable are returned as-is, so repeated fixpoint
    unfolding shares structure instead of copying it.
    """
    rep_free = free_logic_vars(rep)

    def go(g):
        if var not in free_logic_vars(g):
            return g
        if isinstance(g, FVar):
            return rep if g.name == var else g
        if isinstance(g, (FAnd, FOr)):
            return type(g)(tuple(go(i) for i in g.items))
        if isinstance(g, (Box, Dia)):
            return type(g)(g.action, go(g.body))
        if isinstance(g, (Max, Min)):
            if g.var == var:
                return g
            if g.var in rep_free:
                fresh = g.var
                taken = rep_free | free_logic_vars(g.body) | {var}
                while fresh in taken:
                    fresh += "'"
                renamed = subst_logic(g.body, g.var, FVar(fresh))
                return type(g)(fresh, go(renamed))
            return type(g)(g.var, go(g.body))
        return g

    return go(f)


def subst_data(f: Formula, sub: Substitution) -> Formula:
    """Apply a data substitution, respecting pattern-binder scoping.

    Renaming targets (Var) that would be captured by an inner binder cause
    that binder to be freshened first.  Subtrees that mention none of the
    substituted variables are returned unchanged.
    """
    if not sub:
        return f
    if not (set(sub) & free_data_vars(f)):
        return f
    if isinstance(f, (FAnd, FOr)):
        return type(f)(tuple(subst_data(i, sub) for i in f.items))
    if isinstance(f, (Max, Min)):
        return type(f)(f.var, subst_data(f.body, sub))
    if isinstance(f, (Box, Dia)):
        sa, body = f.action, f.body
        narrowed, captures = narrow(sub, sa.binders)
        if captures:
            pattern, condition, body = avoid_capture(
                sa.pattern, sa.condition, body, narrowed, free_data_vars, subst_data
            )
            sa = SymbolicAction(pattern, condition)
        return type(f)(sa.subst(narrowed), subst_data(body, narrowed))
    return f


def unfold(f) -> Formula:
    """One unfolding of a fixpoint: the binder's body with the whole fixpoint
    substituted for its variable."""
    if not isinstance(f, (Max, Min)):
        raise FormulaError("can only unfold a fixpoint formula")
    return subst_logic(f.body, f.var, f)


# ---------------------------------------------------------------------------
# Classification


@term
class Classification:
    closed: bool
    guarded: bool
    shml: bool
    shmlnf: bool


@term_memo
def is_guarded(f: Formula) -> bool:
    """Every occurrence of a logical variable must sit under a modality
    inside its binder."""

    def go(g, unguarded: frozenset) -> bool:
        if isinstance(g, FVar):
            return g.name not in unguarded
        if isinstance(g, (FAnd, FOr)):
            return all(go(i, unguarded) for i in g.items)
        if isinstance(g, (Box, Dia)):
            return go(g.body, frozenset())
        if isinstance(g, (Max, Min)):
            return go(g.body, unguarded | {g.var})
        return True

    return go(f, frozenset())


@term_memo
def is_shml(f: Formula) -> bool:
    if isinstance(f, (FTrue, FFalse, FVar)):
        return True
    if isinstance(f, FAnd):
        return all(is_shml(i) for i in f.items)
    if isinstance(f, Box):
        return is_shml(f.body)
    if isinstance(f, Max):
        return is_shml(f.body)
    return False


def necessity_branches(f):
    """View a formula as a conjunction of necessity branches, or None."""
    if isinstance(f, Box):
        return (f,)
    if isinstance(f, FAnd) and all(isinstance(i, Box) for i in f.items):
        return f.items
    return None


def is_shmlnf(f: Formula, d: Domain) -> bool:
    """Normal form: conjunctions combine only necessities whose guards are
    pairwise disjoint, and every fixpoint binder is used in its body."""
    if isinstance(f, (FTrue, FFalse, FVar)):
        return True
    if isinstance(f, Max):
        if f.var not in free_logic_vars(f.body):
            return False
        return is_shmlnf(f.body, d)
    branches = necessity_branches(f)
    if branches is None:
        return False
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            if not disjoint_under(branches[i].action, branches[j].action, d):
                return False
    # a plain loop: all(genexpr) would add a generator frame per level of
    # nesting and overflow the stack on shallower formulas
    for b in branches:
        if not is_shmlnf(b.body, d):
            return False
    return True


def classify(f: Formula, d: Domain) -> Classification:
    closed = not free_logic_vars(f) and not free_data_vars(f)
    guarded = is_guarded(f)
    shml = is_shml(f)
    shmlnf = shml and is_shmlnf(f, d)
    return Classification(closed, guarded, shml, shmlnf)
