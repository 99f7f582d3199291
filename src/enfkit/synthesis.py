"""Compositional synthesis of suppression enforcers from normal-form safety
formulas.

Truth, falsehood and logical variables map to the identity enforcer and
recursion variables; a greatest fixpoint becomes a recursive enforcer; a
conjunction of necessities becomes a recursive summation in which a branch
guarding falsehood suppresses the matched action (target tau) and loops,
while any other branch transforms the action identically and continues with
the synthesis of its continuation.  Only suppression and identity transforms
are ever emitted: no insertions, no replacements.
"""
from __future__ import annotations

from itertools import chain, count, filterfalse

from .formulas import (
    FFalse,
    FVar,
    Formula,
    Max,
    all_names,
    is_shmlnf,
    necessity_branches,
    require_safety,
)
from .normalizer import normalize
from .symbolic import TAU, Domain, free_rec_vars, rebuild, underline
from .transducers import ID, TPrefix, TRec, TSum, TVar, Transducer


class SynthesisError(Exception):
    pass


_VAR_POOL = ("x", "z", "w", "v", "u")


class _Names:
    """Stable bijection from logical variables to recursion variables, plus a
    deterministic counter for the fresh summation variables.  Names that
    would shadow the formula's own identifiers are skipped for readability.
    """

    def __init__(self, avoid=frozenset()):
        self.avoid = frozenset(avoid)
        self.mapping: dict = {}
        self.sum_count = 0
        numbered = (f"{base}{i}" for i in count(1) for base in _VAR_POOL)
        self._fresh = filterfalse(self.avoid.__contains__, chain(_VAR_POOL, numbered))

    def for_var(self, logical: str) -> str:
        if logical not in self.mapping:
            self.mapping[logical] = next(self._fresh)
        return self.mapping[logical]

    def fresh_sum_var(self) -> str:
        while True:
            name = "y" if self.sum_count == 0 else f"y{self.sum_count}"
            self.sum_count += 1
            if name not in self.avoid:
                return name


def synthesize(f: Formula, d: Domain) -> Transducer:
    """Translate a normal-form safety formula into a suppression enforcer.
    The input must pass `require_safety` and be in normal form, guard
    disjointness included.  Every binder of the translation is kept, used
    or not; `optimize` drops the unused ones."""
    require_safety(f, SynthesisError)
    return _synthesize(f, d, raw=True)


def _synthesize(nf: Formula, d: Domain, raw: bool) -> Transducer:
    if not is_shmlnf(nf, d):
        raise SynthesisError("synthesis needs a normal-form safety formula")
    return _syn(nf, _Names(avoid=all_names(nf)), raw)


def _syn(nf, names: _Names, raw: bool) -> Transducer:
    """The enforcer of `nf`, built in one depth-first pass on an explicit
    stack: names are drawn on the way down, in pre-order, and each binder is
    closed on the way up, where `TRec(v, body)` is emitted only if `v` occurs
    free in `body`, unless `raw` asks for every binder of the translation.
    `used[v]` says whether the body being built uses `v`; a binder saves the
    flag of an outer binder of its name and restores it, so occurrences it
    binds keep no outer binder alive."""
    used: dict = {}
    done: list = []  # the enforcers built, each after its left siblings
    todo: list = [nf]  # formulas to translate, and binders to close
    while todo:
        g = todo.pop()
        if type(g) is tuple:  # (variable, outer flag, branches or None): close a binder
            var, outer, branches = g
            if branches is None:
                body = done.pop()
            else:
                parts = []
                for b in reversed(branches):  # their bodies' enforcers are on top
                    sa = b.action
                    if isinstance(b.body, FFalse):
                        used[var] = True
                        parts.append(TPrefix(sa.pattern, sa.condition, TAU, TVar(var)))
                    else:
                        cont = done.pop()
                        parts.append(TPrefix(sa.pattern, sa.condition, underline(sa.pattern), cont))
                body = parts[0] if len(parts) == 1 else TSum(tuple(reversed(parts)))
            done.append(TRec(var, body) if raw or used[var] else body)
            used[var] = outer
        elif isinstance(g, FVar):
            var = names.for_var(g.name)
            used[var] = True
            done.append(TVar(var))
        elif isinstance(g, Max):
            var = names.for_var(g.var)
            todo += [(var, used.get(var, False), None), g.body]
            used[var] = False
        else:
            branches = necessity_branches(g)
            if not branches:  # truth and falsehood
                done.append(ID)
                continue
            var = names.fresh_sum_var()
            todo.append((var, used.get(var, False), branches))
            used[var] = False
            todo += [b.body for b in reversed(branches) if not isinstance(b.body, FFalse)]
    return done[0]


def optimize(e: Transducer) -> Transducer:
    """Drop recursive constructs whose variable is never used.  Of
    `synthesize`'s output this gives `compile_formula`'s, which drops them
    as it builds."""

    def leave(t):
        return t.body if isinstance(t, TRec) and t.var not in free_rec_vars(t.body) else t

    return rebuild(e, lambda t, ctx: (t, ctx), leave=leave)


def normal_form(f: Formula, d: Domain) -> Formula:
    """What `compile_formula` synthesises: `f` itself when it is already in
    normal form, which keeps the output aligned with hand-written
    enforcers, else its normalisation."""
    require_safety(f, SynthesisError)
    return f if is_shmlnf(f, d) else normalize(f, d)


def compile_formula(f: Formula, d: Domain) -> Transducer:
    """Normalise (when needed) and synthesise without the unused binders:
    `optimize(synthesize(normal_form(f, d), d))`, built in one pass.  The
    normal form of a formula that passes `require_safety` passes it too,
    unchecked."""
    return _synthesize(normal_form(f, d), d, raw=False)
