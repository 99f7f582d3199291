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
    FTrue,
    FVar,
    Formula,
    Max,
    all_names,
    is_shml,
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

    The input is checked to be in normal form, guard disjointness included.
    """
    if not (is_shml(f) and is_shmlnf(f, d)):
        raise SynthesisError("synthesis needs a normal-form safety formula")
    return _syn(f, _Names(avoid=all_names(f)))


def _syn(g, names: _Names) -> Transducer:
    if isinstance(g, (FTrue, FFalse)):
        return ID
    if isinstance(g, FVar):
        return TVar(names.for_var(g.name))
    if isinstance(g, Max):
        return TRec(names.for_var(g.var), _syn(g.body, names))
    branches = necessity_branches(g)
    if not branches:
        return ID
    y = names.fresh_sum_var()
    parts = []
    for b in branches:
        sa = b.action
        if isinstance(b.body, FFalse):
            parts.append(TPrefix(sa.pattern, sa.condition, TAU, TVar(y)))
        else:
            parts.append(
                TPrefix(sa.pattern, sa.condition, underline(sa.pattern), _syn(b.body, names))
            )
    body = parts[0] if len(parts) == 1 else TSum(tuple(parts))
    return TRec(y, body)


def optimize(e: Transducer) -> Transducer:
    """Drop recursive constructs whose variable is never used."""

    def leave(t):
        return t.body if isinstance(t, TRec) and t.var not in free_rec_vars(t.body) else t

    return rebuild(e, lambda t, ctx: (t, ctx), leave=leave)


def compile_formula(f: Formula, d: Domain) -> Transducer:
    """Normalise (when needed), synthesise, optimise.

    A formula already in normal form is synthesised directly, which keeps
    the output syntactically aligned with hand-written enforcers.
    """
    require_safety(f, SynthesisError)
    nf = f if is_shmlnf(f, d) else normalize(f, d)
    return optimize(synthesize(nf, d))
