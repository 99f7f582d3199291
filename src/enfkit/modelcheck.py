"""Model checking over finite LTSs: denotational semantics and a coinductive
satisfaction search for the safety fragment.

`mc_eval` computes exact formula denotations by structural recursion, with
fixpoints iterated to stabilisation (greatest from the full state set, least
from the empty one) and modalities ranging over weak derivatives.

`sat_oracle` decides closed safety formulas by a second, independent route:
a search of the (state, continuation) pairs the satisfaction rules demand,
each read through `formulas.necessities`, which fails exactly when it reaches
falsehood.  The verify path asks only it; the two routes must agree on the
safety fragment.
"""
from __future__ import annotations

from collections import deque

from .formulas import (
    Box,
    Dia,
    FAnd,
    FFalse,
    FOr,
    FTrue,
    FVar,
    Formula,
    Max,
    Min,
    free_data_vars,
    free_logic_vars,
    is_guarded,
    is_shml,
    necessities,
    subst_data,
)
from .processes import DEFAULT_STATE_BOUND, LTS, as_lts, weak_step
from .symbolic import Domain, sym_match


class ModelCheckError(Exception):
    pass


class ClosureBoundExceeded(ModelCheckError):
    pass


#: Cap on the (state, continuation) pairs that one `sat_oracle` search visits.
DEFAULT_CLOSURE_BOUND = 200_000


def mc_eval(f: Formula, lts: LTS, valuation, domain: Domain) -> frozenset:
    """The set of states satisfying `f` under a valuation of its free
    logical variables.  Data variables must already be instantiated."""
    all_states = frozenset(lts.states)

    def ev(g, rho) -> frozenset:
        if isinstance(g, FTrue):
            return all_states
        if isinstance(g, FFalse):
            return frozenset()
        if isinstance(g, FVar):
            if g.name not in rho:
                raise ModelCheckError(f"free logical variable {g.name!r} not valued")
            return rho[g.name]
        if isinstance(g, FAnd):
            out = all_states
            for i in g.items:
                out &= ev(i, rho)
            return out
        if isinstance(g, FOr):
            out = frozenset()
            for i in g.items:
                out |= ev(i, rho)
            return out
        if isinstance(g, Box):
            result = set(all_states)
            for a in domain.actions:
                sub = sym_match(g.action, a)
                if sub is None:
                    continue
                body_set = ev(subst_data(g.body, sub), rho)
                result = {s for s in result if weak_step(lts, s, a) <= body_set}
            return frozenset(result)
        if isinstance(g, Dia):
            result = set()
            for a in domain.actions:
                sub = sym_match(g.action, a)
                if sub is None:
                    continue
                body_set = ev(subst_data(g.body, sub), rho)
                result |= {s for s in all_states if weak_step(lts, s, a) & body_set}
            return frozenset(result)
        if isinstance(g, (Max, Min)):
            greatest = isinstance(g, Max)
            current = all_states if greatest else frozenset()
            for _ in range(len(all_states) + 1):
                nxt = ev(g.body, {**rho, g.var: current})
                if nxt == current:
                    return current
                # monotone iteration: shrinks from the top, grows from the bottom
                assert (nxt < current) if greatest else (nxt > current)
                current = nxt
            raise ModelCheckError("fixpoint iteration failed to stabilise")
        raise ModelCheckError(f"cannot evaluate {g!r}")

    return ev(f, dict(valuation))


def satisfies(system, f: Formula, domain: Domain, bound: int = DEFAULT_STATE_BOUND) -> bool:
    """Membership of a system state in the denotation of a closed formula.

    The system may be a process term, an LTS, or an (LTS, state) pair.
    """
    if free_logic_vars(f):
        raise ModelCheckError("formula must be closed in logical variables")
    lts, state = as_lts(system, bound)
    return state in mc_eval(f, lts, {}, domain)


# ---------------------------------------------------------------------------
# Satisfaction-relation oracle for the safety fragment


def sat_oracle(system, f: Formula, domain: Domain, bound: int = DEFAULT_STATE_BOUND) -> bool:
    """Coinductive satisfaction for closed, guarded safety formulas: a
    breadth-first search of the (state, continuation) pairs from the root,
    each read through `necessities`, where a necessity demands its
    instantiated continuation at every matching weak derivative.  Every rule
    is conjunctive, so the answer is False as soon as a pair's view reaches
    falsehood, before the bound is tested.  More than `DEFAULT_CLOSURE_BOUND`
    pairs raise `ClosureBoundExceeded`."""
    if not is_shml(f) or free_logic_vars(f) or free_data_vars(f) or not is_guarded(f):
        raise ModelCheckError("the satisfaction oracle handles closed, guarded safety formulas")
    lts, root_state = as_lts(system, bound)

    root = (root_state, f)
    seen = {root}
    queue = deque([root])
    while queue:
        state, g = queue.popleft()
        boxes, falsified = necessities(g)
        if falsified:
            return False
        for box in boxes:
            for a in domain.actions:
                sub = sym_match(box.action, a)
                targets = () if sub is None else weak_step(lts, state, a)
                if not targets:
                    continue
                cont = subst_data(box.body, sub)
                if necessities(cont)[1]:  # decided before the bound is tested
                    return False
                new = [(q, cont) for q in targets if (q, cont) not in seen]
                if len(seen) + len(new) > DEFAULT_CLOSURE_BOUND:
                    raise ClosureBoundExceeded("satisfaction closure grew past the bound")
                seen.update(new)
                queue.extend(new)
    return True
