"""Model checking over finite LTSs: denotational semantics and a coinductive
satisfaction search for the safety fragment.

`mc_eval` computes exact formula denotations by structural recursion, with
fixpoints iterated to stabilisation (greatest from the full state set, least
from the empty one) and modalities ranging over weak derivatives.

`shortest_violation` decides closed safety formulas by a second, independent
route: a search of the (state, continuation) pairs the satisfaction rules
demand, which fails exactly when it reaches falsehood and names the trace
that got there; `sat_oracle` is its yes/no answer.  It steps a state by
`processes.weak_moves` and a formula by `formulas.necessities` and
`formulas.residual`, the stepping every production search shares; `mc_eval`
keeps `weak_step` and `sym_match` of its own, so the two routes stay
independent.  The verify path asks only the search, and the two routes must
agree.
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
    free_logic_vars,
    necessities,
    require_safety,
    residual,
    subst_data,
)
from .processes import DEFAULT_STATE_BOUND, LTS, as_lts, tau_closure, weak_moves, weak_step
from .symbolic import BoundExceeded, Domain, sym_match, term_memo


class ModelCheckError(Exception):
    pass


class ClosureBoundExceeded(ModelCheckError, BoundExceeded):
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
        if isinstance(g, (Box, Dia)):
            must = isinstance(g, Box)
            result = set(all_states) if must else set()
            for a in domain.actions:
                sub = sym_match(g.action, a)
                if sub is None:
                    continue
                body_set = ev(subst_data(g.body, sub), rho)
                if must:
                    result = {s for s in result if weak_step(lts, s, a) <= body_set}
                else:
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
    """Coinductive satisfaction for closed, guarded safety formulas."""
    return shortest_violation(system, f, domain, bound) is None


@term_memo
def _text_order(domain: Domain) -> tuple:
    return tuple(sorted(domain.actions, key=str))  # `!` before `?`, unlike `actions`


def shortest_violation(system, f: Formula, domain: Domain, bound: int = DEFAULT_STATE_BOUND):
    """The shortest weak trace along which the system violates a closed,
    guarded safety formula, first in label text order among the shortest,
    or None when it satisfies the formula.  A breadth-first search over
    (state, continuation) pairs: a queue entry is a trace with the pairs it
    reached first, extended by the domain's actions in text order (Clarke et
    al., DAC 1995).  A pair steps by the `weak_moves` of its state's
    tau-closure and by the `residual` of each of its `necessities`.
    Falsehood is decided before the bound is tested: more than
    `DEFAULT_CLOSURE_BOUND` pairs raise `ClosureBoundExceeded`."""
    require_safety(f, ModelCheckError)
    lts, root = as_lts(system, bound)
    if necessities(f)[1]:
        return ()
    seen = {(root, f)}
    queue = deque([((), [(root, f)])])
    while queue:
        trace, pairs = queue.popleft()
        views = [(weak_moves(lts, tau_closure(lts, q)), necessities(g)[0]) for q, g in pairs]
        for a in _text_order(domain):
            reached = []
            for moves, boxes in views:
                targets = moves.get(a)
                if not targets:
                    continue
                for box in boxes:
                    cont = residual(box, a)
                    if cont is None:
                        continue
                    if necessities(cont)[1]:
                        return trace + (a,)
                    new = [(q, cont) for q in targets if (q, cont) not in seen]
                    if len(seen) + len(new) > DEFAULT_CLOSURE_BOUND:
                        raise ClosureBoundExceeded("satisfaction closure grew past the bound")
                    seen.update(new)
                    reached += new
            if reached:
                queue.append((trace + (a,), reached))
    return None
