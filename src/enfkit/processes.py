"""Regular CCS process terms and finite labelled transition systems.

Processes are built from nil, action/tau prefixing, finite choice and
guarded recursion.  `reachable` explores a term's state space up to a bound,
identifying states by structural term equality (a recursive term is unfolded
only when it fires, so a term and its unfolding never coexist as distinct
states).  An LTS can also be given explicitly, edge by edge.
"""
from __future__ import annotations

from collections import deque
from typing import Union

from . import symbolic
from .symbolic import TAU, Action, BoundExceeded, Shape, term, term_memo


#: The default cap on the states of an explored LTS (a process's, a
#: transducer's or a composite's).
DEFAULT_STATE_BOUND = 10_000


class ProcessError(Exception):
    pass


class StateBoundExceeded(ProcessError, BoundExceeded):
    """State-space exploration hit its configured bound."""


@term(shape=Shape())
class PNil:
    """The process that does nothing."""


@term(shape=Shape("cont", guard=()))
class Prefix:
    label: object  # Action or TAU
    cont: "Process"


@term(shape=Shape("branches"))
class Choice:
    branches: tuple


@term(shape=Shape(occurs="name"))
class PVar:
    name: str


@term(shape=Shape("body", binds="var", occurrence=PVar))
class Rec:
    var: str
    body: "Process"


Process = Union[PNil, Prefix, Choice, Rec, PVar]

NIL = PNil()


# The walkers of process terms are the engine's (`symbolic`).
free_proc_vars = symbolic.free_rec_vars
subst_proc = symbolic.subst_var


def validate_process(p: Process):
    """Reject objects that are not process terms, prefixes whose label is
    neither an action nor tau, open terms, and unguarded recursion (e.g.
    rec X.X), which has no well-defined transition semantics."""
    symbolic.check_term(p, _is_process_node, ProcessError)


#: `validate_process`, remembered for each term that passed.
checked_process = symbolic.checked_memo(validate_process)


def _is_process_node(p) -> bool:
    labelled = not isinstance(p, Prefix) or p.label is TAU or isinstance(p.label, Action)
    return isinstance(p, Process.__args__) and labelled


def step(p: Process):
    """All transitions of a closed process term, in source order: its
    prefix `symbolic.heads`, each once (equal prefixes are one term)."""
    out = []
    for head in dict.fromkeys(symbolic.heads(p, ProcessError)):
        if isinstance(head, PVar):
            raise ProcessError(f"cannot step open term with free {head.name!r}")
        if isinstance(head, Prefix):
            out.append((head.label, head.cont))
    return out


@term_memo
def cached_step(p: Process) -> tuple:
    """`step` of a closed process term, as a tuple, memoised by term: a
    state met again, in this run or a later one, is not stepped again."""
    return tuple(step(p))


# ---------------------------------------------------------------------------
# Labelled transition systems


class LTS:
    """An explicit finite LTS: states, labelled transitions, one initial state.

    States may be process terms, plain strings, or monitored configurations;
    they only need to be hashable.  The LTS also holds the memos of its
    tau-closures, weak steps and weak moves, which `tau_closure`, `weak_step`
    and `weak_moves` fill on demand, so every algorithm over one LTS derives
    each of them once.
    """

    def __init__(self, initial, edges, states=None):
        self.initial = initial
        # states in order of first mention: initial, edge ends, then `states`
        succ = {initial: []}
        for src, label, dst in edges:
            succ.setdefault(src, []).append((label, dst))
            succ.setdefault(dst, [])
        for s in states or ():
            succ.setdefault(s, [])
        self.states = tuple(succ)
        # successor tuples are built once; `steps` hands them out uncopied
        self._steps = {s: tuple(out) for s, out in succ.items()}
        self._closures: dict = {}
        self._weak: dict = {}
        self._moves: dict = {}

    def steps(self, s):
        return self._steps[s]

    def __len__(self):
        return len(self.states)

    def transitions(self):
        for src in self.states:
            for label, dst in self._steps[src]:
                yield src, label, dst


def explore(initial, step_fn, bound: int) -> LTS:
    """BFS closure of a step function; raises StateBoundExceeded past `bound`."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    edges = []
    seen = {initial}
    queue = deque([initial])
    while queue:
        src = queue.popleft()
        for label, dst in step_fn(src):
            edges.append((src, label, dst))
            if dst not in seen:
                if len(seen) >= bound:
                    raise StateBoundExceeded(
                        f"more than {bound} reachable states"
                    )
                seen.add(dst)
                queue.append(dst)
    return LTS(initial, edges)


def reachable(p: Process, bound: int) -> LTS:
    checked_process(p)
    return explore(p, step, bound)


def lts_view(system):
    """The (LTS, state) an explicit system stands for: an LTS its initial
    state, an (LTS, state) pair that state.  None for anything else, which
    callers treat as a process term.  A pair whose state is not a state of
    its LTS raises ProcessError."""
    if isinstance(system, LTS):
        return system, system.initial
    if isinstance(system, tuple) and len(system) == 2 and isinstance(system[0], LTS):
        lts, state = system
        try:
            known = state in lts._steps
        except TypeError:  # unhashable, so no LTS's state
            known = False
        if not known:
            raise ProcessError(f"{state} is not a state of the LTS")
        return system
    return None


def as_lts(system, bound: int) -> tuple:
    """The (LTS, state) of a system: an LTS, an (LTS, state) pair, or a
    process term explored up to `bound` states.  Anything else raises
    ProcessError."""
    return lts_view(system) or (reachable(system, bound), system)


def tau_closure(lts: LTS, s) -> frozenset:
    """The states `s` reaches by silent steps, itself included."""
    out = lts._closures.get(s)
    if out is None:
        seen = {s}
        queue = deque([s])
        while queue:
            cur = queue.popleft()
            for label, dst in lts.steps(cur):
                if label is TAU and dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        out = lts._closures[s] = frozenset(seen)
    return out


def weak_step(lts: LTS, s, label) -> frozenset:
    """Weak derivatives: tau* label tau* (for label tau: tau* passing one tau)."""
    key = (s, label)
    out = lts._weak.get(key)
    if out is None:
        mids = set()
        for q in tau_closure(lts, s):
            for lab, dst in lts.steps(q):
                if lab == label or (lab is TAU and label is TAU):
                    mids.add(dst)
        out = lts._weak[key] = frozenset().union(*(tau_closure(lts, m) for m in mids))
    return out


def weak_trace_derivatives(lts: LTS, s, trace) -> frozenset:
    """States reachable via the weak transitions of an observable trace."""
    current = tau_closure(lts, s)
    for action in trace:
        nxt = set()
        for q in current:
            nxt |= weak_step(lts, q, action)
        current = frozenset(nxt)
        if not current:
            break
    return current


def weak_moves(lts: LTS, states: frozenset) -> dict:
    """Each visible label a tau-closed set of states performs, mapped to the
    set's weak derivatives by it: the tau-closures of the label's targets."""
    out = lts._moves.get(states)
    if out is None:
        moves: dict = {}
        for q in states:
            for label, dst in lts.steps(q):
                if label is not TAU:
                    moves.setdefault(label, set()).update(tau_closure(lts, dst))
        out = lts._moves[states] = {label: frozenset(qs) for label, qs in moves.items()}
    return out


def trace_tree(lts: LTS, s, depth: int) -> dict:
    """Every observable trace of length at most `depth`, mapped to its weak
    derivatives (what `weak_trace_derivatives` gives for it).  Each trace
    extends a shorter one by one action, so the keys close under prefixes
    and every derivative set is derived once from its parent's."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    tree = {(): tau_closure(lts, s)}
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for trace in frontier:
            for label, states in weak_moves(lts, tree[trace]).items():
                tree[trace + (label,)] = states
                nxt.append(trace + (label,))
        frontier = nxt
    return tree


def traces(lts: LTS, s, depth: int) -> frozenset:
    """All observable traces of length at most `depth`, as tuples of actions."""
    return frozenset(trace_tree(lts, s, depth))
