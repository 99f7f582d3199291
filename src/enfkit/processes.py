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
from .symbolic import TAU, Action, Shape, paren, term, term_memo


#: The default cap on the states of an explored LTS (a process's, a
#: transducer's or a composite's).
DEFAULT_STATE_BOUND = 10_000


class ProcessError(Exception):
    pass


class StateBoundExceeded(ProcessError):
    """State-space exploration hit its configured bound."""


@term(shape=Shape())
class PNil:
    def __str__(self):
        return "nil"


@term(shape=Shape("cont", guard=()))
class Prefix:
    label: object  # Action or TAU
    cont: "Process"

    PREC = 2

    def __str__(self):
        return f"{self.label}.{paren(self.cont, 2)}"


@term(shape=Shape("branches"))
class Choice:
    branches: tuple

    PREC = 1

    def __str__(self):
        return " + ".join(paren(b, 2) for b in self.branches)


@term(shape=Shape(occurs="name"))
class PVar:
    name: str

    def __str__(self):
        return self.name


@term(shape=Shape("body", binds="var", occurrence=PVar))
class Rec:
    var: str
    body: "Process"

    PREC = 0

    def __str__(self):
        return f"rec {self.var}.{self.body}"


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
    tau-closures and weak steps, which `tau_closure` and `weak_step` fill on
    demand, so every algorithm over one LTS derives each of them once.
    """

    def __init__(self, initial, edges, states=None):
        self.initial = initial
        succ = {}
        order = []
        seen = set()

        def note(s):
            if s not in seen:
                seen.add(s)
                order.append(s)

        note(initial)
        for src, label, dst in edges:
            note(src)
            note(dst)
            succ.setdefault(src, []).append((label, dst))
        for s in states or ():
            note(s)
        self.states = tuple(order)
        # successor tuples are built once; `steps` hands them out uncopied
        self._steps = {s: tuple(succ.get(s, ())) for s in self.states}
        self._closures: dict = {}
        self._weak: dict = {}

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
    validate_process(p)
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
        nxt = {}
        for trace in frontier:
            for q in tree[trace]:
                for label, dst in lts.steps(q):
                    if label is TAU:
                        continue
                    extended = trace + (label,)
                    nxt.setdefault(extended, set()).update(tau_closure(lts, dst))
        if not nxt:
            break
        for trace, states in nxt.items():
            tree[trace] = frozenset(states)
        frontier = list(nxt)
    return tree


def traces(lts: LTS, s, depth: int) -> frozenset:
    """All observable traces of length at most `depth`, as tuples of actions."""
    return frozenset(trace_tree(lts, s, depth))
