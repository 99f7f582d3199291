"""Regular CCS process terms and finite labelled transition systems.

Processes are built from nil, action/tau prefixing, finite choice and
guarded recursion.  `reachable` explores a term's state space up to a bound,
identifying states by structural term equality (a recursive term is unfolded
only when it fires, so a term and its unfolding never coexist as distinct
states, and each recursive term is unfolded once per exploration).  An LTS
can also be given explicitly, edge by edge.

An LTS numbers its states once, densely, in order of discovery, and keeps
integer successor lists; the algorithms read those.  A set of states is an
int bitmask over the numbering (bit `i` for state `i`): tau-closures and
weak moves are masks, and `LTS.decode` turns one back into states where a
result is printed or handed to a caller.
"""
from __future__ import annotations

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


def step(p: Process, unfold=None):
    """All transitions of a closed process term, in source order: its
    prefix `symbolic.heads`, each once (equal prefixes are one term).
    `unfold` unfolds a recursive term, by default `symbolic.unfold_binder`."""
    out = []
    for head in dict.fromkeys(symbolic.heads(p, ProcessError, unfold)):
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
    they only need to be hashable.  They are numbered once, the initial
    state 0: `states[i]` is state `i`, `index` maps each state to its
    number, and `succ[i]` lists state `i`'s transitions as (label, number).
    The LTS also holds the memos of its tau-closures, weak steps and weak
    moves, which `tau_closure`, `weak_step` and `weak_moves` fill on demand,
    so every algorithm over one LTS derives each of them once.
    """

    def __init__(self, initial, edges, states=None):
        # states in order of first mention: initial, edge ends, then `states`
        index, succ = {}, []

        def number(s):
            i = index.get(s)
            if i is None:
                i = index[s] = len(succ)
                succ.append([])
            return i

        number(initial)
        for src, label, dst in edges:
            i = number(src)
            succ[i].append((label, number(dst)))
        for s in states or ():
            number(s)
        self._number(tuple(index), index, succ)

    def _number(self, states, index, succ):
        """Hold numbered states: `states[i]` is numbered `i` by `index`, and
        `succ[i]` lists its transitions as (label, number)."""
        self.states = states
        self.initial = states[0]
        self.index = index
        self.succ = tuple(map(tuple, succ))
        self._closures: dict = {}
        self._weak: dict = {}
        self._moves: dict = {}

    def index_of(self, state) -> int:
        """The number of a state; ProcessError for anything that is not one."""
        try:
            return self.index[state]
        except (KeyError, TypeError):  # an unhashable value is no state either
            raise ProcessError(f"{state} is not a state of the LTS") from None

    def steps(self, s):
        """The transitions of state `s`, as (label, state) pairs."""
        states = self.states
        return tuple((label, states[j]) for label, j in self.succ[self.index_of(s)])

    def decode(self, mask: int) -> frozenset:
        """The states of a bitmask."""
        states = self.states
        return frozenset(states[i] for i in bits(mask))

    def __len__(self):
        return len(self.states)

    def transitions(self):
        states = self.states
        for i, out in enumerate(self.succ):
            for label, j in out:
                yield states[i], label, states[j]


def bits(mask: int):
    """The numbers of the states in a bitmask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def explore(initial, step_fn, bound: int) -> LTS:
    """BFS closure of a step function; raises StateBoundExceeded past `bound`.
    States are numbered as they are discovered."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    states, index, succ = [initial], {initial: 0}, []
    for src in states:  # the list grows as the search discovers states
        out = []
        for label, dst in step_fn(src):
            j = index.get(dst)
            if j is None:
                if len(states) >= bound:
                    raise StateBoundExceeded(f"more than {bound} reachable states")
                j = index[dst] = len(states)
                states.append(dst)
            out.append((label, j))
        succ.append(out)
    lts = LTS.__new__(LTS)
    lts._number(tuple(states), index, succ)
    return lts


def reachable(p: Process, bound: int) -> LTS:
    """The LTS of a closed process term, explored up to `bound` states.  A
    recursive term met in several states is unfolded once: the unfoldings
    are kept for this exploration only."""
    checked_process(p)
    unfoldings: dict = {}

    def unfold(rec):
        body = unfoldings.get(rec)
        if body is None:
            body = unfoldings[rec] = symbolic.unfold_binder(rec)
        return body

    return explore(p, lambda q: step(q, unfold), bound)


def lts_view(system):
    """The (LTS, state) an explicit system stands for: an LTS its initial
    state, an (LTS, state) pair that state.  None for anything else, which
    callers treat as a process term.  A pair whose state is not a state of
    its LTS raises ProcessError."""
    if isinstance(system, LTS):
        return system, system.initial
    if isinstance(system, tuple) and len(system) == 2 and isinstance(system[0], LTS):
        system[0].index_of(system[1])
        return system
    return None


def as_lts(system, bound: int) -> tuple:
    """The (LTS, state) of a system: an LTS, an (LTS, state) pair, or a
    process term explored up to `bound` states.  Anything else raises
    ProcessError."""
    return lts_view(system) or (reachable(system, bound), system)


def closure(lts: LTS, i: int) -> int:
    """The mask of the states state `i` reaches by silent steps, itself
    included."""
    out = lts._closures.get(i)
    if out is None:
        out, stack, succ = 1 << i, [i], lts.succ
        while stack:
            for label, j in succ[stack.pop()]:
                bit = 1 << j
                if label is TAU and not out & bit:
                    out |= bit
                    stack.append(j)
        lts._closures[i] = out
    return out


def tau_closure(lts: LTS, s) -> int:
    """The mask of the states `s` reaches by silent steps, itself included."""
    return closure(lts, lts.index_of(s))


def weak_moves(lts: LTS, mask: int) -> dict:
    """Each visible label a tau-closed mask of states performs, mapped to
    the mask of its weak derivatives by it: the tau-closures of the label's
    targets."""
    out = lts._moves.get(mask)
    if out is None:
        out, succ = {}, lts.succ
        for i in bits(mask):
            for label, j in succ[i]:
                if label is not TAU:
                    out[label] = out.get(label, 0) | closure(lts, j)
        lts._moves[mask] = out
    return out


def _derivatives(lts: LTS, mask: int, label) -> int:
    """The weak derivatives of a tau-closed mask by one label: tau* label
    tau* (for label tau: tau* passing one tau)."""
    if label is not TAU:
        return weak_moves(lts, mask).get(label, 0)
    out = 0
    for i in bits(mask):
        for lab, j in lts.succ[i]:
            if lab is TAU:
                out |= closure(lts, j)
    return out


def weak_step(lts: LTS, s, label) -> frozenset:
    """Weak derivatives: tau* label tau* (for label tau: tau* passing one tau)."""
    i = lts.index_of(s)
    key = (i, label)
    out = lts._weak.get(key)
    if out is None:
        out = lts._weak[key] = lts.decode(_derivatives(lts, closure(lts, i), label))
    return out


def weak_trace_derivatives(lts: LTS, s, trace) -> frozenset:
    """States reachable via the weak transitions of an observable trace."""
    current = tau_closure(lts, s)
    for action in trace:
        current = _derivatives(lts, current, action)
        if not current:
            break
    return lts.decode(current)


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
            for label, mask in weak_moves(lts, tree[trace]).items():
                tree[trace + (label,)] = mask
                nxt.append(trace + (label,))
        frontier = nxt
    return {trace: lts.decode(mask) for trace, mask in tree.items()}


def traces(lts: LTS, s, depth: int) -> frozenset:
    """All observable traces of length at most `depth`, as tuples of actions."""
    return frozenset(trace_tree(lts, s, depth))
