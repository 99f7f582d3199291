"""Machine-checks of the enforcement correctness criteria on finite instances.

The checks are bounded refutation attempts, not proofs: each one explores the
instance up to explicit state/trace bounds and reports pass, fail (with a
witness), or inconclusive when a bound truncated the search.

  soundness      a satisfiable formula holds of every instrumented system;
  transparency   instrumentation leaves satisfying systems strongly bisimilar
                 to themselves;
  nvtt           non-violating traces pass through enforcement unchanged, in
                 both directions;
  violation-sem  the trace-level violation judgement agrees with the
                 state-level semantics;
  normalization  normal-form conversion preserves denotations and yields the
                 required structure;
  oracle         the two satisfaction routes agree on safety formulas.

The first four criteria, and the oracle agreement, take a `Pair`: one
formula and one process, whose enforcer, LTS, composite, satisfaction and
trace tree at each depth are derived once and shared by every check run on
it.  Normalization takes one formula and many systems.  Soundness asks if
the formula is satisfiable (`is_sat`), then for the composite's
`shortest_violation`, the one search that decides a failure and names its
witness.  Satisfaction is decided by that search (`sat_oracle`); only the
oracle agreement and normalization also evaluate denotations with `mc_eval`.

The trace-based criteria decide violation for all their candidate traces at
once: `violating_traces` walks the prefix trie of the candidates and carries
the open obligations from each prefix to its extensions, so a prefix shared
by many candidates is derived once (formula derivatives over a trie, after
Brzozowski, JACM 1964).  nvtt reads each trace's derivatives from the
`trace_tree` of the process and of the composite.  `violates`, the
trace-level forcing relation decided for one trace, is the oracle the walk
is tested against.

Also here: the formula residual (`after`) and the seeded random generators
feeding the suites.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .bisim import bisim
from .formulas import (
    Box,
    FAnd,
    FF,
    FFalse,
    FVar,
    Formula,
    Max,
    TT,
    classify,
    conj,
    free_data_vars,
    free_logic_vars,
    is_guarded,
    is_shml,
    necessities,
    subst_data,
    unfold,
)
from .modelcheck import ClosureBoundExceeded, mc_eval, sat_oracle, satisfies, shortest_violation
from .normalizer import EquationBoundExceeded, MintermBlowup, normalize
from .processes import (
    DEFAULT_STATE_BOUND as DEFAULT_BOUND,
    LTS,
    NIL,
    Choice,
    Prefix,
    Process,
    Rec,
    PVar,
    StateBoundExceeded,
    as_lts,
    free_proc_vars,
    reachable,
    trace_tree,
    weak_step,
)
from .runtime import composite_lts
from .symbolic import (
    TAU,
    ActionPattern,
    Binder,
    Cmp,
    Domain,
    Free,
    Lit,
    SymbolicAction,
    TRUE,
    Val,
    Var,
    fresh_name,
    sym_match,
)
from .synthesis import compile_formula
from .transducers import Transducer


class HarnessError(Exception):
    pass


DEFAULT_DEPTH = 6
#: Violation-semantics also tries every action sequence up to this length.
EXHAUSTIVE_DEPTH = 2

#: Errors raised when a state, closure, minterm or equation bound cuts a
#: computation short.  They make a check inconclusive, never a usage error.
BOUND_ERRORS = (
    StateBoundExceeded,
    ClosureBoundExceeded,
    MintermBlowup,
    EquationBoundExceeded,
)


@dataclass(frozen=True)
class Verdict:
    criterion: str
    subject: tuple
    outcome: str  # 'pass' | 'fail' | 'inconclusive'
    witness: Optional[str] = None

    def __post_init__(self):
        if self.outcome not in ("pass", "fail", "inconclusive"):
            raise ValueError(f"bad outcome {self.outcome!r}")
        if self.outcome == "fail" and not self.witness:
            raise ValueError("a failing verdict needs a witness")

    def line(self) -> str:
        subj = " ".join(str(s) for s in self.subject)
        tail = f" [{self.witness}]" if self.witness else ""
        return f"{self.criterion} {subj!r} {self.outcome}{tail}"


def _trace_text(t) -> str:
    return "·".join(str(a) for a in t) if t else "ε"


# ---------------------------------------------------------------------------
# Violating traces and formula residuals


def _require_safety(f: Formula):
    if not is_shml(f):
        raise HarnessError("violating traces are defined for safety formulas")
    require_closed_safety(f)


def violates(system, trace, f: Formula, domain: Domain) -> bool:
    """Does the system violate the safety formula along this trace?

    Least-relation membership: falsehood is violated along the empty trace, a
    conjunction along any branch, a necessity by weakly firing a matching
    action and violating the instantiated continuation along the rest, and a
    fixpoint through its unfolding.  A process term is explored up to
    `DEFAULT_STATE_BOUND` states.
    """
    _require_safety(f)
    lts, root = as_lts(system, DEFAULT_BOUND)
    memo: dict = {}

    def go(state, t, g) -> bool:
        key = (state, t, g)
        if key in memo:
            return memo[key]
        memo[key] = False  # least relation: cycles contribute nothing
        if isinstance(g, FFalse):
            result = t == ()
        elif isinstance(g, FAnd):
            result = any(go(state, t, item) for item in g.items)
        elif isinstance(g, Max):
            result = go(state, t, unfold(g))
        elif isinstance(g, Box) and t:
            sub = sym_match(g.action, t[0])
            if sub is None:
                result = False
            else:
                cont = subst_data(g.body, sub)
                result = any(go(q, t[1:], cont) for q in weak_step(lts, state, t[0]))
        else:
            result = False
        memo[key] = result
        return result

    return go(root, tuple(trace), f)


class _TrieNode:
    __slots__ = ("children", "trace")

    def __init__(self):
        self.children = {}
        self.trace = None  # the candidate ending here, if any


def violating_traces(system, candidates, f: Formula, domain: Domain) -> frozenset:
    """The candidate traces along which the system violates the safety
    formula: `violates` for every candidate, decided in one walk.

    The walk visits the prefix trie of the candidates with an explicit
    stack.  A node holds the obligations open at its prefix, as the states
    that must still meet each necessity, read off `formulas.necessities`.
    A child fires every necessity whose action matches its own along weak
    steps of the states, and instantiates the continuation.  A node
    violates when its obligations reach falsehood and its trace is a
    candidate.  A process term is explored up to `DEFAULT_STATE_BOUND`
    states.
    """
    _require_safety(f)
    lts, root = as_lts(system, DEFAULT_BOUND)
    trie = _TrieNode()
    for t in candidates:
        node = trie
        for a in t:
            child = node.children.get(a)
            if child is None:
                child = node.children[a] = _TrieNode()
            node = child
        node.trace = tuple(t)

    fired: dict = {}

    def fire(box, a):
        # what the continuation a necessity leaves after action a demands,
        # or None when a does not match it
        key = (box, a)
        if key not in fired:
            sub = sym_match(box.action, a)
            fired[key] = None if sub is None else necessities(subst_data(box.body, sub))
        return fired[key]

    boxes, falsified = necessities(f)
    found = set()
    stack = [(trie, {box: {root} for box in boxes}, falsified)]
    while stack:
        node, open_, falsified = stack.pop()
        if falsified and node.trace is not None:
            found.add(node.trace)
        if not open_:
            continue
        for a, child in node.children.items():
            nxt, reached = {}, False
            for box, states in open_.items():
                cont = fire(box, a)
                if cont is None:
                    continue
                targets = set()
                for s in states:
                    targets |= weak_step(lts, s, a)
                if not targets:
                    continue
                cont_boxes, cont_falsified = cont
                reached = reached or cont_falsified
                for b in cont_boxes:
                    nxt.setdefault(b, set()).update(targets)
            if nxt or reached:
                stack.append((child, nxt, reached))
    return frozenset(found)


def after(f: Formula, label) -> Formula:
    """The residual of a closed, guarded safety formula once the enforcer
    has seen a label: unchanged by a silent step, falsehood when its view
    reaches falsehood, else the conjunction (tt when empty) of the
    instantiated continuations of the necessities the label matches."""
    require_closed_safety(f)
    if label is TAU:
        return f
    boxes, falsified = necessities(f)
    if falsified:
        return FF
    subs = ((box, sym_match(box.action, label)) for box in boxes)
    return conj(subst_data(box.body, sub) for box, sub in subs if sub is not None)


# ---------------------------------------------------------------------------
# Satisfiability


def is_sat(f: Formula, d: Domain, bound: int = DEFAULT_BOUND) -> bool:
    """Satisfiability of a closed, guarded safety formula: a state with no
    transitions meets every necessity vacuously, so only falsehood in the
    `necessities` view makes every state fail it.  `d` and `bound` go
    unused; they keep the signature that the benchmark tracer wraps."""
    require_closed_safety(f)
    return not necessities(f)[1]


def require_closed_safety(f: Formula):
    """Raise HarnessError unless `f` is a closed, guarded safety formula,
    the formulas satisfiability and the criteria are decided for."""
    if free_logic_vars(f) or free_data_vars(f):
        raise HarnessError("formula must be closed")
    if not is_guarded(f):
        raise HarnessError("formula is not guarded")
    if not is_shml(f):
        raise HarnessError("only safety formulas are decided")


# ---------------------------------------------------------------------------
# Correctness criteria


class Pair:
    """One formula/process pair under check, with what the criteria share.

    The enforcer (the one given, else the synthesised one), the process's
    LTS, the instrumented composite, whether the process satisfies the
    formula (by `sat_oracle`) and the process's trace tree at each depth
    are each derived on first use and kept.  The composite is built over
    the process's LTS, so no process state is stepped twice.  A derivation
    that hits a bound keeps its error instead and raises it again at each
    later use, so every criterion that needs it reports the same
    inconclusive verdict without deriving it again.
    """

    def __init__(self, f: Formula, p: Process, d: Domain, enforcer=None, bound=DEFAULT_BOUND):
        self.f, self.p, self.d, self.bound = f, p, d, bound
        self.subject = (str(f), str(p))
        self._kept: dict = {} if enforcer is None else {"enforcer": enforcer}

    def _derived(self, key, derive):
        """`derive()`, run once under `key`: its value, or the bound error it
        raised, is kept."""
        kept = self._kept
        if key not in kept:
            try:
                kept[key] = derive()
            except BOUND_ERRORS as exc:
                kept[key] = exc
        if isinstance(kept[key], BOUND_ERRORS):
            raise kept[key]
        return kept[key]

    @property
    def enforcer(self) -> Transducer:
        return self._derived("enforcer", lambda: compile_formula(self.f, self.d))

    @property
    def system(self) -> LTS:
        return self._derived("system", lambda: reachable(self.p, self.bound))

    @property
    def composite(self) -> LTS:
        return self._derived(
            "composite",
            lambda: composite_lts(self.enforcer, (self.system, self.p), self.d, self.bound),
        )

    @property
    def holds(self) -> bool:
        return self._derived(
            "holds", lambda: sat_oracle((self.system, self.p), self.f, self.d, self.bound)
        )

    def trace_tree(self, depth: int) -> dict:
        """The process's traces up to the depth, with their weak derivatives."""
        return self._derived(depth, lambda: trace_tree(self.system, self.p, depth))


def _in_order(ts):
    return sorted(ts, key=lambda t: (len(t), tuple(map(str, t))))


# Each check reads the pair's derivations in a fixed order (a bare
# `pair.enforcer` derives the enforcer first), so the bound an inconclusive
# verdict names does not depend on which criteria ran on the pair before.


def check_soundness(pair: Pair, depth: int = DEFAULT_DEPTH) -> Verdict:
    """A satisfiable formula must hold of the instrumented system; a failure
    names its shortest violating trace, of any length.  `depth` goes unused;
    it keeps the signature that the benchmark tracer wraps."""
    try:
        if is_sat(pair.f, pair.d, pair.bound):
            comp = pair.composite
            witness = shortest_violation((comp, comp.initial), pair.f, pair.d, pair.bound)
            if witness is not None:
                return Verdict("soundness", pair.subject, "fail", _trace_text(witness))
    except BOUND_ERRORS as exc:
        return Verdict("soundness", pair.subject, "inconclusive", str(exc))
    return Verdict("soundness", pair.subject, "pass")


def check_transparency(pair: Pair) -> Verdict:
    """Instrumentation must not disturb a system that already satisfies the
    formula: the composite stays strongly bisimilar to the bare system."""
    try:
        pair.enforcer
        if pair.holds:
            comp = pair.composite
            equal, witness = bisim(comp, comp.initial, pair.system, pair.p)
            if not equal:
                return Verdict(
                    "transparency", pair.subject, "fail", f"split on label {witness[0]}"
                )
    except BOUND_ERRORS as exc:
        return Verdict("transparency", pair.subject, "inconclusive", str(exc))
    return Verdict("transparency", pair.subject, "pass")


def check_nvtt(pair: Pair, depth: int) -> Verdict:
    """Non-violating-trace transparency up to the given trace depth: every
    non-violating trace of the process is preserved by instrumentation, and
    the composite adds no such trace with new endpoints."""
    f, p = pair.f, pair.p
    subject = (*pair.subject, f"depth={depth}")
    try:
        pair.enforcer
        plts = pair.system
        comp = pair.composite
        # a trace missing from a tree is not performable there: no derivatives
        plain_tree = pair.trace_tree(depth)
        comp_tree = trace_tree(comp, comp.initial, depth)
        relevant = plain_tree.keys() | comp_tree.keys()
        relevant -= violating_traces((plts, p), relevant, f, pair.d)
        for t in _in_order(relevant):
            plain = plain_tree.get(t, frozenset())
            composite = comp_tree.get(t, frozenset())
            projected = {cfg.system for cfg in composite}
            for verb, diff in (("loses", plain - projected), ("invents", projected - plain)):
                if diff:
                    why = f"trace {_trace_text(t)} {verb} derivative {sorted(map(str, diff))[0]}"
                    return Verdict("nvtt", subject, "fail", why)
    except BOUND_ERRORS as exc:
        return Verdict("nvtt", subject, "inconclusive", str(exc))
    return Verdict("nvtt", subject, "pass")


def _shallow_traces(d: Domain, depth: int):
    return [t for n in range(depth + 1) for t in product(d.actions, repeat=n)]


def check_violation_semantics(pair: Pair, depth: int) -> Verdict:
    """Both violating-trace conditions, bounded: (1) every violating trace
    found must belong to a state-level violator and be weakly performable;
    (2) a state-level violator must exhibit some violating trace within the
    depth, otherwise the verdict is inconclusive rather than a false pass."""
    f, p, d = pair.f, pair.p, pair.d
    subject = (*pair.subject, f"depth={depth}")
    try:
        plts = pair.system
        # every candidate is within the depth, so it is performable exactly
        # when it is in the trace tree
        tree = pair.trace_tree(depth)
        candidates = set(tree)
        candidates.update(_shallow_traces(d, min(depth, EXHAUSTIVE_DEPTH)))
        holds = pair.holds
        found = False
        for t in _in_order(violating_traces((plts, p), candidates, f, d)):
            if holds:
                why = f"{_trace_text(t)} violates but the system satisfies the formula"
                return Verdict("violation-sem", subject, "fail", why)
            if t not in tree:
                why = f"violating trace {_trace_text(t)} is not performable"
                return Verdict("violation-sem", subject, "fail", why)
            found = True
        if not holds and not found:
            why = f"no violating trace within depth {depth}"
            return Verdict("violation-sem", subject, "inconclusive", why)
    except BOUND_ERRORS as exc:
        return Verdict("violation-sem", subject, "inconclusive", str(exc))
    return Verdict("violation-sem", subject, "pass")


def check_normalization(f: Formula, systems, d: Domain) -> Verdict:
    """Normal-form conversion must preserve denotations on every given system
    and produce a formula passing both structural normal-form clauses."""
    subject = (str(f),)
    try:
        nf = normalize(f, d)
        flags = classify(nf, d)
        if not flags.shmlnf:
            return Verdict(
                "normalization-equivalence", subject, "fail", f"output not normal: {nf}"
            )
        for system in systems:
            lts, _ = as_lts(system, DEFAULT_BOUND)
            before = mc_eval(f, lts, {}, d)
            after_ = mc_eval(nf, lts, {}, d)
            if before != after_:
                delta = sorted(map(str, before ^ after_))[0]
                return Verdict(
                    "normalization-equivalence",
                    subject,
                    "fail",
                    f"denotations differ at state {delta}",
                )
    except BOUND_ERRORS as exc:
        return Verdict("normalization-equivalence", subject, "inconclusive", str(exc))
    return Verdict("normalization-equivalence", subject, "pass")


def check_oracle_agreement(pair: Pair) -> Verdict:
    """The coinductive satisfaction route, which the other criteria read as
    `pair.holds`, agrees with the denotational one, `satisfies`."""
    try:
        coinductive = pair.holds
        denotational = satisfies((pair.system, pair.p), pair.f, pair.d, pair.bound)
    except BOUND_ERRORS as exc:
        return Verdict("oracle-agreement", pair.subject, "inconclusive", str(exc))
    if denotational != coinductive:
        return Verdict(
            "oracle-agreement",
            pair.subject,
            "fail",
            f"denotational={denotational} coinductive={coinductive}",
        )
    return Verdict("oracle-agreement", pair.subject, "pass")


# ---------------------------------------------------------------------------
# Seeded generators


def _gen_symbolic_action(rng: random.Random, d: Domain, scope, used_names):
    is_input = rng.random() < 0.5
    binders = []

    def slot(values):
        roll = rng.random()
        if roll < 0.45:
            name = fresh_name(set(used_names) | set(d.values) | set(binders) | set(scope))
            binders.append(name)
            return Binder(name)
        if roll < 0.55 and scope:
            return Free(rng.choice(sorted(scope)))
        return Lit(rng.choice(sorted(values)))

    port = slot(d.ports)
    payload = slot(d.payloads)
    pattern = ActionPattern(port, is_input, payload)
    available = list(binders) + sorted(scope)
    condition = TRUE
    if available and rng.random() < 0.55:
        var = rng.choice(available)
        if rng.random() < 0.3 and len(available) > 1:
            other = rng.choice([v for v in available if v != var])
            condition = Cmp(Var(var), Var(other), equal=rng.random() < 0.5)
        else:
            value = rng.choice(sorted(d.values))
            condition = Cmp(Var(var), Val(value), equal=rng.random() < 0.45)
    return SymbolicAction(pattern, condition), binders


MAX_GEN_SIZE = 64


def gen_formula(d: Domain, size: int, seed: int) -> Formula:
    """A closed, guarded safety formula; deterministic per seed."""
    if not 1 <= size <= MAX_GEN_SIZE:
        raise ValueError(f"formula size must be within 1..{MAX_GEN_SIZE}")
    rng = random.Random(f"formula:{seed}:{size}")
    used = set(d.values)

    def go(budget, scope, usable_vars, pending_vars):
        if budget <= 1:
            roll = rng.random()
            if usable_vars and roll < 0.4:
                return FVar(rng.choice(sorted(usable_vars)))
            return FF if roll < 0.65 else TT
        roll = rng.random()
        if roll < 0.55:
            sa, binders = _gen_symbolic_action(rng, d, scope, used)
            used.update(binders)
            body = go(
                budget - 1,
                scope | set(binders),
                usable_vars | pending_vars,
                frozenset(),
            )
            return Box(sa, body)
        if roll < 0.8 and budget >= 3:
            left = go(budget // 2, scope, usable_vars, pending_vars)
            right = go(budget - 1 - budget // 2, scope, usable_vars, pending_vars)
            return conj((left, right))
        var = f"X{len(used)}"
        used.add(var)
        return Max(var, go(budget - 1, scope, usable_vars, pending_vars | {var}))

    return go(size, frozenset(), frozenset(), frozenset())


def gen_process(d: Domain, size: int, seed: int) -> Process:
    """A closed regular process; deterministic per seed."""
    if not 1 <= size <= MAX_GEN_SIZE:
        raise ValueError(f"process size must be within 1..{MAX_GEN_SIZE}")
    rng = random.Random(f"process:{seed}:{size}")
    counter = [0]

    def action():
        if rng.random() < 0.12:
            return TAU
        return rng.choice(d.actions)

    def go(budget, usable_vars, pending_vars):
        if budget <= 1:
            if usable_vars and rng.random() < 0.5:
                return PVar(rng.choice(sorted(usable_vars)))
            return NIL
        roll = rng.random()
        if roll < 0.5:
            return Prefix(action(), go(budget - 1, usable_vars | pending_vars, frozenset()))
        if roll < 0.8 and budget >= 3:
            left = go(budget // 2, usable_vars, pending_vars)
            right = go(budget - 1 - budget // 2, usable_vars, pending_vars)
            return Choice((left, right))
        counter[0] += 1
        var = f"R{counter[0]}"
        body = go(budget - 1, usable_vars, pending_vars | {var})
        if var in free_proc_vars(body):
            return Rec(var, body)
        return body

    return go(size, frozenset(), frozenset())


CORPUS_FORMULA_SIZE = 8
CORPUS_PROCESS_SIZE = 24


def make_corpus(d: Domain, n: int, seed: int):
    """n seeded (formula, process) pairs with sizes cycling up to the caps."""
    out = []
    for i in range(n):
        fsize = 1 + (i % CORPUS_FORMULA_SIZE)
        psize = 1 + ((i * 7 + 3) % CORPUS_PROCESS_SIZE)
        out.append(
            (gen_formula(d, fsize, seed + i), gen_process(d, psize, seed * 31 + i))
        )
    return out
