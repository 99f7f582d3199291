"""Machine-checks of the enforcement correctness criteria on finite instances.

The checks are bounded refutation attempts, not proofs: each one explores the
instance up to explicit state/trace bounds and reports pass, fail (with a
witness), or inconclusive when a bound truncated the search.  Each check
hands `_verdict` a function that returns its failure witness or None, and
`_verdict` turns a `symbolic.BoundExceeded` that function raises into an
inconclusive verdict.

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
formula and one process, whose enforcer, LTS, composite and satisfaction are
derived once and shared by every check run on it.  Normalization takes one
formula and many systems.  Soundness asks if the formula is satisfiable
(`is_sat`), then for the composite's `shortest_violation`, the one search
that decides a failure and names its witness.  Satisfaction is decided by
that search (`sat_oracle`); only the oracle agreement and normalization also
evaluate denotations with `mc_eval`.

The trace-based criteria read one breadth-first search by trace length
(`_trace_classes`).  A trace's verdict depends only on the weak derivatives
it leads to, in the process and in the composite, and on the obligations it
leaves open (necessities mapped to the states that must meet them).  The
search keeps one node per such key, at the first trace in length-then-text
order that reaches it: the subset construction (after De Wulf, Doyen,
Henzinger and Raskin, CAV 2006), so the first failing trace is the one a
walk over every trace would print.  `violates`, the trace-level forcing
relation decided for one trace, is the oracle the search is tested against.

This search and `shortest_violation` step a system one way, by
`processes.weak_moves`, and a necessity one way, by `formulas.residual`;
`after` reads the same `residual`.  `violates` steps states by `weak_step`,
so the oracle does not share the searches' stepping.

Also here: the formula residual (`after`) and the seeded random generators
feeding the suites.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count
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
    necessities,
    require_safety,
    residual,
    unfold,
)
from .modelcheck import mc_eval, sat_oracle, satisfies, shortest_violation
from .normalizer import normalize
from .processes import (
    DEFAULT_STATE_BOUND as DEFAULT_BOUND,
    LTS,
    NIL,
    Choice,
    Prefix,
    Process,
    Rec,
    PVar,
    as_lts,
    free_proc_vars,
    reachable,
    tau_closure,
    weak_moves,
    weak_step,
)
from .runtime import composite_lts
from .symbolic import (
    TAU,
    ActionPattern,
    Binder,
    BoundExceeded,
    Cmp,
    Domain,
    Free,
    Lit,
    SymbolicAction,
    TRUE,
    Val,
    Var,
    fresh_name,
)
from .synthesis import compile_formula
from .transducers import Transducer


class HarnessError(Exception):
    pass


DEFAULT_DEPTH = 6


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


def violates(system, trace, f: Formula, domain: Domain) -> bool:
    """Does the system violate the safety formula along this trace?

    Least-relation membership: falsehood is violated along the empty trace, a
    conjunction along any branch, a necessity by weakly firing a matching
    action and violating the instantiated continuation along the rest, and a
    fixpoint through its unfolding.  A process term is explored up to
    `DEFAULT_STATE_BOUND` states.
    """
    require_closed_safety(f)
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
            cont = residual(g, t[0])
            result = cont is not None and any(
                go(q, t[1:], cont) for q in weak_step(lts, state, t[0])
            )
        else:
            result = False
        memo[key] = result
        return result

    return go(root, tuple(trace), f)


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
    return conj(c for c in (residual(box, label) for box in boxes) if c is not None)


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
    require_safety(f, HarnessError)


# ---------------------------------------------------------------------------
# Correctness criteria


class Pair:
    """One formula/process pair under check, with what the criteria share.

    The enforcer (the one given, else the synthesised one), the process's
    LTS, the instrumented composite and whether the process satisfies the
    formula (by `sat_oracle`) are each derived on first use and kept.  The
    composite is built over the process's LTS, so no process state is
    stepped twice.  A derivation that hits a bound keeps its error instead
    and raises it again at each later use, so every criterion that needs it
    reports the same inconclusive verdict without deriving it again.
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
            except BoundExceeded as exc:
                kept[key] = exc
        if isinstance(kept[key], BoundExceeded):
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


def _trace_classes(system, f: Formula, depth: int, composite: Optional[LTS] = None):
    """The traces of the (LTS, state) system up to the depth, one per class,
    as (trace, (P, C, obligations, falsified)) in length-then-text order.

    P and C are the trace's weak derivatives in the system and in the
    composite (empty without one); obligations pairs each open necessity
    with the tau-closed set of states that must meet it, and falsified says
    whether they reach falsehood, that is, whether the trace violates `f`.
    An obligation steps by its necessity's `residual` and its states'
    `weak_moves`.  A trace's extensions depend only on that key, so each key
    is kept once, at the first trace to reach it.  Labels are those P or C
    perform: a trace neither side performs has no derivatives and, as
    obligation states lie in P, no obligations, so it is never violating and
    never extended.  The depth and formula are checked at the call; the
    nodes are yielded as they are reached.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    require_closed_safety(f)
    lts, root = system
    empty = frozenset()

    def fire(obligations, a):
        # the obligations left after action a, and whether they reach falsehood
        nxt, reached = {}, False
        for box, states in obligations:
            cont = residual(box, a)
            targets = None if cont is None else weak_moves(lts, states).get(a)
            if not targets:
                continue
            cont_boxes, cont_falsified = necessities(cont)
            reached = reached or cont_falsified
            for b in cont_boxes:
                nxt.setdefault(b, set()).update(targets)
        return frozenset((b, frozenset(qs)) for b, qs in nxt.items()), reached

    def walk():
        boxes, falsified = necessities(f)
        p0 = tau_closure(lts, root)
        c0 = empty if composite is None else tau_closure(composite, composite.initial)
        obligations = frozenset((box, p0) for box in boxes)
        layer = [((), (p0, c0, obligations, falsified))]
        seen = {layer[0][1]}
        yield layer[0]
        for _ in range(depth):
            nxt_layer = []
            for trace, (p_set, c_set, obligations, _) in layer:
                p_moves = weak_moves(lts, p_set)
                c_moves = {} if composite is None else weak_moves(composite, c_set)
                for a in sorted(p_moves.keys() | c_moves.keys(), key=str):
                    p_next = p_moves.get(a, empty)
                    opened = fire(obligations, a) if p_next and obligations else (empty, False)
                    key = (p_next, c_moves.get(a, empty), *opened)
                    if key not in seen:
                        seen.add(key)
                        nxt_layer.append((trace + (a,), key))
                        yield nxt_layer[-1]
            layer = nxt_layer

    return walk()


def _verdict(criterion: str, subject: tuple, decide) -> Verdict:
    """The verdict of one check: `decide()` returns the failure witness, or
    None when the check passes.  A bound it hits, a `BoundExceeded`, makes
    the verdict inconclusive; this is the one place that decides so."""
    try:
        witness = decide()
    except BoundExceeded as exc:
        return Verdict(criterion, subject, "inconclusive", str(exc))
    return Verdict(criterion, subject, "pass" if witness is None else "fail", witness)


# Each check reads the pair's derivations in a fixed order (a bare
# `pair.enforcer` derives the enforcer first), so the bound an inconclusive
# verdict names does not depend on which criteria ran on the pair before.


def check_soundness(pair: Pair, depth: int = DEFAULT_DEPTH) -> Verdict:
    """A satisfiable formula must hold of the instrumented system; a failure
    names its shortest violating trace, of any length.  `depth` goes unused;
    it keeps the signature that the benchmark tracer wraps."""

    def decide():
        if is_sat(pair.f, pair.d, pair.bound):
            comp = pair.composite
            witness = shortest_violation((comp, comp.initial), pair.f, pair.d, pair.bound)
            if witness is not None:
                return _trace_text(witness)

    return _verdict("soundness", pair.subject, decide)


def check_transparency(pair: Pair) -> Verdict:
    """Instrumentation must not disturb a system that already satisfies the
    formula: the composite stays strongly bisimilar to the bare system."""

    def decide():
        pair.enforcer
        if pair.holds:
            comp = pair.composite
            equal, witness = bisim(comp, comp.initial, pair.system, pair.p)
            if not equal:
                return f"split on label {witness[0]}"

    return _verdict("transparency", pair.subject, decide)


def check_nvtt(pair: Pair, depth: int) -> Verdict:
    """Non-violating-trace transparency up to the given trace depth: every
    non-violating trace of the process is preserved by instrumentation, and
    the composite adds no such trace with new endpoints."""

    def decide():
        pair.enforcer
        plts = pair.system
        comp = pair.composite
        # a trace one side does not perform has no derivatives there
        for t, (plain, composite, _, falsified) in _trace_classes((plts, pair.p), pair.f, depth, comp):
            if falsified:
                continue
            projected = {cfg.system for cfg in composite}
            for verb, diff in (("loses", plain - projected), ("invents", projected - plain)):
                if diff:
                    return f"trace {_trace_text(t)} {verb} derivative {sorted(map(str, diff))[0]}"

    return _verdict("nvtt", (*pair.subject, f"depth={depth}"), decide)


def check_violation_semantics(pair: Pair, depth: int) -> Verdict:
    """Both violating-trace conditions, bounded: (1) every violating trace
    found must belong to a state-level violator and be weakly performable;
    (2) a state-level violator must exhibit some violating trace within the
    depth, otherwise the depth is a bound it hit and the verdict is
    inconclusive rather than a false pass.  A trace the process does not
    perform leaves no obligations, so a violating trace the search yields is
    performable by construction, and the "not performable" failure only
    shows a fault in the search."""

    def decide():
        plts = pair.system
        nodes = _trace_classes((plts, pair.p), pair.f, depth)
        holds = pair.holds
        found = False
        for t, (plain, _, _, falsified) in nodes:
            if not falsified:
                continue
            if holds:
                return f"{_trace_text(t)} violates but the system satisfies the formula"
            if not plain:
                return f"violating trace {_trace_text(t)} is not performable"
            found = True
        if not holds and not found:
            raise BoundExceeded(f"no violating trace within depth {depth}")

    return _verdict("violation-sem", (*pair.subject, f"depth={depth}"), decide)


def check_normalization(f: Formula, systems, d: Domain) -> Verdict:
    """Normal-form conversion must preserve denotations on every given system
    and produce a formula passing both structural normal-form clauses."""

    def decide():
        nf = normalize(f, d)
        if not classify(nf, d).shmlnf:
            return f"output not normal: {nf}"
        for system in systems:
            lts, _ = as_lts(system, DEFAULT_BOUND)
            before = mc_eval(f, lts, {}, d)
            after_ = mc_eval(nf, lts, {}, d)
            if before != after_:
                return f"denotations differ at state {sorted(map(str, before ^ after_))[0]}"

    return _verdict("normalization-equivalence", (str(f),), decide)


def check_oracle_agreement(pair: Pair) -> Verdict:
    """The coinductive satisfaction route, which the other criteria read as
    `pair.holds`, agrees with the denotational one, `satisfies`."""

    def decide():
        coinductive = pair.holds
        denotational = satisfies((pair.system, pair.p), pair.f, pair.d, pair.bound)
        if denotational != coinductive:
            return f"denotational={denotational} coinductive={coinductive}"

    return _verdict("oracle-agreement", pair.subject, decide)


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
    return _gen_formula(rng, d, set(d.values), size, frozenset(), frozenset(), frozenset())


def _gen_formula(rng, d: Domain, used: set, budget, scope, usable_vars, pending_vars) -> Formula:
    """A formula of `budget` nodes; `used` holds the names taken so far."""
    if budget <= 1:
        roll = rng.random()
        if usable_vars and roll < 0.4:
            return FVar(rng.choice(sorted(usable_vars)))
        return FF if roll < 0.65 else TT
    roll = rng.random()
    if roll < 0.55:
        sa, binders = _gen_symbolic_action(rng, d, scope, used)
        used.update(binders)
        body = _gen_formula(
            rng, d, used, budget - 1, scope | set(binders), usable_vars | pending_vars, frozenset()
        )
        return Box(sa, body)
    if roll < 0.8 and budget >= 3:
        left = _gen_formula(rng, d, used, budget // 2, scope, usable_vars, pending_vars)
        right = _gen_formula(
            rng, d, used, budget - 1 - budget // 2, scope, usable_vars, pending_vars
        )
        return conj((left, right))
    var = f"X{len(used)}"
    used.add(var)
    return Max(var, _gen_formula(rng, d, used, budget - 1, scope, usable_vars, pending_vars | {var}))


def gen_process(d: Domain, size: int, seed: int) -> Process:
    """A closed regular process; deterministic per seed."""
    if not 1 <= size <= MAX_GEN_SIZE:
        raise ValueError(f"process size must be within 1..{MAX_GEN_SIZE}")
    rng = random.Random(f"process:{seed}:{size}")
    return _gen_process(rng, d, count(1), size, frozenset(), frozenset())


def _gen_process(rng, d: Domain, numbers, budget, usable_vars, pending_vars) -> Process:
    """A process of `budget` terms; `numbers` numbers its recursion variables."""
    if budget <= 1:
        if usable_vars and rng.random() < 0.5:
            return PVar(rng.choice(sorted(usable_vars)))
        return NIL
    roll = rng.random()
    if roll < 0.5:
        action = TAU if rng.random() < 0.12 else rng.choice(d.actions)
        return Prefix(
            action, _gen_process(rng, d, numbers, budget - 1, usable_vars | pending_vars, frozenset())
        )
    if roll < 0.8 and budget >= 3:
        left = _gen_process(rng, d, numbers, budget // 2, usable_vars, pending_vars)
        right = _gen_process(rng, d, numbers, budget - 1 - budget // 2, usable_vars, pending_vars)
        return Choice((left, right))
    var = f"R{next(numbers)}"
    body = _gen_process(rng, d, numbers, budget - 1, usable_vars, pending_vars | {var})
    if var in free_proc_vars(body):
        return Rec(var, body)
    return body


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
