"""Slow test oracles for the fast algorithms of `enfkit`.

Each oracle computes what a fast function computes by the plain route the
fast one replaced: it enumerates every assignment, recurses over each
class's own constructors, steps states one by one and holds them in sets,
lists every trace, or renames after the fact.  Its docstring names the
function it checks and how it differs.  Which oracle checks which function,
on which inputs and by which relation, is the table `ROWS` of
tests/test_oracles.py.

`descent_parse_formula`, `descent_parse_process`, `descent_parse_transducer`
and `descent_parse_specfile` are the recursive-descent parser that
`parsing`'s one explicit-stack loop replaced, one method per grammar level,
a spec file read line by line.  `method_str` is the printer that
`symbolic.show` replaced, one method per class that parenthesises a subterm
by its class's `PREC`.
"""
import dataclasses
import re
from collections import deque
from dataclasses import dataclass
from itertools import count, product
from typing import Mapping

from enfkit import formulas as F
from enfkit import normalizer as N
from enfkit import processes as P
from enfkit import transducers as T
from enfkit.formulas import necessities
from enfkit.harness import DEFAULT_BOUND, Verdict, _trace_text, after, require_closed_safety
from enfkit.modelcheck import shortest_violation
from enfkit.parsing import ParseError, SpecFile, _parse_name_set
from enfkit.processes import (
    Choice, Prefix, ProcessError, PVar, Rec, as_lts, subst_proc, trace_tree, traces,
    validate_process, weak_step,
)
from enfkit.runtime import Config, composite_lts
from enfkit.symbolic import (
    DONE,
    FALSE,
    INSERT,
    KEYWORDS,
    TAU,
    TRUE,
    Action,
    ActionPattern,
    And,
    Binder,
    BoundExceeded,
    CFalse,
    Cmp,
    Condition,
    CTrue,
    Domain,
    Free,
    InsertPattern,
    Lit,
    Not,
    Or,
    SymbolicAction,
    UnboundVariable,
    Val,
    Var,
    _colourable,
    conjoin,
    denote,
    disjoint,
    eval_condition,
    free_data_vars,
    fresh_name,
    match,
    rebuild,
    subst_data,
    subst_pattern,
    subst_term,
    sym_match,
    term_key,
    underline,
)
from enfkit.transducers import (
    ID, TId, TPrefix, TRec, TSum, TVar, TransducerError, _instantiate_target, subst_rec, tstep,
    validate_transducer,
)


def structurally_equal(a, b) -> bool:
    """Whether two values are equal field by field: terms of one class with
    equal fields, tuples of equal items, or other values that are `==`.  It
    reads `dataclasses.fields` on an explicit stack, so it never calls a
    term's own `==` or hash and takes terms of any depth."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if dataclasses.is_dataclass(x):
            stack.extend((getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
        elif type(x) is tuple:
            if len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def values_sub(assignment: Mapping[str, str]) -> dict:
    return {k: Val(v) for k, v in assignment.items()}


def denote_under(sa: SymbolicAction, d: Domain, env: Mapping[str, str]) -> frozenset:
    """Denotation of a possibly open symbolic action, closing it with env."""
    sub = {k: v for k, v in values_sub(env).items() if k not in sa.binders}
    closed = SymbolicAction(subst_pattern(sa.pattern, sub), naive_subst_condition(sa.condition, sub))
    return denote(closed, d)


def assignments(variables, d: Domain):
    """All assignments of the given variables into the domain's value universe."""
    names = sorted(variables)
    values = sorted(d.values)
    for combo in product(values, repeat=len(names)):
        yield dict(zip(names, combo))


def naive_satisfiable(c: Condition, variables, d: Domain) -> bool:
    """`satisfiable` by enumerating every assignment."""
    missing = _naive_cond_vars(c) - frozenset(variables)
    if missing:
        raise UnboundVariable(f"condition mentions undeclared variables {sorted(missing)}")
    return any(naive_eval_condition(c, values_sub(env)) for env in assignments(variables, d))


def naive_disjoint_under(sa1: SymbolicAction, sa2: SymbolicAction, d: Domain) -> bool:
    """`disjoint_under` by enumerating every assignment of the outer variables
    and intersecting denotations."""
    outer = sa1.free_vars | sa2.free_vars
    if not outer:
        return disjoint(sa1, sa2, d)
    return all(
        not (denote_under(sa1, d, env) & denote_under(sa2, d, env))
        for env in assignments(outer, d)
    )


# ---------------------------------------------------------------------------
# Conditions by plain recursion over their own constructors


def naive_eval_condition(c: Condition, sub) -> bool:
    """`symbolic.eval_condition` by recursion."""
    if isinstance(c, CTrue):
        return True
    if isinstance(c, CFalse):
        return False
    if isinstance(c, Cmp):
        lv, rv = (_naive_value(t, sub) for t in (c.left, c.right))
        return (lv == rv) if c.equal else (lv != rv)
    if isinstance(c, Not):
        return not naive_eval_condition(c.item, sub)
    if isinstance(c, And):
        return all(naive_eval_condition(i, sub) for i in c.items)
    return any(naive_eval_condition(i, sub) for i in c.items)


def _naive_value(t, sub) -> str:
    if isinstance(t, Val):
        return t.name
    resolved = sub.get(t.name)
    if not isinstance(resolved, Val):
        raise UnboundVariable(f"variable {t.name!r} is unbound")
    return resolved.name


def naive_cond_key(c: Condition, level: int, env):
    """`symbolic.cond_key` by recursion."""
    if isinstance(c, Cmp):
        op = "=" if c.equal else "!="
        return (op, term_key(c.left, level, env), term_key(c.right, level, env))
    if isinstance(c, (CTrue, CFalse)):
        return str(c)
    if isinstance(c, Not):
        return ("!", naive_cond_key(c.item, level, env))
    op = "&&" if isinstance(c, And) else "||"
    return (op, *(naive_cond_key(i, level, env) for i in c.items))


def naive_subst_condition(c: Condition, sub) -> Condition:
    """`symbolic.subst_data` on a condition, by recursion."""
    if not sub or isinstance(c, (CTrue, CFalse)):
        return c
    if isinstance(c, Cmp):
        return Cmp(subst_term(c.left, sub), subst_term(c.right, sub), c.equal)
    if isinstance(c, Not):
        return Not(naive_subst_condition(c.item, sub))
    cls = And if isinstance(c, And) else Or
    return cls(tuple(naive_subst_condition(i, sub) for i in c.items))


def naive_decide(c: Condition, domain_of) -> bool:
    """`symbolic._decide` by recursion: the condition is put into negation
    normal form, a clause of atoms and disjunctions, and the search applies
    a clause's atoms before it branches on its first disjunction."""
    clause = _naive_clause(c, True)
    if clause is None:
        return False
    return _naive_search({}, {}, [], clause[0], clause[1], domain_of)


def _naive_clause(c: Condition, positive: bool):
    """The negation normal form of `c` (of `!c` when not `positive`) as a
    clause `(atoms, disjunctions)`: atoms are `(equal, term, term)` triples and
    each disjunction is a tuple of clauses.  None stands for false."""
    if isinstance(c, Not):
        return _naive_clause(c.item, not positive)
    if isinstance(c, (CTrue, CFalse)):
        return ((), ()) if isinstance(c, CTrue) == positive else None
    if isinstance(c, Cmp):
        equal = c.equal == positive
        left, right = c.left, c.right
        if left == right or (isinstance(left, Val) and isinstance(right, Val)):
            return ((), ()) if (left == right) == equal else None
        return (((equal, left, right),), ())
    if isinstance(c, And) == positive:
        atoms, ors = [], []
        for item in c.items:
            sub = _naive_clause(item, positive)
            if sub is None:
                return None
            atoms += sub[0]
            ors += sub[1]
        return tuple(atoms), tuple(ors)
    alternatives = []
    for item in c.items:
        sub = _naive_clause(item, positive)
        if sub == ((), ()):
            return sub
        if sub is not None:
            alternatives.append(sub)
    if len(alternatives) <= 1:
        return alternatives[0] if alternatives else None
    return (), (tuple(alternatives),)


def _naive_search(parent, values, diseqs, atoms, ors, domain_of) -> bool:
    def find(t):
        root = parent.get(t)
        if root is None:
            parent[t] = t
            values[t] = domain_of(t.name) if isinstance(t, Var) else frozenset((t.name,))
            return t
        while root != parent[root]:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    for equal, left, right in atoms:
        a, b = find(left), find(right)
        if equal:
            if a != b:
                common = values[a] & values[b]
                if not common:
                    return False
                parent[b] = a
                values[a] = common
        else:
            diseqs.append((left, right))
    for left, right in diseqs:
        a, b = find(left), find(right)
        if a == b or (len(values[a]) == 1 and values[a] == values[b]):
            return False
    if not ors:
        return _colourable({(find(l), find(r)) for l, r in diseqs}, values)
    first, rest = ors[0], ors[1:]
    return any(
        _naive_search(dict(parent), dict(values), list(diseqs), sub_atoms, sub_ors + rest, domain_of)
        for sub_atoms, sub_ors in first
    )


def in_order(ts):
    """Traces by length, then by the text of their labels."""
    return sorted(ts, key=lambda t: (len(t), tuple(map(str, t))))


class _TrieNode:
    __slots__ = ("children", "trace")

    def __init__(self):
        self.children = {}
        self.trace = None  # the candidate ending here, if any


def violating_traces(system, candidates, f, domain: Domain) -> frozenset:
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
    require_closed_safety(f)
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


#: The trie route also asks about every action sequence up to this length.
EXHAUSTIVE_DEPTH = 2


def shallow_traces(d: Domain, depth: int):
    """Every sequence of the domain's actions up to the depth."""
    return [t for n in range(depth + 1) for t in product(d.actions, repeat=n)]


def trie_nvtt(pair, depth: int) -> Verdict:
    """`check_nvtt` over the trace trees of the process and the composite:
    every trace either performs, less those `violating_traces` finds, is
    compared in `in_order`."""
    subject = (*pair.subject, f"depth={depth}")
    try:
        pair.enforcer
        plts = pair.system
        comp = pair.composite
        # a trace missing from a tree is not performable there: no derivatives
        plain_tree = trace_tree(plts, pair.p, depth)
        comp_tree = trace_tree(comp, comp.initial, depth)
        relevant = plain_tree.keys() | comp_tree.keys()
        relevant -= violating_traces((plts, pair.p), relevant, pair.f, pair.d)
        for t in in_order(relevant):
            plain = plain_tree.get(t, frozenset())
            composite = comp_tree.get(t, frozenset())
            projected = {cfg.system for cfg in composite}
            for verb, diff in (("loses", plain - projected), ("invents", projected - plain)):
                if diff:
                    why = f"trace {_trace_text(t)} {verb} derivative {sorted(map(str, diff))[0]}"
                    return Verdict("nvtt", subject, "fail", why)
    except BoundExceeded as exc:
        return Verdict("nvtt", subject, "inconclusive", str(exc))
    return Verdict("nvtt", subject, "pass")


def trie_violation_semantics(pair, depth: int) -> Verdict:
    """`check_violation_semantics` over the process's trace tree and every
    action sequence up to `EXHAUSTIVE_DEPTH`, each candidate decided by
    `violating_traces` and read in `in_order`."""
    subject = (*pair.subject, f"depth={depth}")
    try:
        plts = pair.system
        # every candidate is within the depth, so it is performable exactly
        # when it is in the trace tree
        tree = trace_tree(plts, pair.p, depth)
        candidates = set(tree)
        candidates.update(shallow_traces(pair.d, min(depth, EXHAUSTIVE_DEPTH)))
        holds = pair.holds
        found = False
        for t in in_order(violating_traces((plts, pair.p), candidates, pair.f, pair.d)):
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
    except BoundExceeded as exc:
        return Verdict("violation-sem", subject, "inconclusive", str(exc))
    return Verdict("violation-sem", subject, "pass")


def naive_tau_closure(lts, s) -> frozenset:
    """The states `s` reaches by silent steps, itself included, as a set."""
    seen = {s}
    queue = deque([s])
    while queue:
        cur = queue.popleft()
        for label, dst in lts.steps(cur):
            if label is TAU and dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return frozenset(seen)


def naive_weak_moves(lts, states: frozenset) -> dict:
    """Each visible label a tau-closed set of states performs, mapped to the
    set of the tau-closures of the label's targets."""
    moves: dict = {}
    for q in states:
        for label, dst in lts.steps(q):
            if label is not TAU:
                moves.setdefault(label, set()).update(naive_tau_closure(lts, dst))
    return {label: frozenset(qs) for label, qs in moves.items()}


def naive_trace_classes(system, f, depth: int, composite=None) -> list:
    """`harness._trace_classes` over sets of states: the same classes, each
    key's derivative and obligation sets as frozensets of states."""
    lts, root = system
    empty = frozenset()

    def fire(obligations, a):
        nxt, reached = {}, False
        for box, states in obligations:
            cont = F.residual(box, a)
            targets = None if cont is None else naive_weak_moves(lts, states).get(a)
            if not targets:
                continue
            cont_boxes, cont_falsified = necessities(cont)
            reached = reached or cont_falsified
            for b in cont_boxes:
                nxt.setdefault(b, set()).update(targets)
        return frozenset((b, frozenset(qs)) for b, qs in nxt.items()), reached

    boxes, falsified = necessities(f)
    p0 = naive_tau_closure(lts, root)
    c0 = empty if composite is None else naive_tau_closure(composite, composite.initial)
    layer = [((), (p0, c0, frozenset((box, p0) for box in boxes), falsified))]
    out, seen = list(layer), {layer[0][1]}
    for _ in range(depth):
        nxt_layer = []
        for trace, (p_set, c_set, obligations, _) in layer:
            p_moves = naive_weak_moves(lts, p_set)
            c_moves = {} if composite is None else naive_weak_moves(composite, c_set)
            for a in sorted(p_moves.keys() | c_moves.keys(), key=str):
                p_next = p_moves.get(a, empty)
                opened = fire(obligations, a) if p_next and obligations else (empty, False)
                key = (p_next, c_moves.get(a, empty), *opened)
                if key not in seen:
                    seen.add(key)
                    nxt_layer.append((trace + (a,), key))
        out += nxt_layer
        layer = nxt_layer
    return out


def naive_union(lts1, lts2) -> P.LTS:
    """The disjoint union of two LTSs: state `s` of side `i` is `(i, s)`."""
    sides = ((0, lts1), (1, lts2))
    edges = [((i, s), label, (i, t)) for i, lts in sides for s, label, t in lts.transitions()]
    return P.LTS((0, lts1.initial), edges, [(i, s) for i, lts in sides for s in lts.states])


def naive_coarsest_partition(lts) -> dict:
    """Signature refinement over an LTS's states themselves: the block index
    of every state in the coarsest strong-bisimulation partition."""
    block_of = dict.fromkeys(lts.states, 0)
    n_blocks = 1
    while True:
        renumber = {}
        new_block_of = {}
        for s in lts.states:
            key = (block_of[s], frozenset((label, block_of[t]) for label, t in lts.steps(s)))
            new_block_of[s] = renumber.setdefault(key, len(renumber))
        if len(renumber) == n_blocks:
            return new_block_of
        n_blocks = len(renumber)
        block_of = new_block_of


def union_bisim(lts1, s1, lts2, s2):
    """`bisim.bisim` over the (side, state) union of its operands: the
    verdict, and the first label in text order on which the roots'
    successor block sets differ."""
    union = naive_union(lts1, lts2)
    block_of = naive_coarsest_partition(union)
    left, right = (0, s1), (1, s2)
    if block_of[left] == block_of[right]:
        return True, None
    succ: dict = {}
    for side, s in enumerate((left, right)):
        for label, t in union.steps(s):
            succ.setdefault(label, (set(), set()))[side].add(block_of[t])
    label = next((l for l in sorted(succ, key=str) if succ[l][0] != succ[l][1]), None)
    return False, (str(label),) if label is not None else ("<structural>",)


def depth_bounded_witness(system, f, d: Domain, depth: int):
    """`shortest_violation` within a depth: every trace of the (LTS, state)
    system up to the depth, the violating ones among them by
    `violating_traces`, and the first of those in `in_order`; None when no
    trace within the depth violates."""
    lts, state = system
    found = violating_traces(system, traces(lts, state, depth), f, d)
    return next(iter(in_order(found)), None)


def naive_istep(cfg: Config, sys_steps, domain: Domain):
    """`runtime.istep` by scanning every transform of a fresh `tstep` for
    each system move: the same list, in the same order."""
    transforms = tstep(cfg.enforcer, domain)
    sys_moves = sys_steps(cfg.system)
    inserts = [((g, u), e2) for (g, u), e2 in transforms if g is INSERT]
    handled = {g for (g, _), _ in transforms if g is not INSERT}

    out = []
    for label, target in sys_moves:
        if label is TAU:
            continue
        for (gamma, produced), e2 in transforms:
            if gamma is not INSERT and gamma == label:
                out.append(("iTrn", produced, Config(e2, target)))
    for label, target in sys_moves:
        if label is TAU:
            out.append(("iAsy", TAU, Config(cfg.enforcer, target)))
    for (_, produced), e2 in inserts:
        out.append(("iIns", produced, Config(e2, cfg.system)))
    if not inserts:
        for label, target in sys_moves:
            if label is TAU or label in handled:
                continue
            out.append(("iTer", label, Config(ID, target)))
    return out


def naive_step(p):
    """`processes.step` by a recursive walk over choices and unfoldings."""
    out = []

    def walk(term):
        if isinstance(term, Prefix):
            if (term.label, term.cont) not in out:
                out.append((term.label, term.cont))
        elif isinstance(term, Choice):
            for b in term.branches:
                walk(b)
        elif isinstance(term, Rec):
            walk(subst_proc(term.body, term.var, term))
        elif isinstance(term, PVar):
            raise ProcessError(f"cannot step open term with free {term.name!r}")

    walk(p)
    return out


def naive_tstep(e, domain: Domain):
    """`transducers.tstep` by a recursive walk over sums and unfoldings,
    matching every transform prefix against every action and `INSERT`."""
    out = []

    def emit(move):
        if move not in out:
            out.append(move)

    def walk(term):
        if isinstance(term, TId):
            for a in domain.actions:
                emit(((a, a), term))
        elif isinstance(term, TPrefix):
            for gamma in (*domain.actions, INSERT):
                sub = match(term.pattern, gamma)
                if sub is not None and eval_condition(term.condition, sub):
                    produced = _instantiate_target(term.target, sub)
                    emit(((gamma, produced), subst_data(term.cont, sub)))
        elif isinstance(term, TSum):
            for b in term.branches:
                walk(b)
        elif isinstance(term, TRec):
            walk(subst_rec(term.body, term.var, term))
        elif isinstance(term, TVar):
            raise TransducerError(f"cannot step open term with free {term.name!r}")

    walk(e)
    return out


# ---------------------------------------------------------------------------
# Per-term facts by plain recursion over each language's own constructors

_VARIABLES = (F.FVar, P.PVar, T.TVar)
_BINDERS = (F.Max, F.Min, P.Rec, T.TRec)
_PREFIXES = (F.Box, F.Dia, P.Prefix, T.TPrefix)


def naive_kids(t) -> tuple:
    """The subterms of a term of the three languages, by its class."""
    if isinstance(t, (F.FAnd, F.FOr)):
        return t.items
    if isinstance(t, (P.Choice, T.TSum)):
        return t.branches
    if isinstance(t, (F.Box, F.Dia, *_BINDERS)):
        return (t.body,)
    if isinstance(t, (P.Prefix, T.TPrefix)):
        return (t.cont,)
    return ()


def _slot_names(pattern, kind) -> frozenset:
    slots = (getattr(pattern, "port", None), getattr(pattern, "payload", None))
    return frozenset(s.name for s in slots if isinstance(s, kind))


def _naive_cond_vars(c) -> frozenset:
    if isinstance(c, Cmp):
        return frozenset(x.name for x in (c.left, c.right) if isinstance(x, Var))
    if isinstance(c, Not):
        return _naive_cond_vars(c.item)
    return frozenset().union(*map(_naive_cond_vars, getattr(c, "items", ())))


def naive_free_rec_vars(t) -> frozenset:
    """`symbolic.free_rec_vars` by recursion."""
    if isinstance(t, _VARIABLES):
        return frozenset({t.name})
    out = frozenset().union(*map(naive_free_rec_vars, naive_kids(t)))
    return out - {t.var} if isinstance(t, _BINDERS) else out


def naive_free_data_vars(t) -> frozenset:
    """`symbolic.free_data_vars` by recursion: a guard's pattern binders bind
    in its condition, its transform target and the continuation."""
    out = frozenset().union(*map(naive_free_data_vars, naive_kids(t)))
    if isinstance(t, (F.Box, F.Dia)):
        source, condition, target = t.action.pattern, t.action.condition, None
    elif isinstance(t, T.TPrefix):
        source, condition, target = t.pattern, t.condition, t.target
    else:
        return out
    inner = out | _naive_cond_vars(condition) | _slot_names(target, Free)
    return _slot_names(source, Free) | (inner - _slot_names(source, Binder))


def naive_unguarded(t):
    """`symbolic.unguarded` by recursion: the recursion variables free in `t`
    outside every prefix; or, as a str, a bound variable with such an
    occurrence in its binder's body, the innermost, leftmost one."""
    values = [naive_unguarded(k) for k in naive_kids(t)]
    bad = [v for v in values if isinstance(v, str)]
    if bad:
        return bad[0]
    if isinstance(t, _VARIABLES):
        return frozenset({t.name})
    if isinstance(t, _PREFIXES):
        return frozenset()
    out = frozenset().union(*values)
    return t.var if isinstance(t, _BINDERS) and t.var in out else out


def naive_is_shml(t) -> bool:
    """`formulas.is_shml` by recursion."""
    safe = isinstance(t, (F.FTrue, F.FFalse, F.FVar, F.FAnd, F.Box, F.Max))
    return safe and all(map(naive_is_shml, naive_kids(t)))


def naive_is_shmlnf(t, d: Domain) -> bool:
    """`formulas.is_shmlnf` by recursion, deciding guard disjointness by
    enumeration."""
    if isinstance(t, F.Max) and t.var not in naive_free_rec_vars(t.body):
        return False
    if isinstance(t, F.FAnd):
        items = t.items
        if not all(isinstance(b, F.Box) for b in items) or not all(
            naive_disjoint_under(a.action, b.action, d)
            for i, a in enumerate(items) for b in items[i + 1:]
        ):
            return False
    elif not isinstance(t, (F.FTrue, F.FFalse, F.FVar, F.Box, F.Max)):
        return False
    return all(naive_is_shmlnf(k, d) for k in naive_kids(t))


# ---------------------------------------------------------------------------
# Stage 5 with every determinised state aligned and split again


def naive_stage5_powerset(eqs: N.EquationSystem) -> N.EquationSystem:
    """`normalizer.stage5_powerset` without its shortcut for a state of one
    variable: every state's branches, merged or not, are aligned and split
    into minterms again, then grouped by action."""
    builder = eqs.builder

    def set_body(keys):
        parts = [builder.minterm_body(k) for k in sorted(keys)]
        if any(p == "ff" for p in parts):
            return "ff"
        merged = tuple(br for p in parts if p != "tt" for br in p)
        if not merged:
            return "tt"
        merged = N._mintermize_branches(N._align_branches(builder, merged), builder.domain)
        grouped: dict = {}
        for br in merged:
            grouped.setdefault(br.action, set()).add(br.target)
        return tuple(N.Branch(sa, frozenset(targets)) for sa, targets in grouped.items())

    start = frozenset((eqs.start,))
    return N._merge_duplicate_bodies(N._snapshot(builder, start, set_body))


# ---------------------------------------------------------------------------
# Stage 6 and the pattern pre-pass as they were before each binder was named
# once


def naive_stage6_rebuild(eqs: N.EquationSystem) -> F.Formula:
    """`normalizer.stage6_rebuild` by recursion: binders are first named in
    the order they are referred to, then renamed in pre-order."""
    formula, dangling = _naive_visit(eqs, eqs.start, frozenset(), {}, count(1))
    if dangling:
        raise N.NormalizeError(f"rebuild left unbound references {sorted(map(N.var_name, dangling))}")
    return naive_renumber_binders(formula)


def _naive_visit(eqs: N.EquationSystem, key, path: frozenset, names: dict, made):
    if key in path:
        if key not in names:
            names[key] = f"X{len(names)}"
        return F.FVar(names[key]), {key}
    body = eqs.body(key)
    if body == "tt":
        return F.TT, set()
    if body == "ff":
        return F.FF, set()
    inner = path | {key}
    parts = []
    referenced: set = set()
    for br in body:
        if next(made) > N.MAX_REBUILD_BOXES:
            raise N.EquationBoundExceeded("the rebuilt formula grew past the safety bound")
        sub, refs = _naive_visit(eqs, br.target, inner, names, made)
        parts.append(F.Box(br.action, sub))
        referenced |= refs
    formula = F.conj(tuple(parts))
    if key in referenced:
        referenced.discard(key)
        formula = F.Max(names[key], formula)
    return formula, referenced


def naive_renumber_binders(f: F.Formula) -> F.Formula:
    """Rename fixpoint binders positionally, X0, X1, ... in pre-order."""
    counter = count()

    def enter(g, mapping):
        if isinstance(g, F.FVar):
            return F.FVar(mapping[g.name]), DONE
        if isinstance(g, (F.Max, F.Min)):
            fresh = f"X{next(counter)}"
            return type(g)(fresh, g.body), {**mapping, g.var: fresh}
        return g, mapping

    return rebuild(f, enter, {})


def naive_normalize_formula_patterns(f: F.Formula, d: Domain) -> F.Formula:
    """`normalizer.normalize_formula_patterns` with a copy of the used names
    at every guard."""
    used = set(F.all_names(f)) | set(d.values)

    def enter(g, ctx):
        if isinstance(g, (F.Box, F.Dia)):
            sa = _naive_normalize_pattern(g.action, frozenset(used))
            used.update(sa.binders)
            g = type(g)(sa, g.body)
        return g, ctx

    return rebuild(f, enter)


def _naive_normalize_pattern(sa: SymbolicAction, avoid: frozenset) -> SymbolicAction:
    used = set(avoid) | sa.binders | sa.free_vars | free_data_vars(sa.condition)
    new_slots = []
    equalities = []
    for slot in (sa.pattern.port, sa.pattern.payload):
        if isinstance(slot, Binder):
            new_slots.append(slot)
            continue
        name = fresh_name(used)
        used.add(name)
        new_slots.append(Binder(name))
        old = Val(slot.value) if isinstance(slot, Lit) else Var(slot.name)
        equalities.append(Cmp(Var(name), old, equal=True))
    if not equalities:
        return sa
    pattern = ActionPattern(new_slots[0], sa.pattern.is_input, new_slots[1])
    return SymbolicAction(pattern, conjoin([sa.condition, *equalities]))


# ---------------------------------------------------------------------------
# The synthesis theorems for every system at once: an enforcer is checked
# once per formula, against the chaos process for soundness and against the
# formula's residuals for transparency


def chaos(d: Domain) -> P.Process:
    """The process that performs every action of `d`, forever:
    `rec U. Σ_{a ∈ Act} a.U` (CHAOS in CSP)."""
    return Rec("U", Choice(tuple(Prefix(a, PVar("U")) for a in d.actions)))


def one_path(trace) -> P.Process:
    """The process `a1.a2. ... .an.nil` that performs `trace` and stops."""
    p = P.NIL
    for a in reversed(trace):
        p = Prefix(a, p)
    return p


def enforcer_moves(e, a: Action, d: Domain) -> tuple:
    """The (output, next enforcer) pairs of `e` on a system action `a` in a
    composite: its transforms of `a`, else, when it can insert nothing, `a`
    itself and the identity (rule iTer)."""
    table = T.transform_table(e, d)
    return table.by_action.get(a) or (() if table.inserts else ((a, ID),))


def universal_soundness(e, f, d: Domain):
    """None when the composite of `e` with `chaos(d)` satisfies `f`: every
    system's composite performs only traces chaos's does, and sHML holds of
    a system exactly when no trace of it violates the formula, so `e` is
    then sound for every system.  Otherwise an input trace on which the
    composite violates `f`: the shortest violating output trace, traced back
    breadth first through `e`'s moves and insertions."""
    comp = composite_lts(e, chaos(d), d)
    outputs = shortest_violation((comp, comp.initial), f, d)
    if outputs is None:
        return None
    start = (e, 0)
    parent = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state[1] == len(outputs):
            trace = []
            while parent[state] is not None:
                state, a = parent[state]
                if a is not None:
                    trace.append(a)
            return tuple(reversed(trace))
        at, i = state
        moves = [(a, m) for a in d.actions for m in enforcer_moves(at, a, d)]
        moves += [(None, m) for m in T.transform_table(at, d).inserts]
        for a, (produced, nxt) in moves:
            j = i if produced is TAU else i + 1 if produced == outputs[i] else None
            if j is not None and (nxt, j) not in parent:
                parent[(nxt, j)] = (state, a)
                queue.append((nxt, j))
    raise AssertionError(f"no input of the enforcer gives the outputs {_trace_text(outputs)}")


def universal_transparency(e, f, d: Domain):
    """None when, at each pair (e', ψ) reached breadth first from (e, f),
    e' passes every action a whose residual ψ after a is not falsified as a
    itself, with one move and no insertion, and the pair steps to (e'', ψ
    after a), a residual keeping each necessity once.  Then for every
    p ⊨ f, pairing each p' with <e', p'> is a strong bisimulation.
    Otherwise the first trace t·a in breadth-first, action text order at
    which that fails: `one_path(t·a)` satisfies `f`, and its composite is
    not bisimilar to it."""
    boxes, falsified = necessities(f)
    if falsified:
        return None
    start = (e, F.conj(dict.fromkeys(boxes)))
    queue, seen = deque([((), *start)]), {start}
    while queue:
        trace, at, psi = queue.popleft()
        inserts = T.transform_table(at, d).inserts
        for a in sorted(d.actions, key=str):
            boxes, falsified = necessities(after(psi, a))
            if falsified:
                continue
            moves = enforcer_moves(at, a, d)
            if inserts or len(moves) != 1 or moves[0][0] != a:
                return trace + (a,)
            nxt = (moves[0][1], F.conj(dict.fromkeys(boxes)))
            if nxt not in seen:
                seen.add(nxt)
                queue.append((trace + (a,), *nxt))
    return None


# ---------------------------------------------------------------------------
# The recursive-descent parser: each grammar level is a method of its own,
# reading one `_Token` at a time, and each spec-file body is tokenized apart.
# Recursion bounds the depth it can read.

_DESCENT_TOKEN_RE = re.compile(
    r"\s+|(?P<comment>#[^\n]*)|(?P<op>->|&&|\|\||!=|=|\?|!|\.|\+|\(|\)|\[|\]|<|>|\{|\}|\*)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
)


@dataclass
class _Token:
    kind: str  # 'op' | 'name' | 'kw' | 'eof'
    text: str
    pos: int


def descent_tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _DESCENT_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
        pos = m.end()
        if m.lastgroup in (None, "comment"):
            continue
        tok = m.group()
        if m.lastgroup == "name":
            out.append(_Token("kw" if tok in KEYWORDS else "name", tok, m.start()))
        else:
            out.append(_Token("op", tok, m.start()))
    out.append(_Token("eof", "", len(text)))
    return out


@dataclass
class _Scope:
    """Lexical scopes threaded through parsing: data variables bound by
    pattern binders, logical variables, process/transducer recursion vars."""

    data: tuple = ()
    logic: tuple = ()
    rec: tuple = ()

    def with_data(self, names):
        return _Scope(self.data + tuple(names), self.logic, self.rec)

    def with_logic(self, name):
        return _Scope(self.data, self.logic + (name,), self.rec)

    def with_rec(self, name):
        return _Scope(self.data, self.logic, self.rec + (name,))


class DescentParser:
    def __init__(self, text: str, domain: Domain | None):
        self.text = text
        self.domain = domain
        self.toks = descent_tokenize(text)
        self.i = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> _Token:
        return self.toks[self.i]

    def next(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind in ("op", "kw")

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> _Token:
        if not self.at(text):
            raise self.error(f"expected {text!r}, found {self.peek().text!r}")
        return self.next()

    def expect_name(self, what="name") -> str:
        tok = self.peek()
        if tok.kind != "name":
            raise self.error(f"expected {what}, found {tok.text!r}")
        self.next()
        return tok.text

    def error(self, message) -> ParseError:
        return ParseError(message, self.peek().pos, self.text)

    def done(self):
        if self.peek().kind != "eof":
            raise self.error(f"trailing input starting at {self.peek().text!r}")

    # -- values, actions ---------------------------------------------------

    def _require_domain(self) -> Domain:
        if self.domain is None:
            raise self.error("a domain is required to parse this term")
        return self.domain

    def value(self, expected: str) -> str:
        name = self.expect_name(f"{expected} name")
        d = self._require_domain()
        if expected == "port" and name not in d.ports:
            raise self.error(f"{name!r} is not a declared port")
        if expected == "payload" and name not in d.payloads:
            raise self.error(f"{name!r} is not a declared payload")
        return name

    def action(self) -> Action:
        port = self.value("port")
        if self.eat("?"):
            is_input = True
        elif self.eat("!"):
            is_input = False
        else:
            raise self.error("expected '?' or '!' after port name")
        return Action(port, is_input, self.value("payload"))

    # -- patterns ----------------------------------------------------------

    def slot(self, scope: _Scope, other=None, allow_binders=True):
        """One pattern slot; `other` is the port slot when this is the payload.
        A name is either a binder or a free slot of one pattern."""
        pos = self.peek().pos
        if self.eat("("):
            name = self.expect_name("binder")
            self.expect(")")
            if not allow_binders:
                raise self.error("binders are not allowed in this pattern")
            d = self._require_domain()
            if name in d.values:
                raise self.error(f"binder {name!r} collides with a domain value")
            slot = Binder(name)
        else:
            name = self.expect_name("slot")
            if name in scope.data:
                slot = Free(name)
            elif name in self._require_domain().values:
                return Lit(name)
            else:
                raise self.error(f"{name!r} is neither a bound variable nor a domain value")
        if Binder in (type(slot), type(other)) and getattr(other, "name", None) == name:
            raise ParseError(f"pattern names the binder {name!r} twice", pos, self.text)
        return slot

    def pattern(self, scope: _Scope, allow_binders=True) -> ActionPattern:
        port = self.slot(scope, None, allow_binders)
        if self.eat("?"):
            is_input = True
        elif self.eat("!"):
            is_input = False
        else:
            raise self.error("expected '?' or '!' in pattern")
        payload = self.slot(scope, port, allow_binders)
        return ActionPattern(port, is_input, payload)

    # -- conditions ----------------------------------------------------------

    def term(self, scope: _Scope):
        name = self.expect_name("term")
        if name in scope.data:
            return Var(name)
        d = self._require_domain()
        if name in d.values:
            return Val(name)
        raise self.error(f"{name!r} is neither a bound variable nor a domain value")

    def condition(self, scope: _Scope):
        return self._cond_or(scope)

    def _cond_or(self, scope):
        items = [self._cond_and(scope)]
        while self.eat("||"):
            items.append(self._cond_and(scope))
        if len(items) == 1:
            return items[0]
        return Or(tuple(items))

    def _cond_and(self, scope):
        items = [self._cond_atom(scope)]
        while self.eat("&&"):
            items.append(self._cond_atom(scope))
        if len(items) == 1:
            return items[0]
        return And(tuple(items))

    def _cond_atom(self, scope):
        if self.eat("true"):
            return TRUE
        if self.eat("false"):
            return FALSE
        if self.eat("!"):
            return Not(self._cond_atom(scope))
        if self.eat("("):
            inner = self._cond_or(scope)
            self.expect(")")
            return inner
        left = self.term(scope)
        if self.eat("="):
            return Cmp(left, self.term(scope), equal=True)
        if self.eat("!="):
            return Cmp(left, self.term(scope), equal=False)
        raise self.error("expected '=' or '!=' in condition")

    def symbolic_action(self, scope: _Scope):
        pat = self.pattern(scope)
        inner = scope.with_data(sorted(pat.binders))
        cond = self.condition(inner) if self.eat("when") else TRUE
        return SymbolicAction(pat, cond), inner

    # -- formulas ------------------------------------------------------------

    def formula(self, scope: _Scope):
        return self._f_or(scope)

    def _f_or(self, scope):
        items = [self._f_and(scope)]
        while self.eat("||"):
            items.append(self._f_and(scope))
        return items[0] if len(items) == 1 else F.FOr(tuple(items))

    def _f_and(self, scope):
        items = [self._f_atom(scope)]
        while self.eat("&&"):
            items.append(self._f_atom(scope))
        return items[0] if len(items) == 1 else F.FAnd(tuple(items))

    def _f_atom(self, scope):
        if self.eat("tt"):
            return F.TT
        if self.eat("ff"):
            return F.FF
        if self.eat("("):
            inner = self._f_or(scope)
            self.expect(")")
            return inner
        if self.eat("["):
            sa, inner_scope = self.symbolic_action(scope)
            self.expect("]")
            return F.Box(sa, self._f_atom(inner_scope))
        if self.eat("<"):
            sa, inner_scope = self.symbolic_action(scope)
            self.expect(">")
            return F.Dia(sa, self._f_atom(inner_scope))
        if self.at("max") or self.at("min"):
            cls = F.Max if self.next().text == "max" else F.Min
            var = self.expect_name("fixpoint variable")
            self.expect(".")
            return cls(var, self._f_or(scope.with_logic(var)))
        tok = self.peek()
        if tok.kind == "name":
            if tok.text in scope.logic:
                self.next()
                return F.FVar(tok.text)
            raise self.error(f"unbound logical variable {tok.text!r}")
        raise self.error(f"expected a formula, found {tok.text!r}")

    # -- processes -----------------------------------------------------------

    def process(self, scope: _Scope):
        branches = [self._p_prefix(scope)]
        while self.eat("+"):
            branches.append(self._p_prefix(scope))
        return branches[0] if len(branches) == 1 else P.Choice(tuple(branches))

    def _p_prefix(self, scope):
        if self.eat("nil"):
            return P.NIL
        if self.eat("("):
            inner = self.process(scope)
            self.expect(")")
            return inner
        if self.eat("rec"):
            var = self.expect_name("recursion variable")
            self.expect(".")
            return P.Rec(var, self.process(scope.with_rec(var)))
        if self.eat("tau"):
            self.expect(".")
            return P.Prefix(TAU, self._p_prefix(scope))
        tok = self.peek()
        if tok.kind == "name":
            if tok.text in scope.rec:
                # a recursion variable, unless it starts an action like i?req
                nxt = self.toks[self.i + 1]
                if nxt.text not in ("?", "!"):
                    self.next()
                    return P.PVar(tok.text)
            act = self.action()
            self.expect(".")
            return P.Prefix(act, self._p_prefix(scope))
        raise self.error(f"expected a process, found {tok.text!r}")

    # -- transducers -----------------------------------------------------------

    def transducer(self, scope: _Scope):
        branches = [self._t_prefix(scope)]
        while self.eat("+"):
            branches.append(self._t_prefix(scope))
        return branches[0] if len(branches) == 1 else T.TSum(tuple(branches))

    def _t_prefix(self, scope):
        if self.eat("id"):
            return T.ID
        if self.eat("("):
            inner = self.transducer(scope)
            self.expect(")")
            return inner
        if self.eat("rec"):
            var = self.expect_name("recursion variable")
            self.expect(".")
            return T.TRec(var, self.transducer(scope.with_rec(var)))
        if self.eat("{"):
            if self.eat("*"):
                pat: object = InsertPattern()
                inner_scope = scope
            else:
                pat = self.pattern(scope)
                inner_scope = scope.with_data(sorted(pat.binders))
            cond = self.condition(inner_scope) if self.eat("when") else TRUE
            if self.eat("->"):
                if self.eat("tau"):
                    target: object = TAU
                else:
                    target = self.pattern(inner_scope, allow_binders=False)
            else:
                if isinstance(pat, InsertPattern):
                    raise self.error("an insertion transform needs an explicit '-> target'")
                target = underline(pat)
            self.expect("}")
            self.expect(".")
            return T.TPrefix(pat, cond, target, self._t_prefix(inner_scope))
        tok = self.peek()
        if tok.kind == "name" and tok.text in scope.rec:
            self.next()
            return T.TVar(tok.text)
        raise self.error(f"expected a transducer, found {tok.text!r}")



def descent_parse_formula(text: str, domain: Domain):
    p = DescentParser(text, domain)
    out = p.formula(_Scope())
    p.done()
    return out


def descent_parse_process(text: str, domain: Domain):
    p = DescentParser(text, domain)
    out = p.process(_Scope())
    p.done()
    validate_process(out)
    return out


def descent_parse_transducer(text: str, domain: Domain):
    p = DescentParser(text, domain)
    out = p.transducer(_Scope())
    p.done()
    validate_transducer(out)
    return out


def descent_parse_specfile(text: str) -> SpecFile:
    """`parsing.parse_specfile` line by line.  Each body is parsed behind a
    blank copy of the file up to it (newlines kept, every other character a
    space), so its positions are positions in the file."""
    ports = payloads = None
    pending = []  # (kind, name, body text)
    offset = 0
    for raw_line in text.splitlines(keepends=True):
        start, offset = offset, offset + len(raw_line)
        code = raw_line.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        head = line.split("=", 1)[0].strip().split()
        shown = raw_line.splitlines()[0]
        if head and head[0] == "ports":
            if ports is not None:
                raise ParseError(f"second ports line {shown!r}")
            ports = _parse_name_set(line, "ports", shown)
        elif head and head[0] == "payloads":
            if payloads is not None:
                raise ParseError(f"second payloads line {shown!r}")
            payloads = _parse_name_set(line, "payloads", shown)
        else:
            if len(head) != 2 or head[0] not in ("process", "formula", "transducer"):
                raise ParseError(f"cannot parse spec line {shown!r}")
            kind, name = head
            if "=" not in line:
                raise ParseError(f"missing '=' in definition of {name!r}")
            body = line.split("=", 1)[1].strip()
            before = text[: start + len(code.rstrip()) - len(body)]
            pending.append((kind, name, re.sub(r"[^\n]", " ", before) + body))
    if ports is None or payloads is None:
        raise ParseError("spec file must declare ports = {...} and payloads = {...}")
    domain = Domain(ports, payloads)
    spec = SpecFile(domain)
    parsers = {
        "process": (descent_parse_process, spec.processes),
        "formula": (descent_parse_formula, spec.formulas),
        "transducer": (descent_parse_transducer, spec.transducers),
    }
    for kind, name, body in pending:
        if name in spec.processes or name in spec.formulas or name in spec.transducers:
            raise ParseError(f"duplicate definition name {name!r}")
        fn, table = parsers[kind]
        table[name] = fn(body, domain)
    return spec


# ---------------------------------------------------------------------------
# The per-class printer: each term class printed itself with a method of its
# own, parenthesising a subterm whose class binds looser (`PREC`) than its
# position needs.  Recursion bounds the depth it can print.

#: How tightly each class binds: binders 0, sums and disjunctions 1,
#: conjunctions and prefixes 2; a class not listed binds tightest, 3.
_PREC = {
    F.Max: 0, F.Min: 0, Rec: 0, TRec: 0, F.FOr: 1, Or: 1, Choice: 1, TSum: 1,
    F.FAnd: 2, And: 2, Prefix: 2, TPrefix: 2,
}


def _paren(t, at_least: int) -> str:
    text = method_str(t)
    return f"({text})" if _PREC.get(type(t), 3) < at_least else text


def _transform_str(e) -> str:
    parts = [method_str(e.pattern)]
    if not isinstance(e.condition, CTrue):
        parts.append(f"when {method_str(e.condition)}")
    if e.target is TAU:
        parts.append("-> tau")
    elif isinstance(e.pattern, InsertPattern) or e.target != underline(e.pattern):
        parts.append(f"-> {method_str(e.target)}")
    return f"{{{' '.join(parts)}}}.{_paren(e.cont, 2)}"


def _io(is_input: bool) -> str:
    return "?" if is_input else "!"


_METHODS = {
    Action: lambda a: f"{a.port}{_io(a.is_input)}{a.payload}",
    Lit: lambda s: s.value,
    Free: lambda s: s.name,
    Binder: lambda s: f"({s.name})",
    ActionPattern: lambda p: f"{method_str(p.port)}{_io(p.is_input)}{method_str(p.payload)}",
    InsertPattern: lambda p: "*",
    Var: lambda t: t.name,
    Val: lambda t: t.name,
    CTrue: lambda c: "true",
    CFalse: lambda c: "false",
    Cmp: lambda c: f"{method_str(c.left)} {'=' if c.equal else '!='} {method_str(c.right)}",
    And: lambda c: " && ".join(_paren(i, 3) for i in c.items),
    Or: lambda c: " || ".join(_paren(i, 2) for i in c.items),
    Not: lambda c: f"!{_paren(c.item, 3)}",
    SymbolicAction: lambda sa: (
        method_str(sa.pattern) if isinstance(sa.condition, CTrue)
        else f"{method_str(sa.pattern)} when {method_str(sa.condition)}"
    ),
    F.FTrue: lambda f: "tt",
    F.FFalse: lambda f: "ff",
    F.FAnd: lambda f: " && ".join(_paren(i, 3) for i in f.items),
    F.FOr: lambda f: " || ".join(_paren(i, 2) for i in f.items),
    F.Box: lambda f: f"[{method_str(f.action)}]{_paren(f.body, 3)}",
    F.Dia: lambda f: f"<{method_str(f.action)}>{_paren(f.body, 3)}",
    F.FVar: lambda f: f.name,
    F.Max: lambda f: f"max {f.var}.{method_str(f.body)}",
    F.Min: lambda f: f"min {f.var}.{method_str(f.body)}",
    P.PNil: lambda p: "nil",
    Prefix: lambda p: f"{method_str(p.label)}.{_paren(p.cont, 2)}",
    Choice: lambda p: " + ".join(_paren(b, 2) for b in p.branches),
    PVar: lambda p: p.name,
    Rec: lambda p: f"rec {p.var}.{method_str(p.body)}",
    TId: lambda e: "id",
    TPrefix: _transform_str,
    TSum: lambda e: " + ".join(_paren(b, 2) for b in e.branches),
    TVar: lambda e: e.name,
    TRec: lambda e: f"rec {e.var}.{method_str(e.body)}",
}


def method_str(t) -> str:
    """The text of a term by its class's own method; tau by its own `str`."""
    method = _METHODS.get(type(t))
    return str(t) if method is None else method(t)
