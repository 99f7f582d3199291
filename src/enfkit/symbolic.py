"""Finite action domains, symbolic actions, and pattern matching.

Concrete actions are input/output events of the shape ``port?payload`` or
``port!payload`` over a declared finite domain of names.  A symbolic action
pairs a *pattern* -- whose port and payload slots may hold literals, free
data variables, or binders ``(x)`` -- with a boolean *condition* over those
variables; it stands for the set of concrete actions whose values match the
pattern and satisfy the condition.

Every term here is immutable and hashable, so terms double as dict keys and
LTS state components.  The term classes of this module and of the formula,
process, transducer and runtime modules are built by `term`: equality is
structural, and each term computes its structural hash once, on first use,
and keeps it.  That makes terms cheap memo keys, so memos key on term
values, never on object identity: equal terms share an entry, and an entry
stays valid for as long as the memo holds it.

Satisfiability of a condition and disjointness of two guards are decided by
one small solver, `_decide`, over equality classes rather than over
assignments: conditions only compare variables and names, so union-find over
the equalities, a check of the disequalities, and a colouring of the free
classes with domain values at the leaves of the search over disjunctions
settle them.  Disjointness becomes one such query by equating both patterns
with a shared action.  The tests check both against enumerating every
assignment.

Binders are handled here once for every term grammar: substitution and
binder renaming (`narrow`, `rename_binders`, `avoid_capture`), and keys up to
binder names (`term_key`, `cond_key`, `pattern_key`), on which
`transducers.alpha_eq` and the normaliser's equation interning both rest.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Union


class SymbolicError(Exception):
    pass


class UnboundVariable(SymbolicError):
    """A condition or pattern mentions a variable with no binding."""


# ---------------------------------------------------------------------------
# Term classes


class CachedHash:
    """Base of every class built by `term`: a slot that keeps the structural
    hash once it has been computed.

    The slot is left unset by `__init__`, which keeps construction as cheap as
    a plain frozen dataclass; `getattr` with a default tells an unset slot from
    a set one.  The slot's own descriptor stores the hash, bypassing the
    frozen `__setattr__`.
    """

    __slots__ = ("_hash",)

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self._hash_key(self))
            _store_hash(self, h)
        return h


_store_hash = CachedHash._hash.__set__

#: Decorator for a pure function of terms: a bounded cache keyed on the
#: argument values.  Terms hash once and compare structurally, so equal terms
#: share an entry.  A call that raises caches nothing.
term_memo = lru_cache(maxsize=1 << 16)


def term(cls=None, *, order: bool = False):
    """Class decorator for terms: a frozen, slotted dataclass on the
    `CachedHash` base, whose structural hash, the hash of its field values,
    is computed once per object and cached.  Terms are nested, so without
    the cache every set or dict operation would rehash the whole term.  A
    term without fields hashes by its class."""

    def build(cls):
        if cls.__bases__ != (object,):
            raise TypeError(f"term class {cls.__name__} may not have a base class")
        # The slotted class, on the CachedHash base, is made before
        # dataclass() sees it: with slots=True, dataclass() would build a
        # second class and keep the first one alive in its frozen __setattr__.
        body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
        body["__slots__"] = tuple(vars(cls).get("__annotations__", ()))
        cls = dataclass(frozen=True, order=order)(type(cls.__name__, (CachedHash,), body))
        names = [f.name for f in fields(cls)] or ["__class__"]
        # attrgetter runs in C, so the first hash of a deep term recurses
        # through one Python frame per level
        cls._hash_key = attrgetter(*names)
        cls.__hash__ = CachedHash.__hash__
        return cls

    return build if cls is None else build(cls)


# ---------------------------------------------------------------------------
# Domain and actions


#: Reserved words of the concrete syntax; no domain name may be one of them.
KEYWORDS = frozenset(
    {"tt", "ff", "nil", "id", "tau", "max", "min", "rec", "when", "true", "false"}
)


@dataclass(frozen=True)
class Domain:
    """A finite universe of port and payload names.

    Ports and payloads share one value namespace: equality tests in
    conditions may compare any variable against any declared name.
    """

    ports: frozenset
    payloads: frozenset

    def __init__(self, ports: Iterable[str], payloads: Iterable[str]):
        object.__setattr__(self, "ports", frozenset(ports))
        object.__setattr__(self, "payloads", frozenset(payloads))
        if not self.ports or not self.payloads:
            raise SymbolicError("domain needs at least one port and one payload")
        for name in self.values:
            if not (name.isascii() and name.isidentifier()):
                raise SymbolicError(f"domain name {name!r} is not an ASCII identifier")
            if name in KEYWORDS:
                raise SymbolicError(f"domain name {name!r} is a keyword")

    @property
    def values(self) -> frozenset:
        return self.ports | self.payloads

    @property
    def actions(self) -> tuple:
        return _domain_actions(self)


@lru_cache(maxsize=None)
def _domain_actions(d: Domain) -> tuple:
    acts = []
    for port in sorted(d.ports):
        for is_input in (True, False):
            for payload in sorted(d.payloads):
                acts.append(Action(port, is_input, payload))
    return tuple(acts)


@term(order=True)
class Action:
    """One observable event: an input (?) or output (!) of a payload on a port."""

    port: str
    is_input: bool
    payload: str

    def __str__(self):
        return f"{self.port}{'?' if self.is_input else '!'}{self.payload}"


class _Marker:
    """Interned sentinel label (the silent action and the insertion marker)."""

    __slots__ = ("_text",)

    def __init__(self, text):
        self._text = text

    def __repr__(self):
        return self._text

    __str__ = __repr__


#: The silent action; an ordinary LTS label but never part of a trace.
TAU = _Marker("tau")
#: Source marker of an insertion transform: the step is not induced by any
#: system action.
INSERT = _Marker("*")

ExtendedAction = Union[Action, "_Marker"]  # Action or INSERT


def label_key(label) -> str:
    """Deterministic sort key usable for both actions and markers."""
    return str(label)


# ---------------------------------------------------------------------------
# Patterns


@term
class Lit:
    value: str

    def __str__(self):
        return self.value


@term
class Free:
    name: str

    def __str__(self):
        return self.name


@term
class Binder:
    name: str

    def __str__(self):
        return f"({self.name})"


Slot = Union[Lit, Free, Binder]


@term
class ActionPattern:
    """A pattern over concrete actions.  A name is either a binder or a free
    slot of one pattern: two slots may share a name only when both are free."""

    port: Slot
    is_input: bool
    payload: Slot

    def __post_init__(self):
        port, payload = self.port, self.payload
        if Binder in (type(port), type(payload)) and getattr(port, "name", 0) == getattr(
            payload, "name", 1
        ):
            raise SymbolicError(f"pattern {self} names the binder {port.name!r} twice")

    @property
    def binders(self) -> frozenset:
        return frozenset(
            s.name for s in (self.port, self.payload) if isinstance(s, Binder)
        )

    @property
    def free_vars(self) -> frozenset:
        return frozenset(
            s.name for s in (self.port, self.payload) if isinstance(s, Free)
        )

    def __str__(self):
        return f"{self.port}{'?' if self.is_input else '!'}{self.payload}"


@term
class InsertPattern:
    """The special source pattern of an insertion transform; it has no slots."""

    @property
    def binders(self) -> frozenset:
        return frozenset()

    @property
    def free_vars(self) -> frozenset:
        return frozenset()

    def __str__(self):
        return "*"


Pattern = Union[ActionPattern, InsertPattern]


# ---------------------------------------------------------------------------
# Conditions

# Terms inside conditions: either a data variable or a literal value name.


@term
class Var:
    name: str

    def __str__(self):
        return self.name


@term
class Val:
    name: str

    def __str__(self):
        return self.name


Term = Union[Var, Val]


@term
class CTrue:
    def __str__(self):
        return "true"


@term
class CFalse:
    def __str__(self):
        return "false"


@term
class Cmp:
    left: Term
    right: Term
    equal: bool

    def __str__(self):
        return f"{self.left} {'=' if self.equal else '!='} {self.right}"


@term
class And:
    items: tuple

    PREC = 2

    def __str__(self):
        return " && ".join(paren(i, 3) for i in self.items)


@term
class Or:
    items: tuple

    PREC = 1

    def __str__(self):
        return " || ".join(paren(i, 2) for i in self.items)


@term
class Not:
    item: "Condition"

    def __str__(self):
        return f"!{paren(self.item, 3)}"


Condition = Union[CTrue, CFalse, Cmp, And, Or, Not]

TRUE = CTrue()
FALSE = CFalse()


def paren(term, at_least: int) -> str:
    """Print a term of any grammar, parenthesised when its class's `PREC`
    binds looser than `at_least`.  Binders bind loosest (0), then sums and
    disjunctions (1), conjunctions and prefixes (2); everything else binds
    tightest (3)."""
    text = str(term)
    return f"({text})" if getattr(term, "PREC", 3) < at_least else text


def conjoin(items: Iterable[Condition]) -> Condition:
    """Conjunction with unit and flattening: [] is true, [c] is c."""
    flat = []
    for c in items:
        if isinstance(c, CTrue):
            continue
        flat.append(c)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def cond_vars(c: Condition) -> frozenset:
    if isinstance(c, (CTrue, CFalse)):
        return frozenset()
    if isinstance(c, Cmp):
        return frozenset(t.name for t in (c.left, c.right) if isinstance(t, Var))
    if isinstance(c, Not):
        return cond_vars(c.item)
    return frozenset().union(*(cond_vars(i) for i in c.items))


# ---------------------------------------------------------------------------
# Substitutions

# A substitution maps data-variable names to Terms.  The common case maps to
# Val (a concrete name, as produced by matching); Var targets appear only
# during binder renaming.

Substitution = Mapping[str, Term]


def subst_term(t: Term, sub: Substitution) -> Term:
    if isinstance(t, Var) and t.name in sub:
        return sub[t.name]
    return t


def subst_condition(c: Condition, sub: Substitution) -> Condition:
    if not sub or isinstance(c, (CTrue, CFalse)):
        return c
    if isinstance(c, Cmp):
        return Cmp(subst_term(c.left, sub), subst_term(c.right, sub), c.equal)
    if isinstance(c, Not):
        return Not(subst_condition(c.item, sub))
    cls = And if isinstance(c, And) else Or
    return cls(tuple(subst_condition(i, sub) for i in c.items))


def subst_slot(s: Slot, sub: Substitution) -> Slot:
    if isinstance(s, Free) and s.name in sub:
        target = sub[s.name]
        return Lit(target.name) if isinstance(target, Val) else Free(target.name)
    return s


def subst_pattern(p: Pattern, sub: Substitution) -> Pattern:
    if isinstance(p, InsertPattern) or not sub:
        return p
    return ActionPattern(
        subst_slot(p.port, sub), p.is_input, subst_slot(p.payload, sub)
    )


# Pattern binders scope over the guard condition and over a *scope*: the
# continuation formula of a modality, or the target and continuation of a
# transform.  The helpers below take the scope with two functions, its free
# data variables and substitution into it, so formulas, transducers and the
# normaliser share one binder discipline.


def narrow(sub: Substitution, binders: frozenset):
    """The entries of `sub` that reach under a pattern's binders, and whether
    a renaming target (Var) among them would be captured by a binder."""
    narrowed = {k: v for k, v in sub.items() if k not in binders}
    captures = any(isinstance(v, Var) and v.name in binders for v in narrowed.values())
    return narrowed, captures


def rename_binders(pattern: ActionPattern, condition, scope, mapping, subst_scope):
    """Alpha-rename a pattern's binders (old name -> new name) through its
    condition and scope; returns the new (pattern, condition, scope)."""
    ren = {old: Var(new) for old, new in mapping.items()}

    def fix(slot):
        if isinstance(slot, Binder) and slot.name in mapping:
            return Binder(mapping[slot.name])
        return slot

    return (
        ActionPattern(fix(pattern.port), pattern.is_input, fix(pattern.payload)),
        subst_condition(condition, ren),
        subst_scope(scope, ren),
    )


def avoid_capture(pattern: ActionPattern, condition, scope, narrowed, scope_vars, subst_scope):
    """Freshen the binders that a Var target of the narrowed substitution
    would capture, one at a time in name order, so that the substitution can
    then be applied under the pattern.  Each fresh name avoids the targets,
    the substituted variables, the binders and the free variables of the
    pattern, of the condition and of the scope."""
    targets = {v.name for v in narrowed.values() if isinstance(v, Var)}
    for name in sorted(pattern.binders & targets):
        taken = (
            targets
            | set(narrowed)
            | pattern.binders
            | pattern.free_vars
            | cond_vars(condition)
            | scope_vars(scope)
        )
        pattern, condition, scope = rename_binders(
            pattern, condition, scope, {name: fresh_name(taken)}, subst_scope
        )
    return pattern, condition, scope


# ---------------------------------------------------------------------------
# Keys up to binder names
#
# Terms that differ only in the names of their pattern binders get equal keys.
# A key is a nested tuple read in a scope `(level, env)`: `level` counts the
# binders opened so far and `env` maps each bound name to the level that bound
# it.  A bound variable is keyed by its binder distance, `level - env[name]`
# (de Bruijn, "Lambda calculus notation with nameless dummies", Indag. Math.
# 1972), a free variable by its name, and a literal by itself.


def _name_key(name: str, level: int, env: Mapping[str, int]):
    bound = env.get(name)
    return name if bound is None else level - bound


def term_key(t: Term, level: int, env: Mapping[str, int]):
    return t if isinstance(t, Val) else _name_key(t.name, level, env)


def cond_key(c: Condition, level: int, env: Mapping[str, int]):
    if isinstance(c, Cmp):
        op = "=" if c.equal else "!="
        return (op, term_key(c.left, level, env), term_key(c.right, level, env))
    if isinstance(c, (CTrue, CFalse)):
        return str(c)
    if isinstance(c, Not):
        return ("!", cond_key(c.item, level, env))
    op = "&&" if isinstance(c, And) else "||"
    return (op, *(cond_key(i, level, env) for i in c.items))


def pattern_key(p: Pattern, level: int, env: Mapping[str, int]):
    """The key of a pattern, and the `(level, env)` its binders open.  A
    `Free` slot is keyed in the scope outside the pattern."""
    if isinstance(p, InsertPattern):
        return "*", level, env
    slots = []
    inner, inner_level = env, level
    for slot in (p.port, p.payload):
        if isinstance(slot, Binder):
            if inner is env:
                inner = dict(env)
            inner[slot.name] = inner_level
            inner_level += 1
            slots.append(None)
        elif isinstance(slot, Lit):
            slots.append(slot)
        else:
            slots.append(_name_key(slot.name, level, env))
    return (p.is_input, *slots), inner_level, inner


# ---------------------------------------------------------------------------
# Matching and evaluation


def match(p: Pattern, gamma: ExtendedAction) -> Optional[dict]:
    """Match a closed pattern against an extended action.

    Returns the substitution binding the pattern's binders, or None when the
    action does not fit.  Matching the insertion marker against the insertion
    pattern yields the empty substitution.
    """
    if isinstance(p, InsertPattern):
        return {} if gamma is INSERT else None
    if not isinstance(gamma, Action):
        return None
    if p.is_input != gamma.is_input:
        return None
    sub = {}
    for slot, value in ((p.port, gamma.port), (p.payload, gamma.payload)):
        if isinstance(slot, Lit):
            if slot.value != value:
                return None
        elif isinstance(slot, Binder):
            sub[slot.name] = Val(value)
        else:
            raise UnboundVariable(f"cannot match open pattern slot {slot}")
    return sub


def eval_condition(c: Condition, sub: Substitution) -> bool:
    """Evaluate a condition under a substitution covering all of its variables."""
    if isinstance(c, CTrue):
        return True
    if isinstance(c, CFalse):
        return False
    if isinstance(c, Cmp):
        lv, rv = (_term_value(t, sub) for t in (c.left, c.right))
        return (lv == rv) if c.equal else (lv != rv)
    if isinstance(c, Not):
        return not eval_condition(c.item, sub)
    if isinstance(c, And):
        return all(eval_condition(i, sub) for i in c.items)
    return any(eval_condition(i, sub) for i in c.items)


def _term_value(t: Term, sub: Substitution) -> str:
    if isinstance(t, Val):
        return t.name
    resolved = sub.get(t.name)
    if not isinstance(resolved, Val):
        raise UnboundVariable(f"variable {t.name!r} is unbound")
    return resolved.name


# ---------------------------------------------------------------------------
# Symbolic actions


@term
class SymbolicAction:
    pattern: ActionPattern
    condition: Condition

    @property
    def binders(self) -> frozenset:
        return self.pattern.binders

    @property
    def free_vars(self) -> frozenset:
        """Variables bound by an enclosing scope, not by this pattern."""
        return (self.pattern.free_vars | cond_vars(self.condition)) - self.binders

    def is_closed(self) -> bool:
        return not self.free_vars

    def subst(self, sub: Substitution) -> "SymbolicAction":
        narrowed = {k: v for k, v in sub.items() if k not in self.binders}
        return SymbolicAction(
            subst_pattern(self.pattern, narrowed),
            subst_condition(self.condition, narrowed),
        )

    def __str__(self):
        if isinstance(self.condition, CTrue):
            return str(self.pattern)
        return f"{self.pattern} when {self.condition}"


def sym_match(sa: SymbolicAction, gamma: ExtendedAction) -> Optional[dict]:
    """Pattern match plus condition check; the substitution is returned only
    when the condition evaluates to true under it."""
    sub = match(sa.pattern, gamma)
    if sub is None:
        return None
    if not eval_condition(sa.condition, sub):
        return None
    return sub


def denote(sa: SymbolicAction, d: Domain) -> frozenset:
    """The set of domain actions a closed symbolic action stands for."""
    return frozenset(a for a in d.actions if sym_match(sa, a) is not None)


@lru_cache(maxsize=200_000)
def _satisfiable_cached(c: Condition, variables: frozenset, d: Domain) -> bool:
    # the check runs once per key: a raising call is not cached
    missing = cond_vars(c) - variables
    if missing:
        raise UnboundVariable(f"condition mentions undeclared variables {sorted(missing)}")
    values = d.values
    return _decide(c, lambda name: values)


def satisfiable(c: Condition, variables, d: Domain) -> bool:
    """Decide whether some assignment of the variables into the domain's
    value universe makes the condition true, by the equality-class search of
    `_decide`.  Every variable of the condition must be declared; declared
    variables the condition does not mention cannot change the answer."""
    return _satisfiable_cached(c, frozenset(variables), d)


def disjoint(sa1: SymbolicAction, sa2: SymbolicAction, d: Domain) -> bool:
    """True when the two closed symbolic actions denote disjoint action sets."""
    return not (denote(sa1, d) & denote(sa2, d))


# Variables of a disjointness query that no condition can name: the two slots
# of the shared action, and binders renamed apart by pattern (`1.x`, `2.x`).
_PORT, _PAYLOAD = Var(".port"), Var(".payload")


def disjoint_under(sa1: SymbolicAction, sa2: SymbolicAction, d: Domain) -> bool:
    """Disjointness of possibly open guards: they must not overlap under any
    assignment of their outer free variables.

    Decided as one query: some assignment of the outer variables and some
    action (port, payload) match both patterns and satisfy both conditions
    exactly when the guards are not disjoint."""
    if sa1.pattern.is_input != sa2.pattern.is_input:
        return True
    parts = []
    for tag, sa in (("1", sa1), ("2", sa2)):
        pattern = sa.pattern
        ren = {b: Var(f"{tag}.{b}") for b in pattern.binders}
        for slot, var in ((pattern.port, _PORT), (pattern.payload, _PAYLOAD)):
            if isinstance(slot, Lit):
                parts.append(Cmp(var, Val(slot.value), True))
            elif isinstance(slot, Binder):
                parts.append(Cmp(var, ren[slot.name], True))
            else:
                parts.append(Cmp(var, Var(slot.name), True))
        parts.append(subst_condition(sa.condition, ren))
    values = d.values
    slot_domain = {_PORT.name: d.ports, _PAYLOAD.name: d.payloads}
    return not _decide(And(tuple(parts)), lambda name: slot_domain.get(name, values))


# ---------------------------------------------------------------------------
# The equality-class decision procedure
#
# A condition is a boolean combination of (dis)equalities between variables
# and literal names, so whether some assignment satisfies it depends only on
# which terms are equal.  `_decide` puts the condition into negation normal
# form, a clause of atoms and disjunctions, and searches over it: equalities
# merge classes of terms by union-find, each class keeping the values its
# members may take (a variable's domain, a literal's own name), and a class
# left with no value is a conflict.  Disequalities are recorded and checked
# as classes merge.  All atoms of a clause are applied before one of its
# disjunctions is branched on.  At a leaf the classes joined by
# disequalities must be coloured with distinct values from their own sets;
# only that step backtracks over values (Nelson and Oppen, "Fast decision
# procedures based on congruence closure", JACM 1980).


def _clause(c: Condition, positive: bool):
    """The negation normal form of `c` (of `!c` when not `positive`) as a
    clause `(atoms, disjunctions)`: atoms are `(equal, term, term)` triples and
    each disjunction is a tuple of clauses.  None stands for false."""
    if isinstance(c, Not):
        return _clause(c.item, not positive)
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
            sub = _clause(item, positive)
            if sub is None:
                return None
            atoms += sub[0]
            ors += sub[1]
        return tuple(atoms), tuple(ors)
    alternatives = []
    for item in c.items:
        sub = _clause(item, positive)
        if sub == ((), ()):
            return sub
        if sub is not None:
            alternatives.append(sub)
    if len(alternatives) <= 1:
        return alternatives[0] if alternatives else None
    return (), (tuple(alternatives),)


def _decide(c: Condition, domain_of) -> bool:
    """Whether some assignment, mapping each variable name to a value of
    `domain_of(name)`, makes the condition true."""
    clause = _clause(c, True)
    if clause is None:
        return False
    return _search({}, {}, [], clause[0], clause[1], domain_of)


def _search(parent, values, diseqs, atoms, ors, domain_of) -> bool:
    """Apply the atoms to the classes (`parent`: union-find links, `values`:
    the values each class root may take, `diseqs`: pairs that must differ),
    then branch on the first pending disjunction."""

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
        _search(dict(parent), dict(values), list(diseqs), sub_atoms, sub_ors + rest, domain_of)
        for sub_atoms, sub_ors in first
    )


def _colourable(edges, values) -> bool:
    """Whether the classes joined by disequality edges can take pairwise
    distinct values, each from its own set; backtracks, fewest values first."""
    neighbours: dict = {}
    for a, b in edges:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    order = sorted(neighbours, key=lambda r: len(values[r]))
    chosen: dict = {}

    def colour(i):
        if i == len(order):
            return True
        root = order[i]
        taken = {chosen[n] for n in neighbours[root] if n in chosen}
        for v in values[root]:
            if v not in taken:
                chosen[root] = v
                if colour(i + 1):
                    return True
        chosen.pop(root, None)
        return False

    return colour(0)


# ---------------------------------------------------------------------------
# Pattern normalisation and underlining

_FRESH_POOL = ("y", "z", "w", "u", "v", "x")


def fresh_name(used) -> str:
    """Pick a deterministic identifier not in `used`."""
    for name in _FRESH_POOL:
        if name not in used:
            return name
    i = 1
    while True:
        for name in _FRESH_POOL:
            cand = f"{name}{i}"
            if cand not in used:
                return cand
        i += 1


def normalize_pattern(sa: SymbolicAction, avoid=frozenset()) -> SymbolicAction:
    """Rewrite a symbolic action so that both pattern slots are binders.

    Each literal or free-variable slot is replaced by a fresh binder, and an
    equality between the fresh binder and the replaced term is conjoined to
    the condition.  The denoted action set is unchanged.
    """
    used = set(avoid) | sa.binders | sa.free_vars | cond_vars(sa.condition)
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


def underline(p: Pattern) -> ActionPattern:
    """Convert every binder occurrence to a free occurrence of the same name."""
    if isinstance(p, InsertPattern):
        raise SymbolicError("the insertion pattern has no underlined form")

    def drop(s: Slot) -> Slot:
        return Free(s.name) if isinstance(s, Binder) else s

    return ActionPattern(drop(p.port), p.is_input, drop(p.payload))
