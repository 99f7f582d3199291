"""Finite action domains, symbolic actions, and pattern matching.

Concrete actions are input/output events of the shape ``port?payload`` or
``port!payload`` over a declared finite domain of names.  A symbolic action
pairs a *pattern* -- whose port and payload slots may hold literals, free
data variables, or binders ``(x)`` -- with a boolean *condition* over those
variables; it stands for the set of concrete actions whose values match the
pattern and satisfy the condition.

Every term here is immutable and hashable, so terms double as dict keys and
LTS state components.  The term classes of this module and of the formula,
process, transducer and runtime modules are built by `term`, which interns
each term as it is built (hash-consing): structurally equal terms are one
object, so a term's hash and equality are those of its identity.  They run
in C and never recurse, however deep the term.  Memos key on terms: equal
terms share an entry, and an entry stays valid for as long as the memo
holds it.  The order of a set of terms follows their addresses, so output
that lists such a set sorts it first.

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
binder names (`term_key`, `cond_key`, `pattern_key`, and `AlphaKeys`, which
hands any term an integer key), on which `transducers.alpha_eq` and the
normaliser's equation interning both rest.  The terms of formulas, processes
and transducers declare their subterms and binders (`Shape`): their
walkers are rules on one fold and one map, and their steps read `heads`.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import islice, repeat
from operator import is_not
from typing import Iterable, Mapping, NamedTuple, Optional, Union


class SymbolicError(Exception):
    pass


class UnboundVariable(SymbolicError):
    """A condition or pattern mentions a variable with no binding."""


# ---------------------------------------------------------------------------
# Term classes


class CachedHash:
    """Base of every class built by `term`.  Its one slot, `__weakref__`,
    lets the intern table refer to a term without keeping it alive.  It
    defines no `__hash__` and no `__eq__`: equal terms are one object, so
    the identity hash and equality of `object`, which run in C, are
    structural and never recurse."""

    __slots__ = ("__weakref__",)


#: Every live term under its key, `(class, *field values)`, as a weak
#: reference without a callback.  A key holds its term's subterms, so the
#: subterms of a live entry are live entries too, entered before it.
_TERMS: dict = {}
#: The table is swept when it reaches `_sweep_at[0]` entries: twice its size
#: after the last sweep, and at least `_SWEEP_MIN`.
_SWEEP_MIN = 1 << 14
_sweep_at = [_SWEEP_MIN]
_NONE = type(None)  # a missing entry: calling it gives None, as a dead reference does


def _sweep():
    """Drop the entries of dead terms, newest first.  A term is entered
    after its subterms, so the subterms that only a dropped key held die
    before the scan reaches them, and one pass frees a whole dead term."""
    keys = list(_TERMS)
    while keys:
        key = keys.pop()
        if _TERMS[key]() is None:
            del _TERMS[key]
    _sweep_at[0] = max(2 * len(_TERMS), _SWEEP_MIN)


#: Decorator for a pure function of terms: a bounded cache keyed on the
#: argument values.  Equal terms are one object, so a lookup hashes and
#: compares by identity.  A call that raises caches nothing.
term_memo = lru_cache(maxsize=1 << 16)


def term(cls=None, *, order: bool = False, shape: Optional["Shape"] = None):
    """Class decorator for terms: a frozen, slotted dataclass on the
    `CachedHash` base whose constructor interns (hash-consing, after
    Filliâtre and Conchon, "Type-safe modular hash-consing", ML Workshop
    2006).  Building a term looks up `(class, *field values)` in one weak
    table and returns the live term found there, so structurally equal terms
    are the same object; only a miss makes a new one, runs the class's
    `__post_init__` and enters it.  A field value that cannot be hashed
    raises `TypeError`.  With `order`, terms of a class compare by their
    field tuples.  A term of the three languages declares its `shape`."""

    def build(cls):
        if cls.__bases__ != (object,):
            raise TypeError(f"term class {cls.__name__} may not have a base class")
        # The slotted class, on the CachedHash base, is made before
        # dataclass() sees it: with slots=True, dataclass() would build a
        # second class and keep the first one alive in its frozen __setattr__.
        body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
        body["__slots__"] = tuple(vars(cls).get("__annotations__", ()))
        cls = type(cls.__name__, (CachedHash,), body)
        cls = dataclass(frozen=True, eq=False, init=False)(cls)
        for name, method in _term_methods(cls, order).items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        if shape is not None:
            many = any(f.name == shape.child and f.type in ("tuple", tuple) for f in fields(cls))
            own = tuple(f.name for f in fields(cls))
            guard = shape.guard if type(shape.guard) is tuple else (shape.guard,)
            plain = tuple(n for n in own if n not in (shape.child, shape.binds, shape.occurs, *guard))
            SHAPES[cls] = shape._replace(names=own, many=many, plain=plain)
        return cls

    return build if cls is None else build(cls)


def _term_methods(cls, order: bool) -> dict:
    """The interning `__new__` of a term class, its `__reduce__` and, with
    `order`, its comparisons, generated as `dataclass` generates `__init__`,
    so that building a term runs one Python frame."""
    names = [f.name for f in fields(cls)]
    args = "".join(f", {n}" for n in names)
    mine = "".join(f"self.{n}, " for n in names)
    setters = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    made = ["__new__", "__reduce__"]
    lines = [
        f"def __new__(cls{args}):",
        f"    _key = (cls{args},)",
        "    _t = _get(_key, _none)()",
        "    if _t is None:",
        "        _t = _new(cls)",
        *(f"        _set_{n}(_t, {n})" for n in names),
        *(["        _t.__post_init__()"] if hasattr(cls, "__post_init__") else []),
        "        if len(_terms) >= _sweep_at[0]:",
        "            _sweep()",
        "        _terms[_key] = _ref(_t)",
        "    return _t",
        "def __reduce__(self):",
        f"    return type(self), ({mine})",
    ]
    if order:
        theirs = "".join(f"other.{n}, " for n in names)
        for name, op in (("__lt__", "<"), ("__le__", "<="), ("__gt__", ">"), ("__ge__", ">=")):
            made.append(name)
            lines += [
                f"def {name}(self, other):",
                "    if type(other) is not type(self):",
                "        return NotImplemented",
                f"    return ({mine}) {op} ({theirs})",
            ]
    closure = dict(
        _terms=_TERMS, _get=_TERMS.get, _none=_NONE, _sweep=_sweep, _sweep_at=_sweep_at,
        _new=object.__new__, _ref=weakref.ref, **setters,
    )
    head, tail = f"def _make({', '.join(closure)}):", f"  return {', '.join(made)}"
    source = "\n".join([head, *(f"  {line}" for line in lines), tail])
    scope: dict = {}
    exec(source, {}, scope)  # noqa: S102 - generated from the field names
    return dict(zip(made, scope["_make"](**closure)))


class Shape(NamedTuple):
    """What a term class of the three languages declares to `term`: `child`,
    the field of its subterm or tuple of subterms; `binds`, the field of a
    recursion variable bound over them, whose occurrences are `occurrence`
    terms; `occurs`, the name field of such an occurrence; and on a prefix,
    which guards recursion, `guard`: `()` for a label, the field of a
    `SymbolicAction`, or the (pattern, condition, target) fields of a
    transform.  A guard's pattern binders scope over its condition, its
    target and the subterms."""

    child: Optional[str] = None
    binds: Optional[str] = None
    occurrence: Optional[type] = None
    occurs: Optional[str] = None
    guard: Union[str, tuple, None] = None
    names: tuple = ()  # filled in by `term`: the class's fields,
    many: bool = False  # whether `child` holds a tuple,
    plain: tuple = ()  # and the fields that are none of these (a label)

    def kids(self, node) -> tuple:
        if self.many:
            return getattr(node, self.child)
        return (getattr(node, self.child),) if self.child else ()

    def remake(self, node, kids, **changes):
        changes[self.child] = tuple(kids) if self.many else kids[0]
        return type(node)(*[changes[n] if n in changes else getattr(node, n) for n in self.names])

    def parts(self, node):
        """A prefix's (pattern, condition, target or None); None if it has
        no pattern."""
        if type(self.guard) is str:
            sa = getattr(node, self.guard)
            return sa.pattern, sa.condition, None
        if self.guard:
            pattern, condition, target = map(getattr, (node,) * 3, self.guard)
            return pattern, condition, target if isinstance(target, ActionPattern) else None

    def reparts(self, node, pattern, condition, target, kids):
        if type(self.guard) is str:
            return self.remake(node, kids, **{self.guard: SymbolicAction(pattern, condition)})
        parts = (pattern, condition, target)[: 2 + (target is not None)]
        return self.remake(node, kids, **dict(zip(self.guard, parts)))


#: The shape of each term class of the three languages; all else is a leaf.
SHAPES: dict = {}
_LEAF = Shape()


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
    """Interned sentinel label (the silent action and the insertion marker).
    It pickles and copies as itself, the module global it is named by."""

    __slots__ = ("_text", "_name")

    def __init__(self, text, name):
        self._text, self._name = text, name

    def __repr__(self):
        return self._text

    __str__ = __repr__

    def __reduce__(self):
        return self._name


#: The silent action; an ordinary LTS label but never part of a trace.
TAU = _Marker("tau", "TAU")
#: Source marker of an insertion transform: the step is not induced by any
#: system action.
INSERT = _Marker("*", "INSERT")

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


@term_memo
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


# ---------------------------------------------------------------------------
# One fold and one map over the declared shapes, on explicit stacks, so that
# no walker's depth is bounded by the interpreter's recursion limit

_MISSING = object()


class Fold(dict):
    """A fold memoised by term: `fold[t]` is `rule(node, shape, values at the
    subterms)` at `t`, run once per distinct subterm, so a DAG (an unfolded
    fixpoint) costs its distinct subterms.  At `LIMIT` entries the older
    half is dropped."""

    LIMIT = 1 << 17

    def __init__(self, rule):
        super().__init__()
        self.rule = rule

    def __missing__(self, t):
        if len(self) >= self.LIMIT:
            for old in list(islice(self, self.LIMIT // 2)):
                del self[old]
        rule, memo, shapes, values = self.rule, self.get, SHAPES.get, []
        stack = [(t, None, None)]
        while stack:
            node, shape, kids = stack.pop()
            if shape is None:
                value = memo(node, _MISSING)
                if value is not _MISSING:
                    values.append(value)
                    continue
                shape = shapes(type(node), _LEAF)
                kids = shape.kids(node)
                if kids:
                    stack.append((node, shape, kids))
                    stack.extend([(k, None, None) for k in reversed(kids)])
                    continue
                value = rule(node, shape, kids)
            else:  # the values of its subterms are on top
                at = len(values) - len(kids)
                value = rule(node, shape, values[at:])
                del values[at:]
            self[node] = value
            values.append(value)
        return values[0]


#: Returned by an `enter` step for a node that is its own result.
DONE = object()


def rebuild(t, enter, ctx=None, leave=None):
    """Map a term: `enter(node, ctx)` runs parents first, subterms left to
    right, and returns `(result, DONE)` or `(node, ctx)`, whose subterms are
    then mapped under `ctx`.  A node whose subterms come back changed is
    rebuilt, bottom-up, so the result is built (and interned) from terms
    that exist already; one whose subterms come back as they were is kept.
    `leave(node)`, if given, then replaces each mapped node."""
    done, stack = [], [(t, ctx, None)]
    pop, push, emit, pop_done = stack.pop, stack.append, done.append, done.pop
    shapes = SHAPES.get
    while stack:
        node, ctx, old = pop()
        if old is None:
            node, ctx = enter(node, ctx)
            if ctx is DONE:
                emit(node)
                continue
            shape = shapes(type(node), _LEAF)
            if shape.many:
                old = getattr(node, shape.child)
                push((node, shape, old))
                stack.extend([(k, ctx, None) for k in reversed(old)])
                continue
            if shape.child:
                old = getattr(node, shape.child)
                push((node, shape, old))
                push((old, ctx, None))
                continue
        elif ctx.many:  # the subterms are mapped, and `ctx` is the node's shape
            at = len(done) - len(old)
            new = done[at:]
            del done[at:]
            if any(map(is_not, new, old)):
                node = ctx.remake(node, new)
        else:
            new = pop_done()
            if new is not old:
                node = ctx.remake(node, (new,))
        emit(node if leave is None else leave(node))
    return done[0]


_EMPTY = frozenset()


def _union(sets) -> frozenset:  # shares a lone value instead of copying it
    return sets[0].union(*sets[1:]) if len(sets) > 1 else sets[0] if sets else _EMPTY


def free_rec_rule(node, shape, kids):
    """The `Fold` rule of `free_rec_vars`."""
    if shape.occurs:
        return frozenset((getattr(node, shape.occurs),))
    out = _union(kids)
    bound = shape.binds and getattr(node, shape.binds)
    return out - {bound} if bound in out else out


def _free_data_rule(node, shape, kids):
    parts = shape.guard and shape.parts(node)
    if not parts:
        return _union(kids)
    pattern, condition, target = parts
    inner = _union(kids).union(cond_vars(condition), getattr(target, "free_vars", ()))
    return pattern.free_vars | (inner - pattern.binders)


def _unguarded_rule(node, shape, kids):
    bad = [k for k in kids if type(k) is str]
    if bad or shape.occurs:
        return bad[0] if bad else frozenset((getattr(node, shape.occurs),))
    out = _EMPTY if shape.guard is not None else _union(kids)
    bound = shape.binds and getattr(node, shape.binds)
    return bound if bound in out else out


#: The free recursion (and fixpoint) variables of a term.
free_rec_vars = Fold(free_rec_rule).__getitem__
#: The free data variables of a term, those no pattern binder binds.
free_data_vars = Fold(_free_data_rule).__getitem__
#: The recursion variables free in a term outside every prefix; or, as a
#: str, a variable bound in the term with such an occurrence in its body.
unguarded = Fold(_unguarded_rule).__getitem__


def check_term(t, is_node, error):
    """Raise `error` unless `is_node` holds at each subterm of `t` and `t` is
    closed and guarded: one walk down, carrying the recursion variables in
    scope, those not yet under a prefix, and the data variables in scope."""

    def enter(node, scope):
        if not is_node(node):
            raise error(f"not a well-formed term: {node!r}")
        bound, unguarded, data = scope
        shape = SHAPES[type(node)]
        name = shape.occurs and getattr(node, shape.occurs)
        if name and name not in bound:
            raise error(f"unbound recursion variable {name!r}")
        if name in unguarded:
            raise error(f"recursion variable {name!r} is not guarded")
        if shape.binds:
            name = getattr(node, shape.binds)
            return node, (bound | {name}, unguarded | {name}, data)
        parts = shape.guard and shape.parts(node)
        if parts:
            pattern, condition, target = parts
            inner = data | pattern.binders
            free = _EMPTY.union(cond_vars(condition), getattr(target, "free_vars", ()))
            unbound = (pattern.free_vars - data) | (free - inner)
            if unbound:
                raise error(f"unbound data variables {sorted(unbound)}")
            data = inner
        return node, (bound, _EMPTY if shape.guard is not None else unguarded, data)

    rebuild(t, enter, (_EMPTY, _EMPTY, _EMPTY))


def subst_var(t, var: str, rep):
    """Capture-avoiding substitution of `rep` for a recursion variable: a
    binder of a variable free in `rep` is renamed first, `'` appended until
    the name is free.  Subterms without `var` come back as they are, so
    unfoldings share structure."""
    rep_free = free_rec_vars(rep)

    def enter(node, ctx):
        if var not in free_rec_vars(node):
            return node, DONE
        shape = SHAPES[type(node)]
        if shape.occurs:
            return rep, DONE
        bound = shape.binds and getattr(node, shape.binds)
        if bound in rep_free:
            kids = shape.kids(node)
            fresh, taken = bound, rep_free.union(*map(free_rec_vars, kids), (var,))
            while fresh in taken:
                fresh += "'"
            kids = [subst_var(k, bound, shape.occurrence(fresh)) for k in kids]
            node = shape.remake(node, kids, **{shape.binds: fresh})
        return node, ctx

    return rebuild(t, enter)


def heads(t, error) -> list:
    """What `t` does next: the nodes it reaches, in source order with
    repeats, when a sum passes on its subterms and a binder its unfolding
    (its body with itself substituted for its variable).  Anything else, a
    prefix, a leaf or a free occurrence, is a head.  A binder met again on
    its own unfolding path is unguarded, and raises `error`."""
    out, stack = [], [(t, _EMPTY)]
    while stack:
        node, unfolding = stack.pop()
        shape = SHAPES.get(type(node), _LEAF)
        if shape.binds:
            if node in unfolding:
                raise error("fixpoint is not guarded")
            body = subst_var(getattr(node, shape.child), getattr(node, shape.binds), node)
            stack.append((body, unfolding | {node}))
        elif shape.many and shape.guard is None:
            stack.extend(zip(reversed(getattr(node, shape.child)), repeat(unfolding)))
        else:
            out.append(node)
    return out


def narrow(sub: Substitution, binders: frozenset):
    """The entries of `sub` that reach under a prefix's pattern binders
    (they scope over its condition, target and subterms), and whether a
    renaming target (Var) among them would be captured by a binder."""
    narrowed = {k: v for k, v in sub.items() if k not in binders}
    captures = any(isinstance(v, Var) and v.name in binders for v in narrowed.values())
    return narrowed, captures


def rename_binders(node, mapping):
    """Alpha-rename a prefix's pattern binders (old name -> new name) through
    its condition, target and subterms."""
    shape = SHAPES[type(node)]
    pattern, condition, target = shape.parts(node)
    ren = {old: Var(new) for old, new in mapping.items()}
    port, payload = (
        Binder(mapping.get(s.name, s.name)) if isinstance(s, Binder) else s
        for s in (pattern.port, pattern.payload)
    )
    pattern = ActionPattern(port, pattern.is_input, payload)
    kids = [subst_data(k, ren) for k in shape.kids(node)]
    target = target and subst_pattern(target, ren)
    return shape.reparts(node, pattern, subst_condition(condition, ren), target, kids)


def avoid_capture(node, narrowed):
    """Freshen the binders of a prefix's pattern that a Var target of the
    narrowed substitution would capture, one at a time in name order.  Each
    fresh name avoids the targets, the substituted variables, the binders,
    and the free variables of the pattern, condition, target and subterms."""
    targets = {v.name for v in narrowed.values() if isinstance(v, Var)}
    shape = SHAPES[type(node)]
    for name in sorted(shape.parts(node)[0].binders & targets):
        taken = targets | set(narrowed) | shape.parts(node)[0].binders | free_data_vars(node)
        node = rename_binders(node, {name: fresh_name(taken)})
    return node


def subst_data(t, sub: Substitution):
    """Apply a data substitution, respecting pattern-binder scoping; subterms
    that mention none of the substituted variables come back as they are."""
    if not sub or sub.keys().isdisjoint(free_data_vars(t)):
        return t
    return rebuild(t, _enter_data, sub)


def _enter_data(node, sub):
    if sub.keys().isdisjoint(free_data_vars(node)):
        return node, DONE
    shape = SHAPES[type(node)]
    parts = shape.parts(node)
    if parts is None:
        return node, sub
    narrowed, captures = narrow(sub, parts[0].binders)
    if captures:
        node = avoid_capture(node, narrowed)
        parts = shape.parts(node)
    pattern, condition, target = parts
    pattern, condition = subst_pattern(pattern, narrowed), subst_condition(condition, narrowed)
    target = target and subst_pattern(target, narrowed)
    return shape.reparts(node, pattern, condition, target, shape.kids(node)), narrowed


# ---------------------------------------------------------------------------
# Keys up to binder names
#
# Terms that differ only in the names of their binders get equal keys.
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


class AlphaKeys(dict):
    """Integer handles of terms up to binder names: `keys(t)` is one handle
    for every term of the three languages that differs from `t` only in the
    names of its recursion (or fixpoint) variables and pattern binders.

    The key reads the declared `Shape`: an occurrence is keyed by its binder
    distance, or by its name when free; a guard by `pattern_key` and
    `cond_key`, a transform target inside its source pattern's scope; any
    other field that is not a subterm as it is.  The handle of a subterm
    depends only on the binder distances of its free variables, so it is
    computed once per (subterm, distance profile), and an unfolded fixpoint
    costs its distinct subterms.  The dict maps each key to its handle."""

    def __init__(self):
        super().__init__()
        self._memo: dict = {}

    def __call__(self, t) -> int:
        memo, handles = self._memo, []
        stack = [(t, (0, {}, 0, {}))]
        while stack:
            node, scope = stack.pop()
            if scope is None:  # (memo key, key head, subterms): their handles are on top
                mkey, head, n = node
                at = len(handles) - n
                handle = memo[mkey] = self.setdefault((*head, *handles[at:]), len(self))
                del handles[at:]
                handles.append(handle)
                continue
            rlevel, renv, level, env = scope
            mkey = (node, _profile(free_rec_vars(node), rlevel, renv),
                    _profile(free_data_vars(node), level, env))
            handle = memo.get(mkey)
            if handle is not None:
                handles.append(handle)
                continue
            shape = SHAPES[type(node)]
            head = [type(node), *map(node.__getattribute__, shape.plain)]
            if shape.occurs:
                head.append(_name_key(getattr(node, shape.occurs), rlevel, renv))
            elif shape.binds:
                rlevel, renv = rlevel + 1, {**renv, getattr(node, shape.binds): rlevel}
            elif shape.guard:
                pattern, condition, target = shape.parts(node)
                source, level, env = pattern_key(pattern, level, env)
                target = target and pattern_key(target, level, env)[0]
                head += source, cond_key(condition, level, env), target
            kids = shape.kids(node)
            stack.append(((mkey, head, len(kids)), None))
            stack.extend(zip(reversed(kids), repeat((rlevel, renv, level, env))))
        return handles[0]


def _profile(names: frozenset, level: int, env: Mapping[str, int]) -> frozenset:
    """Each name with its binder distance in `(level, env)`, or with itself
    when free."""
    return names and frozenset([(n, level - env[n] if n in env else n) for n in names])


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


@term_memo
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
