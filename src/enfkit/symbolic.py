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
settle them.  The search runs on an explicit stack over the condition
itself.  Disjointness becomes one such query by equating both patterns with
a shared action.  The tests check both against enumerating every
assignment.

Binders are handled here once for every term grammar: substitution and
binder renaming (`narrow`, `rename_binders`, `avoid_capture`), and keys up to
binder names (`term_key`, `cond_key`, `pattern_key`, and `AlphaKeys`, which
hands any term an integer key), on which `transducers.alpha_eq` and the
normaliser's equation interning both rest.  The terms of formulas,
processes, transducers and conditions declare their subterms and binders
(`Shape`): their facts (`fact`) and other bottom-up values (`fold`) and
their maps (`rebuild`) are rules, and their steps read `heads`.

Every term prints by `show`, its `__str__` (memoised for actions and
guards): one loop on an explicit stack over `LAYOUTS`, so printing has no
depth limit.  The layouts (each class's text and binding level) are
declared in one table in `parsing`, beside the grammars, which read their
n-ary operators' words and levels from it.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import repeat
from operator import is_not
from string import Formatter
from typing import Iterable, Mapping, NamedTuple, Optional, Union


class SymbolicError(Exception):
    pass


class UnboundVariable(SymbolicError):
    """A condition or pattern mentions a variable with no binding."""


class BoundExceeded(Exception):
    """A state, closure, minterm, equation or trace-depth bound cut a
    computation short.  Each bound's error subclasses it, beside its own
    module's error class; a check it stops is inconclusive, not failed."""


# ---------------------------------------------------------------------------
# Term classes


class CachedHash:
    """Base of every class built by `term`.  Its one slot, `__weakref__`,
    lets the intern table refer to a term without keeping it alive.  It
    defines no `__hash__` and no `__eq__`: equal terms are one object, so
    the identity hash and equality of `object`, which run in C, are
    structural and never recurse.  `set_layouts` makes the printer,
    `show`, the `__str__` of every term class."""

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
_MISSING = object()  # an empty fact slot, set when a term is built: an unset slot would raise


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


def checked_memo(validate):
    """`validate`, remembered for each term that passed: a term met again
    costs one lookup, and one that fails caches nothing and raises again.
    A value that cannot be hashed is no term; it is validated afresh, so the
    check, not the memo, says what it is."""
    remembered = term_memo(validate)

    def checked(t):
        try:
            remembered(t)
        except TypeError:
            validate(t)

    return checked


def term(cls=None, *, shape: Optional["Shape"] = None):
    """Class decorator for terms: a frozen, slotted dataclass on the
    `CachedHash` base whose constructor interns (hash-consing, after
    Filliâtre and Conchon, "Type-safe modular hash-consing", ML Workshop
    2006).  Building a term looks up `(class, *field values)` in one weak
    table and returns the live term found there, so structurally equal terms
    are the same object; only a miss makes a new one, runs the class's
    `__post_init__` and enters it.  A field value that cannot be hashed
    raises `TypeError`.  A term of the four languages declares its `shape`,
    and gets a slot for each of the `FACTS`, empty until read."""

    def build(cls):
        if cls.__bases__ != (object,):
            raise TypeError(f"term class {cls.__name__} may not have a base class")
        # The slotted class, on the CachedHash base, is made before
        # dataclass() sees it: with slots=True, dataclass() would build a
        # second class and keep the first one alive in its frozen __setattr__.
        body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
        facts = () if shape is None else FACTS
        body["__slots__"] = (*vars(cls).get("__annotations__", ()), *facts)
        cls = type(cls.__name__, (CachedHash,), body)
        cls = dataclass(frozen=True, eq=False, init=False)(cls)
        for name, method in _term_methods(cls, facts).items():
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


def _term_methods(cls, facts) -> dict:
    """The interning `__new__` of a term class and its `__reduce__`,
    generated as `dataclass` generates `__init__`, so that building a term
    runs one Python frame and empties its `facts` slots."""
    names = [f.name for f in fields(cls)]
    args = "".join(f", {n}" for n in names)
    mine = "".join(f"self.{n}, " for n in names)
    setters = {f"_set_{n}": getattr(cls, n).__set__ for n in (*names, *facts)}
    made = ["__new__", "__reduce__"]
    lines = [
        f"def __new__(cls{args}):",
        f"    _key = (cls{args},)",
        "    _t = _get(_key, _none)()",
        "    if _t is None:",
        "        _t = _new(cls)",
        *(f"        _set_{n}(_t, {n})" for n in names),
        *(f"        _set_{n}(_t, _missing)" for n in facts),
        *(["        _t.__post_init__()"] if hasattr(cls, "__post_init__") else []),
        "        if len(_terms) >= _sweep_at[0]:",
        "            _sweep()",
        "        _terms[_key] = _ref(_t)",
        "    return _t",
        "def __reduce__(self):",
        f"    return type(self), ({mine})",
    ]
    closure = dict(
        _terms=_TERMS, _get=_TERMS.get, _none=_NONE, _sweep=_sweep, _sweep_at=_sweep_at,
        _new=object.__new__, _ref=weakref.ref, _missing=_MISSING, **setters,
    )
    head, tail = f"def _make({', '.join(closure)}):", f"  return {', '.join(made)}"
    source = "\n".join([head, *(f"  {line}" for line in lines), tail])
    scope: dict = {}
    exec(source, {}, scope)  # noqa: S102 - generated from the field names
    return dict(zip(made, scope["_make"](**closure)))


class Shape(NamedTuple):
    """What a term class of the four languages declares to `term`: `child`,
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


#: The shape of each term class of the four languages; all else is a leaf.
SHAPES: dict = {}
_LEAF = Shape()
#: The slots of a shaped term's facts (`fact`), which live and die with it:
#: free recursion and data variables, guardedness, and the safety fragment.
FACTS = ("_free_rec", "_free_data", "_unguarded", "_shml")


# ---------------------------------------------------------------------------
# One printer for every term, on an explicit stack

#: How the terms of each class print, `(level, pieces, many)`: see `set_layouts`.
LAYOUTS: dict = {}


def set_layouts(table):
    """Declare how terms print, and make `show` the `__str__` of each class:
    `table` maps a class to its text, or to `(level, text)`, where the level
    is how tightly it binds, 0 the loosest and 3, the default, the tightest.
    A class holding a tuple of subterms has the operator word between them
    as its text, each at `level + 1`.  Any other text formats the fields:
    `{f:2}` prints the subterm f inline, parenthesised below level 2, and
    comes last; `{f}` prints f whole, by its own `str`, which is `show`
    memoised outside the four languages; `{f:?|!}` prints one word where f
    is true and the other where false, and `{f: when }` the word and f
    unless implied (`when true`, or a `->` target that is the source
    pattern underlined).  Only the four languages nest inline, so the whole
    parts' `str` calls nest a few levels deep at most."""
    for cls, entry in table.items():
        level, text = entry if type(entry) is tuple else (3, entry)
        cls.__str__ = show if cls in SHAPES else _shown
        many = next((f.name for f in fields(cls) if f.type in ("tuple", tuple)), None)
        if many:
            LAYOUTS[cls] = (level, f" {text} ", many)
            continue
        pieces = []
        for literal, field, spec, _ in Formatter().parse(text):
            pieces += [literal] if literal else []
            if spec and spec.isdigit():
                pieces.append((field, int(spec)))
            elif field is not None:  # whole, two words indexed by the value, or a part's word
                pieces.append((field, spec.split("|")[::-1] if "|" in spec else spec or None))
        LAYOUTS[cls] = (level, tuple(pieces), None)


def show(t) -> str:
    """The text of a term, emitted into one list joined once: each term's
    pieces go out in order, and its one inline subterm, last, is printed
    next in the same loop; only the items of a sum or conjunction and the
    closing parentheses wait on a stack, so a term of any depth prints in
    time linear in its text."""
    out, stack = [], [(t, 0)]
    emit, push, pop = out.append, stack.append, stack.pop
    while stack:
        node = pop()
        if type(node) is str:
            emit(node)
            continue
        node, need = node
        while node is not None:
            level, pieces, many = LAYOUTS[type(node)]
            if level < need:
                emit("(")
                push(")")
            if many:
                items = getattr(node, many)
                for k in range(len(items) - 1, -1, -1):
                    push((items[k], level + 1))
                    if k:
                        push(pieces)
                break
            parent, node = node, None
            for piece in pieces:
                if type(piece) is str:
                    emit(piece)
                    continue
                field, spec = piece
                value = getattr(parent, field)
                if spec is None:
                    emit(str(value))
                elif type(spec) is int:
                    node, need = value, spec
                elif type(spec) is list:
                    emit(spec[value])
                elif not _implied(parent, field, value):
                    emit(spec)
                    emit(str(value))
    return "".join(out)


#: Small: an entry keeps its term alive, and a run prints few distinct guards.
_shown = lru_cache(maxsize=1 << 10)(show)


def _implied(node, field, value) -> bool:
    if field == "condition":
        return value is TRUE
    return type(node.pattern) is ActionPattern and value is underline(node.pattern)


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


@term
class Action:
    """One observable event: an input (?) or output (!) of a payload on a port."""

    port: str
    is_input: bool
    payload: str


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


# ---------------------------------------------------------------------------
# Patterns


@term
class Lit:
    value: str


@term
class Free:
    name: str


@term
class Binder:
    name: str


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

    # each set is built once per pattern, as equal patterns are one object
    @property
    @term_memo
    def binders(self) -> frozenset:
        return frozenset(
            s.name for s in (self.port, self.payload) if isinstance(s, Binder)
        )

    @property
    @term_memo
    def free_vars(self) -> frozenset:
        return frozenset(
            s.name for s in (self.port, self.payload) if isinstance(s, Free)
        )


@term
class InsertPattern:
    """The special source pattern of an insertion transform; it has no slots."""

    @property
    def binders(self) -> frozenset:
        return frozenset()

    @property
    def free_vars(self) -> frozenset:
        return frozenset()


Pattern = Union[ActionPattern, InsertPattern]


# ---------------------------------------------------------------------------
# Conditions

# Terms inside conditions: either a data variable or a literal value name.


@term
class Var:
    name: str


@term
class Val:
    name: str


Term = Union[Var, Val]


@term(shape=Shape())
class CTrue:
    """The condition that always holds."""


@term(shape=Shape())
class CFalse:
    """The condition that never holds."""


@term(shape=Shape())
class Cmp:
    left: Term
    right: Term
    equal: bool


@term(shape=Shape(child="items"))
class And:
    items: tuple


@term(shape=Shape(child="items"))
class Or:
    items: tuple


@term(shape=Shape(child="item"))
class Not:
    item: "Condition"


Condition = Union[CTrue, CFalse, Cmp, And, Or, Not]

TRUE = CTrue()
FALSE = CFalse()


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
# Per-term facts and one map over the declared shapes, on explicit stacks, so
# that no walker's depth is bounded by the interpreter's recursion limit

_store = object.__setattr__  # a term's fact slots are written here only


def fold(t, rule, slot=None):
    """`rule(node, shape, values at the subterms)` at `t`, computed bottom-up
    in one post-order walk.  With a `slot`, one of `FACTS`, the value at
    each shaped node is kept there, and the walk stops at filled slots."""
    shapes, values, stack = SHAPES.get, [], [(t, None, None)]
    while stack:
        node, shape, kids = stack.pop()
        if shape is None:
            if slot is not None:
                value = getattr(node, slot, _MISSING)
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
        if slot is not None and shape is not _LEAF:
            _store(node, slot, value)
        values.append(value)
    return values[0]


def fact(slot, rule):
    """The reader of a fact kept in `slot`, one of `FACTS`: `fold` of `rule`,
    filled on a first read.  A term without a shape has no slot."""

    def read(t):
        value = getattr(t, slot, _MISSING)
        return fold(t, rule, slot) if value is _MISSING else value

    return read


def subterms(t):
    """Each distinct subterm of `t` once, `t` first."""
    seen, stack = set(), [t]
    while stack:
        node = stack.pop()
        yield node
        kids = [k for k in SHAPES.get(type(node), _LEAF).kids(node) if k not in seen]
        seen.update(kids)
        stack += kids


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
    """The rule of `free_rec_vars`."""
    if shape.occurs:
        return frozenset((getattr(node, shape.occurs),))
    out = _union(kids)
    bound = shape.binds and getattr(node, shape.binds)
    return out - {bound} if bound in out else out


def _free_data_rule(node, shape, kids):
    if type(node) is Cmp:
        return frozenset([t.name for t in (node.left, node.right) if type(t) is Var])
    parts = shape.guard and shape.parts(node)
    if not parts:
        return _union(kids)
    pattern, condition, target = parts
    inner = _union(kids).union(free_data_vars(condition), getattr(target, "free_vars", ()))
    return pattern.free_vars | (inner - pattern.binders)


def _unguarded_rule(node, shape, kids):
    bad = [k for k in kids if type(k) is str]
    if bad or shape.occurs:
        return bad[0] if bad else frozenset((getattr(node, shape.occurs),))
    out = _EMPTY if shape.guard is not None else _union(kids)
    bound = shape.binds and getattr(node, shape.binds)
    return bound if bound in out else out


#: The free recursion (and fixpoint) variables of a term.
free_rec_vars = fact("_free_rec", free_rec_rule)
#: The free data variables of a term, those no pattern binder binds; of a
#: condition, the variables it compares.
free_data_vars = fact("_free_data", _free_data_rule)
#: The recursion variables free in a term outside every prefix; or, as a
#: str, a variable bound in the term with such an occurrence in its body.
unguarded = fact("_unguarded", _unguarded_rule)


def check_term(t, is_node, error):
    """Raise `error` unless `is_node` holds at each subterm of `t` and `t` is
    closed and guarded: one walk over the distinct subterms for `is_node`,
    then the facts `free_rec_vars`, `unguarded` and `free_data_vars`.  Of
    several free recursion variables, the first in sorted order is named."""
    for node in subterms(t):
        if not is_node(node):
            raise error(f"not a well-formed term: {node!r}")
    free = free_rec_vars(t)
    if free:
        raise error(f"unbound recursion variable {min(free)!r}")
    name = unguarded(t)
    if type(name) is str:
        raise error(f"recursion variable {name!r} is not guarded")
    unbound = free_data_vars(t)
    if unbound:
        raise error(f"unbound data variables {sorted(unbound)}")


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
    return shape.reparts(node, pattern, subst_data(condition, ren), target, kids)


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
    if type(node) is Cmp:
        return Cmp(subst_term(node.left, sub), subst_term(node.right, sub), node.equal), DONE
    shape = SHAPES[type(node)]
    parts = shape.parts(node)
    if parts is None:
        return node, sub
    narrowed, captures = narrow(sub, parts[0].binders)
    if captures:
        node = avoid_capture(node, narrowed)
        parts = shape.parts(node)
    pattern, condition, target = parts
    pattern, condition = subst_pattern(pattern, narrowed), subst_data(condition, narrowed)
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


def cond_key(c: Condition, level: int, env: Mapping[str, int], make=None):
    """The key of a condition, a nested tuple; with `make`, each connective's
    key is replaced by what `make` makes of it, so keys nest one level."""

    def rule(node, shape, kids):
        if type(node) is Cmp:
            op = "=" if node.equal else "!="
            return (op, term_key(node.left, level, env), term_key(node.right, level, env))
        if not shape.child:
            return _WORDS[type(node)]
        key = (_WORDS[type(node)], *kids)
        return key if make is None else make(key)

    return fold(c, rule)


_WORDS = {CTrue: "true", CFalse: "false", Not: "!", And: "&&", Or: "||"}


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
    for every formula, process or transducer that differs from `t` only in
    the names of its recursion (or fixpoint) variables and pattern binders.

    The key reads the declared `Shape`: an occurrence is keyed by its binder
    distance, or by its name when free; a guard by `pattern_key` and
    `cond_key`, a transform target inside its source pattern's scope; any
    other field that is not a subterm as it is; a condition's connectives
    get handles too, so no key nests (equal nested keys compare by
    recursion).  The handle of a subterm depends only on the binder
    distances of its free variables, so it is computed once per (subterm,
    distance profile), and an unfolded fixpoint costs its distinct subterms.
    The dict maps each key to its handle."""

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
                head += source, cond_key(condition, level, env, self._handle), target
            kids = shape.kids(node)
            stack.append(((mkey, head, len(kids)), None))
            stack.extend(zip(reversed(kids), repeat((rlevel, renv, level, env))))
        return handles[0]

    def _handle(self, key) -> int:
        return self.setdefault(key, len(self))


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

    def rule(node, shape, kids):
        kind = type(node)
        if kind is Cmp:
            return (_term_value(node.left, sub) == _term_value(node.right, sub)) == node.equal
        if kind is Not:
            return not kids[0]
        return all(kids) if kind is And else any(kids) if kind is Or else kind is CTrue

    return fold(c, rule)


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
        return (self.pattern.free_vars | free_data_vars(self.condition)) - self.binders

    def is_closed(self) -> bool:
        return not self.free_vars


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
    missing = free_data_vars(c) - variables
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
# of the shared action, and binders renamed apart by guard (`1.x`, `2.x`).
_PORT, _PAYLOAD = Var(".port"), Var(".payload")


@term_memo
def disjoint_under(sa1: SymbolicAction, sa2: SymbolicAction, d: Domain) -> bool:
    """Disjointness of possibly open guards: they must not overlap under any
    assignment of their outer free variables.

    Decided as one query: some assignment of the outer variables and some
    action (port, payload) match both patterns and satisfy both conditions
    exactly when the guards are not disjoint.  A binder is renamed apart
    only where its name means something else in the other guard: binders of
    one name on the same slot of both patterns are one variable."""
    if sa1.pattern.is_input != sa2.pattern.is_input:
        return True
    slots1, slots2 = (
        {s.name: var for s, var in ((sa.pattern.port, _PORT), (sa.pattern.payload, _PAYLOAD))
         if type(s) is Binder}
        for sa in (sa1, sa2)
    )
    renames = (
        {b: Var(f"1.{b}") for b in slots1 if b in sa2.free_vars},
        {b: Var(f"2.{b}") for b, var in slots2.items()
         if b in sa1.free_vars or slots1.get(b, var) is not var},
    )
    parts = []
    for sa, ren in zip((sa1, sa2), renames):
        for slot, var in ((sa.pattern.port, _PORT), (sa.pattern.payload, _PAYLOAD)):
            other = Val(slot.value) if type(slot) is Lit else ren.get(slot.name) or Var(slot.name)
            parts.append(Cmp(var, other, True))
        parts.append(subst_data(sa.condition, ren))
    values = d.values
    slot_domain = {_PORT.name: d.ports, _PAYLOAD.name: d.payloads}
    return not _decide(And(tuple(parts)), lambda name: slot_domain.get(name, values))


# ---------------------------------------------------------------------------
# The equality-class decision procedure
#
# A condition is a boolean combination of (dis)equalities between variables
# and literal names, so whether some assignment satisfies it depends only on
# which terms are equal.  `_decide` searches depth first, on an explicit
# stack, over the condition itself: each state holds the equality classes,
# the disequalities, the (condition, polarity) items still to apply and the
# disjunctions waiting to branch.  A negation flips its item's polarity; a
# conjunction, or a negated disjunction, adds its items; an equality merges
# two classes by union-find, each class keeping the values its members may
# take (a variable's domain, a literal's own name), and a class left with no
# value is a conflict.  A disjunction, or a negated conjunction, waits until
# every item is applied, then the first waiting one is branched on, each
# alternative in a copy of the state.  At a leaf the classes joined by
# disequalities must be coloured with distinct values from their own sets;
# only that step backtracks over values (Nelson and Oppen, "Fast decision
# procedures based on congruence closure", JACM 1980).


def _decide(c: Condition, domain_of) -> bool:
    """Whether some assignment, mapping each variable name to a value of
    `domain_of(name)`, makes the condition true.  The waiting disjunctions
    are a linked list, `((condition, polarity), rest)`, that states share."""
    stack = [({}, {}, [], (c, True), None)]
    while stack:
        parent, values, diseqs, item, waiting = stack.pop()
        parent, values, diseqs, found = dict(parent), dict(values), list(diseqs), []
        if not _apply(item, parent, values, diseqs, found, domain_of):
            continue
        edges = {(_find(l, parent, values, domain_of), _find(r, parent, values, domain_of))
                 for l, r in diseqs}
        if any(a is b or (len(values[a]) == 1 and values[a] == values[b]) for a, b in edges):
            continue
        for pending in reversed(found):  # branched on before the older ones, in source order
            waiting = (pending, waiting)
        if waiting is None:
            if _colourable(edges, values):
                return True
            continue
        (c, positive), waiting = waiting
        stack += [(parent, values, diseqs, (alt, positive), waiting) for alt in reversed(c.items)]
    return False


def _apply(item, parent, values, diseqs, found, domain_of) -> bool:
    """Apply a (condition, polarity) item and the items it adds to the
    classes (`parent`: union-find links, `values`: the values each class
    root may take, `diseqs`: pairs that must differ), and append each
    disjunction met to `found`.  False on a conflict."""
    items = [item]
    while items:
        c, positive = items.pop()
        kind = type(c)
        if kind is Not:
            items.append((c.item, not positive))
        elif kind is Cmp:
            left, right, equal = c.left, c.right, c.equal == positive
            if left is right or (type(left) is Val and type(right) is Val):
                if (left is right) != equal:
                    return False
            elif not equal:
                diseqs.append((left, right))
            else:
                a = _find(left, parent, values, domain_of)
                b = _find(right, parent, values, domain_of)
                if a is not b:
                    common = values[a] & values[b]
                    if not common:
                        return False
                    parent[b] = a
                    values[a] = common
        elif kind is CTrue or kind is CFalse:
            if (kind is CTrue) != positive:
                return False
        elif (kind is And) == positive:
            items.extend([(i, positive) for i in reversed(c.items)])
        else:
            found.append((c, positive))
    return True


def _find(t, parent, values, domain_of):
    """The root of `t`'s class, entered as a class of its own if new."""
    root = parent.get(t)
    if root is None:
        parent[t] = t
        values[t] = domain_of(t.name) if type(t) is Var else frozenset((t.name,))
        return t
    while root is not parent[root]:
        parent[root] = parent[parent[root]]
        root = parent[root]
    return root


def _colourable(edges, values) -> bool:
    """Whether the classes joined by disequality edges can take pairwise
    distinct values, each from its own set; backtracks, fewest values first."""
    neighbours: dict = {}
    for a, b in edges:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    order = sorted(neighbours, key=lambda r: len(values[r]))
    return _colour(0, order, neighbours, values, {})


def _colour(i, order, neighbours, values, chosen) -> bool:
    """Whether `order[i:]` can be coloured given the `chosen` colours."""
    if i == len(order):
        return True
    root = order[i]
    taken = {chosen[n] for n in neighbours[root] if n in chosen}
    for v in values[root]:
        if v not in taken:
            chosen[root] = v
            if _colour(i + 1, order, neighbours, values, chosen):
                return True
    chosen.pop(root, None)
    return False


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


def underline(p: Pattern) -> ActionPattern:
    """Convert every binder occurrence to a free occurrence of the same name."""
    if isinstance(p, InsertPattern):
        raise SymbolicError("the insertion pattern has no underlined form")

    def drop(s: Slot) -> Slot:
        return Free(s.name) if isinstance(s, Binder) else s

    return ActionPattern(drop(p.port), p.is_input, drop(p.payload))
