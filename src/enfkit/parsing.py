"""Concrete syntax for actions, conditions, formulas, processes, transducers,
spec files and explicit LTS files.

A text is tokenized in one pass of one regular expression into flat lists of
token words and positions.  One operator-precedence loop on an explicit stack
(after Pratt, "Top down operator precedence", POPL 1973) reads the formula,
process, transducer and condition grammars, each described by a small table,
so the depth of a term is bounded by memory, not by the recursion limit.  A
spec file is tokenized once as a whole, so an error in one of its
definitions gives its line and column in the file.  The same syntax is
printed: `_LAYOUTS` gives each term class its text and binding level, for
`symbolic.show`, and the grammars read their n-ary operators from it.

Identifier resolution is scope-first: a name bound by an enclosing pattern
binder is a data variable, otherwise it must be a declared domain value.
Binder names may not collide with domain values, which keeps
printing/reparsing stable.

Grammar sketches (see README for the full story):

    action     ::=  name '?' name  |  name '!' name  |  'tau'
    pattern    ::=  slot ('?'|'!') slot         slot ::= '(' name ')' | name
    condition  ::=  'true' | 'false' | term ('='|'!=') term
                 |  cond '&&' cond | cond '||' cond | '!' cond | '(' cond ')'
    formula    ::=  'tt' | 'ff' | '[' pattern ('when' cond)? ']' formula
                 |  '<' pattern ('when' cond)? '>' formula
                 |  formula '&&' formula | formula '||' formula
                 |  ('max'|'min') NAME '.' formula | NAME | '(' formula ')'
    process    ::=  'nil' | action '.' process | process '+' process
                 |  'rec' NAME '.' process | NAME | '(' process ')'
    transducer ::=  'id' | '{' tpattern ('when' cond)? ('->' target)? '}' '.' t
                 |  t '+' t | 'rec' NAME '.' t | NAME | '(' t ')'
                 where tpattern also allows '*' (insertion) and target is a
                 pattern without binders or 'tau'

'&&' binds tighter than '||'.  A prefix ('[..]', '<..>', 'a.', '{..}.',
'!') takes the tightest operand that follows it; a binder body ('max X.',
'rec X.') reaches as far right as it can.
"""
from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from . import formulas as F
from . import processes as P
from . import transducers as T
from .symbolic import (
    TAU,
    Action,
    ActionPattern,
    And,
    Binder,
    CFalse,
    Cmp,
    CTrue,
    Domain,
    FALSE,
    Free,
    InsertPattern,
    KEYWORDS,
    Lit,
    Not,
    Or,
    SymbolicAction,
    TRUE,
    Val,
    Var,
    set_layouts,
    underline,
)


class ParseError(Exception):
    def __init__(self, message, pos=None, text=None):
        self.pos = pos
        if pos is not None and text is not None:
            line = text.count("\n", 0, pos) + 1
            col = pos - (text.rfind("\n", 0, pos) + 1) + 1
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Tokens

_OPERATORS = "-> && || != = ? ! . + ( ) [ ] < > { } *".split()
#: A name, or an operator: a two-character one before any it starts with.
_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_']*|->|&&|\|\||!=|[=?!.+()\[\]<>{}*])")
_COMMENT_RE = re.compile(r"#[^\n]*")
_NONBLANK_RE = re.compile(r"\S")
#: Words that are not names: operators, keywords and the end of the input.
_NOT_NAMES = frozenset(_OPERATORS) | KEYWORDS | {""}


class _Tokens(NamedTuple):
    """A tokenized text: token k is `words[k]`, starting at `starts[k]` in
    `text`; the last is the end of the input, the empty word.  `unreadable`
    holds the positions of the characters that start no token."""

    text: str
    words: list
    starts: list
    unreadable: list


def _tokenize(text: str, scan: str) -> _Tokens:
    """One split of `scan`, which is `text` with its comments blanked, by the
    token expression.  The split alternates the gaps between tokens and the
    tokens, so the running sum of their lengths gives every position."""
    parts = _TOKEN_RE.split(scan)
    gaps = parts[0::2]
    starts = list(accumulate(map(len, parts)))[0::2]
    words = parts[1::2]
    words.append("")
    unreadable = []
    blank = "".join(gaps)
    if blank and not blank.isspace():
        ends = list(accumulate(map(len, gaps)))  # where each gap ends in `blank`
        for m in _NONBLANK_RE.finditer(blank):
            k = bisect_right(ends, m.start())
            unreadable.append(starts[k] - ends[k] + m.start())
    return _Tokens(text, words, starts, unreadable)


# ---------------------------------------------------------------------------
# Grammars: what a word starts where a term is expected, and what a name does

_LEAF, _OPEN, _BIND, _GUARD, _TAU, _TRANSFORM, _NOT = range(7)
_FVAR, _PVAR_OR_ACTION, _TVAR, _CMP = range(7, 11)


class _Grammar(NamedTuple):
    """One term language: `infix` maps an infix operator to its level, 0 the
    loosest, and `joins[level]` builds that level's n-ary node; `starts` maps
    a word to what it starts and an argument, `name` is what a name starts,
    and `expected` opens the error for any other word."""

    infix: dict
    joins: tuple
    starts: dict
    name: int
    expected: str


def _grammar(joins, starts, name, expected) -> _Grammar:
    """The grammar whose n-ary classes are `joins`: each class's operator
    word and level are those of its layout, so the printer reads them too."""
    joins = sorted(joins, key=lambda cls: _LAYOUTS[cls][0])
    infix = {_LAYOUTS[cls][1]: k for k, cls in enumerate(joins)}
    return _Grammar(infix, tuple(joins), starts, name, expected)


# ---------------------------------------------------------------------------
# Layouts: how the terms of each class print (`symbolic.set_layouts`)

_OR, _AND, _SUM = (1, "||"), (2, "&&"), (1, "+")  # the n-ary operators
_LAYOUTS = {
    F.FOr: _OR, Or: _OR, F.FAnd: _AND, And: _AND, P.Choice: _SUM, T.TSum: _SUM,
    F.Max: (0, "max {var}.{body:0}"), F.Min: (0, "min {var}.{body:0}"),
    P.Rec: (0, "rec {var}.{body:0}"), T.TRec: (0, "rec {var}.{body:0}"),
    P.Prefix: (2, "{label}.{cont:2}"),
    T.TPrefix: (2, "{{{pattern}{condition: when }{target: -> }}}.{cont:2}"),
    F.Box: "[{action}]{body:3}", F.Dia: "<{action}>{body:3}", Not: "!{item:3}",
    F.FTrue: "tt", F.FFalse: "ff", P.PNil: "nil", T.TId: "id", CTrue: "true", CFalse: "false",
    F.FVar: "{name}", P.PVar: "{name}", T.TVar: "{name}", Var: "{name}", Val: "{name}",
    Lit: "{value}", Free: "{name}", Binder: "({name})", InsertPattern: "*",
    Action: "{port}{is_input:?|!}{payload}", ActionPattern: "{port}{is_input:?|!}{payload}",
    Cmp: "{left}{equal: = | != }{right}", SymbolicAction: "{pattern}{condition: when }",
}
set_layouts(_LAYOUTS)

_FORMULA = _grammar((F.FOr, F.FAnd), {
    "tt": (_LEAF, F.TT), "ff": (_LEAF, F.FF), "(": (_OPEN, None),
    "[": (_GUARD, ("]", F.Box)), "<": (_GUARD, (">", F.Dia)),
    "max": (_BIND, (F.Max, "fixpoint variable")), "min": (_BIND, (F.Min, "fixpoint variable")),
}, _FVAR, "expected a formula")
_PROCESS = _grammar((P.Choice,), {
    "nil": (_LEAF, P.NIL), "(": (_OPEN, None), "tau": (_TAU, None),
    "rec": (_BIND, (P.Rec, "recursion variable")),
}, _PVAR_OR_ACTION, "expected a process")
_TRANSDUCER = _grammar((T.TSum,), {
    "id": (_LEAF, T.ID), "(": (_OPEN, None), "{": (_TRANSFORM, None),
    "rec": (_BIND, (T.TRec, "recursion variable")),
}, _TVAR, "expected a transducer")
_CONDITION = _grammar((Or, And), {
    "true": (_LEAF, TRUE), "false": (_LEAF, FALSE), "(": (_OPEN, None), "!": (_NOT, None),
}, _CMP, "expected term")


def _join(items: list, cls):
    return items[0] if len(items) == 1 else cls(tuple(items))


class _Reader:
    """Reads terms off one text, or off the tokens of a spec-file body, over
    one domain (or none, when the text names no domain value)."""

    def __init__(self, text, domain: Domain | None):
        if not isinstance(text, _Tokens):
            text = _tokenize(text, _COMMENT_RE.sub(lambda m: " " * len(m.group()), text))
        self.text, self.words, self.starts = text.text, text.words, text.starts
        if text.unreadable:
            pos = text.unreadable[0]
            raise ParseError(f"unexpected character {self.text[pos]!r}", pos, self.text)
        self.domain, self.ports, self.payloads, self.values = domain, (), (), ()
        if domain is not None:
            self.ports, self.payloads, self.values = domain.ports, domain.payloads, domain.values

    def read(self, grammar: _Grammar):
        out, i = self.term(grammar, 0, {})
        if self.words[i]:
            raise self.error(i, f"trailing input starting at {self.words[i]!r}")
        return out

    # -- token helpers, each given a token index -------------------------------

    def error(self, i, message) -> ParseError:
        return ParseError(message, self.starts[i], self.text)

    def name(self, i, what) -> str:
        if self.words[i] in _NOT_NAMES:
            raise self.error(i, f"expected {what}, found {self.words[i]!r}")
        return self.words[i]

    def expect(self, i, word) -> int:
        if self.words[i] != word:
            raise self.error(i, f"expected {word!r}, found {self.words[i]!r}")
        return i + 1

    def known(self, i, name, values) -> bool:
        """Whether `name` is in `values`; first, that there is a domain."""
        if self.domain is None:
            raise self.error(i, "a domain is required to parse this term")
        return name in values

    def value(self, i, kind) -> str:
        """The declared port or payload name at token i."""
        name = self.name(i, f"{kind} name")
        if not self.known(i + 1, name, self.ports if kind == "port" else self.payloads):
            raise self.error(i + 1, f"{name!r} is not a declared {kind}")
        return name

    def slot(self, i, data, other, allow_binders):
        """One pattern slot; `other` is the port slot when this is the payload.
        A name is either a binder or a free slot of one pattern."""
        start = i
        if self.words[i] == "(":
            name = self.name(i + 1, "binder")
            i = self.expect(i + 2, ")")
            if not allow_binders:
                raise self.error(i, "binders are not allowed in this pattern")
            if self.known(i, name, self.values):
                raise self.error(i, f"binder {name!r} collides with a domain value")
            slot = Binder(name)
        else:
            name = self.name(i, "slot")
            i += 1
            if name not in data:
                if self.known(i, name, self.values):
                    return Lit(name), i
                raise self.error(i, f"{name!r} is neither a bound variable nor a domain value")
            slot = Free(name)
        if Binder in (type(slot), type(other)) and getattr(other, "name", None) == name:
            raise self.error(start, f"pattern names the binder {name!r} twice")
        return slot, i

    def pattern(self, i, data, allow_binders=True):
        port, i = self.slot(i, data, None, allow_binders)
        mark = self.words[i]
        if mark != "?" and mark != "!":
            raise self.error(i, "expected '?' or '!' in pattern")
        payload, i = self.slot(i + 1, data, port, allow_binders)
        return ActionPattern(port, mark == "?", payload), i

    def guard(self, i, data):
        """The condition after 'when' at token i, else true."""
        if self.words[i] == "when":
            return self.term(_CONDITION, i + 1, data)
        return TRUE, i

    def operand(self, i, data):
        """A data variable or a domain value, one side of a comparison."""
        name = self.name(i, "term")
        if name in data:
            return Var(name)
        if self.known(i + 1, name, self.values):
            return Val(name)
        raise self.error(i + 1, f"{name!r} is neither a bound variable nor a domain value")

    # -- the term loop -------------------------------------------------------

    def term(self, g: _Grammar, i, data):
        """The term of grammar `g` at token i, and the index after it.  The
        keys of `data` are the data variables in scope, and `bound` holds the
        logical or recursion variables, each innermost last.  The group being
        read (the whole term, a parenthesis or a binder body) keeps its
        opener, its operands by infix level, the prefixes waiting for its next
        operand and how many data variables were in scope when it opened;
        `stack` keeps the enclosing groups, innermost last."""
        words, infix, joins, table = self.words, g.infix, g.joins, g.starts
        ports, payloads, tight = self.ports, self.payloads, len(g.joins) - 1
        stack, bound = [], []
        opener, items, pending, base = None, [[] for _ in joins], [], len(data)
        while True:
            word = words[i]
            entry = table.get(word)
            if entry is not None:
                kind, arg = entry
            elif word in _NOT_NAMES:
                raise self.error(i, f"{g.expected}, found {word!r}")
            else:
                kind = g.name
            if kind is _PVAR_OR_ACTION:
                # a recursion variable, unless it starts an action like i?req
                mark = words[i + 1]
                if mark != "?" and mark != "!":
                    if word not in bound:
                        self.value(i, "port")
                        raise self.error(i + 1, "expected '?' or '!' after port name")
                    x = P.PVar(word)
                    i += 1
                elif word in ports and words[i + 2] in payloads and words[i + 3] == ".":
                    pending.append((P.Prefix, (Action(word, mark == "?", words[i + 2]),)))
                    i += 4
                    continue
                else:  # not an action: the checks, in turn, say why
                    self.value(i, "port")
                    self.value(i + 2, "payload")
                    raise self.error(i + 3, f"expected '.', found {words[i + 3]!r}")
            elif kind is _LEAF:
                x = arg
                i += 1
            elif kind is _OPEN or kind is _BIND:
                stack.append((opener, items, pending, base))
                if kind is _OPEN:
                    opener, i = _OPEN, i + 1
                else:
                    bound.append(self.name(i + 1, arg[1]))
                    opener, i = arg[0], self.expect(i + 2, ".")
                items, pending, base = [[] for _ in joins], [], len(data)
                continue
            elif kind is _GUARD:
                pat, i = self.pattern(i + 1, data)
                data.update(dict.fromkeys(pat.binders))
                cond, i = self.guard(i, data)
                i = self.expect(i, arg[0])
                pending.append((arg[1], (SymbolicAction(pat, cond),)))
                continue
            elif kind is _TRANSFORM:
                if words[i + 1] == "*":
                    pat, i = InsertPattern(), i + 2
                else:
                    pat, i = self.pattern(i + 1, data)
                    data.update(dict.fromkeys(pat.binders))
                cond, i = self.guard(i, data)
                if words[i] == "->":
                    if words[i + 1] == "tau":
                        target, i = TAU, i + 2
                    else:
                        target, i = self.pattern(i + 1, data, allow_binders=False)
                elif isinstance(pat, InsertPattern):
                    raise self.error(i, "an insertion transform needs an explicit '-> target'")
                else:
                    target = underline(pat)
                i = self.expect(self.expect(i, "}"), ".")
                pending.append((T.TPrefix, (pat, cond, target)))
                continue
            elif kind is _TAU:
                i = self.expect(i + 1, ".")
                pending.append((P.Prefix, (TAU,)))
                continue
            elif kind is _NOT:
                i += 1
                pending.append((Not, ()))
                continue
            elif kind is _CMP:
                left, op = self.operand(i, data), words[i + 1]
                if op != "=" and op != "!=":
                    raise self.error(i + 1, "expected '=' or '!=' in condition")
                x, i = Cmp(left, self.operand(i + 2, data), equal=op == "="), i + 3
            elif kind is _FVAR:
                if word not in bound:
                    raise self.error(i, f"unbound logical variable {word!r}")
                x, i = F.FVar(word), i + 1
            else:  # _TVAR
                if word not in bound:
                    raise self.error(i, f"{g.expected}, found {word!r}")
                x, i = T.TVar(word), i + 1

            # x is an operand: apply the prefixes waiting for it, then read on
            while True:
                if pending:
                    for build, args in reversed(pending):
                        x = build(*args, x)
                    pending.clear()
                    while len(data) > base:
                        data.popitem()
                items[tight].append(x)
                level = infix.get(words[i])
                if level is not None:
                    i += 1
                    for k in range(tight, level, -1):
                        items[k - 1].append(_join(items[k], joins[k]))
                        items[k] = []
                    break
                # no infix operator follows, so the group ends here
                for k in range(tight, 0, -1):
                    items[k - 1].append(_join(items[k], joins[k]))
                x = _join(items[0], joins[0])
                if opener is None:
                    return x, i
                if opener is _OPEN:
                    i = self.expect(i, ")")
                else:  # a binder class
                    x = opener(bound.pop(), x)
                opener, items, pending, base = stack.pop()


# ---------------------------------------------------------------------------
# Entry points: `text` is a string, or the tokens of a spec-file body


def parse_formula(text: str, domain: Domain) -> F.Formula:
    return _Reader(text, domain).read(_FORMULA)


def parse_process(text: str, domain: Domain) -> P.Process:
    out = _Reader(text, domain).read(_PROCESS)
    P.checked_process(out)
    return out


def parse_transducer(text: str, domain: Domain) -> T.Transducer:
    out = _Reader(text, domain).read(_TRANSDUCER)
    T.checked_transducer(out)
    return out


def parse_label(text: str):
    """An action or tau, without domain checking; for explicit LTS files."""
    text = text.strip()
    if text == "tau":
        return TAU
    m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)([?!])([A-Za-z_][A-Za-z0-9_]*)", text)
    if not m:
        raise ParseError(f"bad transition label {text!r}")
    return Action(m.group(1), m.group(2) == "?", m.group(3))


def parse_lts(text: str) -> P.LTS:
    """Line-oriented explicit LTS: `state -label-> state` transition lines and
    one `init STATE` line, the word `init` and one state name."""
    initial = None
    edges = []
    states = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"(\S+)\s*-(.+?)->\s*(\S+)", line)
        if m:
            src, label, dst = m.group(1), parse_label(m.group(2)), m.group(3)
            edges.append((src, label, dst))
            states.extend((src, dst))
            continue
        words = line.split()
        if words[0] != "init":
            raise ParseError(f"bad LTS line {raw_line!r}")
        if len(words) != 2:
            raise ParseError("init line needs exactly one state name")
        if initial is not None:
            raise ParseError("duplicate init line")
        initial = words[1]
    if initial is None:
        raise ParseError("LTS file is missing an init line")
    return P.LTS(initial, edges, states=states)


# ---------------------------------------------------------------------------
# Spec files


@dataclass
class SpecFile:
    """A named collection of definitions over one declared domain."""

    domain: Domain
    processes: dict = field(default_factory=dict)
    formulas: dict = field(default_factory=dict)
    transducers: dict = field(default_factory=dict)

    def lookup(self, kind: str, name: str):
        table = getattr(self, kind)
        if name not in table:
            what = "process" if kind == "processes" else kind[:-1]
            raise ParseError(f"{what} {name!r} is not defined in the spec file")
        return table[name]


_SET_RE = re.compile(r"\{([^}]*)\}")


def _parse_name_set(line: str, what: str, raw_line: str):
    """The names of a `ports = {...}` or `payloads = {...}` line: its keyword,
    `=` and the set, and nothing after the set."""
    m = _SET_RE.search(line)
    if not m:
        raise ParseError(f"expected {{...}} on the {what} line")
    if not re.fullmatch(rf"{what}\s*=\s*", line[: m.start()]) or line[m.end() :].strip():
        raise ParseError(f"cannot parse spec line {raw_line!r}")
    names = [n.strip() for n in m.group(1).split(",") if n.strip()]
    if not names:
        raise ParseError(f"{what} set must not be empty")
    return names


def parse_specfile(text: str) -> SpecFile:
    """A spec file: a `ports = {...}` line, a `payloads = {...}` line and one
    `kind name = body` line per definition; `#` starts a comment.  The file,
    its comments blanked, is tokenized once, and each body is read off its
    own run of tokens, so an error in a body gives its position in the file."""
    header = {"ports": None, "payloads": None}
    pending = []  # (kind, name, body start, body end)
    blanked = []
    offset = 0
    for raw_line, raw in zip(text.splitlines(), text.splitlines(keepends=True)):
        start, offset = offset, offset + len(raw)
        code = raw.split("#", 1)[0]
        blanked.append(code.ljust(len(raw)))
        line = code.strip()
        if not line:
            continue
        head = line.split("=", 1)[0].strip().split()
        if head and head[0] in header:
            if header[head[0]] is not None:
                raise ParseError(f"second {head[0]} line {raw_line!r}")
            header[head[0]] = _parse_name_set(line, head[0], raw_line)
        else:
            if len(head) != 2 or head[0] not in ("process", "formula", "transducer"):
                raise ParseError(f"cannot parse spec line {raw_line!r}")
            kind, name = head
            if "=" not in line:
                raise ParseError(f"missing '=' in definition of {name!r}")
            end = start + len(code.rstrip())
            pending.append((kind, name, end - len(line.split("=", 1)[1].strip()), end))
    if None in header.values():
        raise ParseError("spec file must declare ports = {...} and payloads = {...}")
    domain = Domain(header["ports"], header["payloads"])
    spec = SpecFile(domain)
    seen = set()
    parsers = {
        "process": (parse_process, spec.processes),
        "formula": (parse_formula, spec.formulas),
        "transducer": (parse_transducer, spec.transducers),
    }
    toks = _tokenize(text, "".join(blanked))
    for kind, name, start, end in pending:
        if name in seen:
            raise ParseError(f"duplicate definition name {name!r}")
        seen.add(name)
        lo, hi = bisect_left(toks.starts, start), bisect_left(toks.starts, end)
        body = _Tokens(
            text,
            toks.words[lo:hi] + [""],
            toks.starts[lo:hi] + [end],
            [pos for pos in toks.unreadable if start <= pos < end],
        )
        fn, table = parsers[kind]
        table[name] = fn(body, domain)
    return spec


def load_specfile(path) -> SpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_specfile(fh.read())
