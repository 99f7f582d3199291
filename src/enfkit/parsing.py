"""Concrete syntax for actions, conditions, formulas, processes, transducers,
spec files and explicit LTS files.

One hand-rolled tokenizer feeds small recursive-descent parsers.  Identifier
resolution is scope-first: a name bound by an enclosing pattern binder is a
data variable, otherwise it must be a declared domain value.  Binder names
may not collide with domain values, which keeps printing/reparsing stable.

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
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import formulas as F
from . import processes as P
from . import transducers as T
from .symbolic import (
    TAU,
    Action,
    ActionPattern,
    And,
    Binder,
    Cmp,
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


_TOKEN_RE = re.compile(
    r"\s+|(?P<comment>#[^\n]*)|(?P<op>->|&&|\|\||!=|=|\?|!|\.|\+|\(|\)|\[|\]|<|>|\{|\}|\*)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
)


@dataclass
class Token:
    kind: str  # 'op' | 'name' | 'kw' | 'eof'
    text: str
    pos: int


def tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos, text)
        pos = m.end()
        if m.lastgroup in (None, "comment"):
            continue
        tok = m.group()
        if m.lastgroup == "name":
            out.append(Token("kw" if tok in KEYWORDS else "name", tok, m.start()))
        else:
            out.append(Token("op", tok, m.start()))
    out.append(Token("eof", "", len(text)))
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


class Parser:
    def __init__(self, text: str, domain: Domain | None):
        self.text = text
        self.domain = domain
        self.toks = tokenize(text)
        self.i = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]

    def next(self) -> Token:
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

    def expect(self, text: str) -> Token:
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


# ---------------------------------------------------------------------------
# Entry points


def parse_formula(text: str, domain: Domain) -> F.Formula:
    p = Parser(text, domain)
    out = p.formula(_Scope())
    p.done()
    return out


def parse_process(text: str, domain: Domain) -> P.Process:
    p = Parser(text, domain)
    out = p.process(_Scope())
    p.done()
    P.validate_process(out)
    return out


def parse_transducer(text: str, domain: Domain) -> T.Transducer:
    p = Parser(text, domain)
    out = p.transducer(_Scope())
    p.done()
    T.validate_transducer(out)
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
            raise ParseError(f"{kind[:-1]} {name!r} is not defined in the spec file")
        return table[name]


_SET_RE = re.compile(r"\{([^}]*)\}")


def _parse_name_set(line: str, what: str):
    m = _SET_RE.search(line)
    if not m:
        raise ParseError(f"expected {{...}} on the {what} line")
    names = [n.strip() for n in m.group(1).split(",") if n.strip()]
    if not names:
        raise ParseError(f"{what} set must not be empty")
    return names


def parse_specfile(text: str) -> SpecFile:
    ports = None
    payloads = None
    pending = []  # (kind, name, body-text)
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split("=", 1)[0].strip().split()
        if head and head[0] == "ports":
            ports = _parse_name_set(line, "ports")
        elif head and head[0] == "payloads":
            payloads = _parse_name_set(line, "payloads")
        else:
            if len(head) != 2 or head[0] not in ("process", "formula", "transducer"):
                raise ParseError(f"cannot parse spec line {raw_line!r}")
            kind, name = head
            if "=" not in line:
                raise ParseError(f"missing '=' in definition of {name!r}")
            body = line.split("=", 1)[1].strip()
            pending.append((kind, name, body))
    if ports is None or payloads is None:
        raise ParseError("spec file must declare ports = {...} and payloads = {...}")
    domain = Domain(ports, payloads)
    spec = SpecFile(domain)
    seen = set()
    parsers = {
        "process": (parse_process, spec.processes),
        "formula": (parse_formula, spec.formulas),
        "transducer": (parse_transducer, spec.transducers),
    }
    for kind, name, body in pending:
        if name in seen:
            raise ParseError(f"duplicate definition name {name!r}")
        seen.add(name)
        fn, table = parsers[kind]
        table[name] = fn(body, domain)
    return spec


def load_specfile(path) -> SpecFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_specfile(fh.read())
