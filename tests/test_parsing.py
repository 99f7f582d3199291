import gzip
import json
import os
import random
import sys
import time

import pytest

from enfkit.formulas import FF, TT, Box, Dia, FAnd, FOr, FVar, Max, Min
from enfkit.harness import gen_formula, gen_process
from enfkit.normalizer import normalize
from enfkit.parsing import (
    ParseError,
    SpecFile,
    parse_formula,
    parse_label,
    parse_lts,
    parse_process,
    parse_specfile,
    parse_transducer,
)
from enfkit.processes import NIL, Choice, Prefix, PVar, Rec
from enfkit.symbolic import (
    TAU, TRUE, And, Domain, InsertPattern, Not, Or, SymbolicAction, underline,
)
from enfkit.synthesis import compile_formula
from enfkit.transducers import ID, TPrefix, TRec, TSum, TVar
from inputs import D23, D34, DEPTH, check_large_spec, deep_chain
from oracles import (
    descent_parse_formula,
    descent_parse_process,
    descent_parse_specfile,
    descent_parse_transducer,
    descent_tokenize,
    method_str,
)


SPEC_TEXT = """
# the request/answer server example
ports = {i, j}
payloads = {req, ans, cls}

process pg = rec X.(i?req.i!ans.X + i?cls.nil)
process pb = rec X.(i?req.X + i?req.i!ans.X + i?cls.nil)
formula phi1 = max X.[(x)?req when x != j]([x!ans]X && [x?req]ff)
transducer ess = rec x.{(y)?req when y != j}.rec z.({y!ans}.x + {y?req -> tau}.z)
"""


def test_specfile_roundtrip(dom, terms):
    spec = parse_specfile(SPEC_TEXT)
    assert spec.domain == dom
    assert spec.processes["pg"] == terms["pg"]
    assert spec.processes["pb"] == terms["pb"]
    assert spec.formulas["phi1"] == terms["phi1"]
    assert spec.transducers["ess"] == terms["ess"]


def test_specfile_rejects_duplicates_and_missing_domain():
    with pytest.raises(ParseError):
        parse_specfile("ports = {i}\npayloads = {req}\nprocess p = nil\nprocess p = nil\n")
    with pytest.raises(ParseError):
        parse_specfile("process p = nil\n")
    with pytest.raises(ParseError):
        parse_specfile("ports = {i}\npayloads = {req}\nprocess p = i?bogus.nil\n")


def test_parse_error_carries_position(dom):
    with pytest.raises(ParseError) as err:
        parse_formula("max X.[i?req]\n  Y", dom)
    assert "line 2" in str(err.value)


def test_elidable_when_true(dom):
    assert parse_formula("[i?req]ff", dom) == parse_formula("[i?req when true]ff", dom)
    assert parse_transducer("{i?req}.id", dom) == parse_transducer(
        "{i?req when true -> i?req}.id", dom
    )


def test_insertion_needs_explicit_target(dom):
    with pytest.raises(ParseError):
        parse_transducer("{*}.id", dom)


def test_transducer_target_scope(dom):
    with pytest.raises(ParseError):
        parse_transducer("{i?req -> x?req}.id", dom)  # x unbound
    with pytest.raises(ParseError):
        parse_transducer("{(x)?req -> (y)?req}.id", dom)  # binder in target


def test_lts_requires_init():
    with pytest.raises(ParseError):
        parse_lts("a -i?req-> b\n")


def test_lts_init_line_is_the_word_init_and_one_state():
    lts = parse_lts("init s0\ns0 -i?req-> initial\ninitial -i!ans-> init2\ninit2 -j?req-> s0\n")
    assert lts.initial == "s0"
    assert set(lts.states) == {"s0", "initial", "init2"}
    assert len(list(lts.transitions())) == 3
    assert parse_lts("a -i?req-> b\n  init   b  # comment\n").initial == "b"
    for bad in ("init a b\n", "init\n", "init a\ninit a\n", "initial a\n"):
        with pytest.raises(ParseError):
            parse_lts(bad)


@pytest.mark.parametrize("seed", range(40))
def test_formula_print_parse_roundtrip(dom, seed):
    f = gen_formula(dom, 1 + (seed % 8), 6100 + seed)
    assert parse_formula(str(f), dom) == f
    nf = normalize(f, dom)
    assert parse_formula(str(nf), dom) == nf


@pytest.mark.parametrize("seed", range(40))
def test_process_print_parse_roundtrip(dom, seed):
    p = gen_process(dom, 1 + (seed % 10), 6200 + seed)
    assert parse_process(str(p), dom) == p


@pytest.mark.parametrize("seed", range(25))
def test_transducer_print_parse_roundtrip(dom, seed):
    e = compile_formula(gen_formula(dom, 1 + (seed % 8), 6300 + seed), dom)
    assert parse_transducer(str(e), dom) == e


def test_worked_terms_roundtrip(dom, terms):
    for name, term in terms.items():
        text = str(term)
        if name in ("phi0", "phi1", "phins"):
            assert parse_formula(text, dom) == term
        elif name in ("pg", "pb", "reqnil"):
            assert parse_process(text, dom) == term
        else:
            assert parse_transducer(text, dom) == term


@pytest.mark.parametrize(
    "text, column",
    [
        ("[(x)?(x)]ff", 6),
        ("[(z)?(y)][z?(z)]ff", 13),
        ("[(z)?(y)][(z)?z]ff", 15),
    ],
)
def test_a_pattern_cannot_name_its_binder_twice(dom, text, column):
    # a name is either a binder or a free slot of one pattern
    with pytest.raises(ParseError, match="names the binder '[xz]' twice") as err:
        parse_formula(text, dom)
    assert f"column {column})" in str(err.value)


def test_a_repeated_free_slot_name_parses(dom):
    f = parse_formula("[(z)?(y)][z?z]ff", dom)
    assert f.body.action.pattern.free_vars == {"z"}


# ---------------------------------------------------------------------------
# Positions in spec files, and agreement with the recursive-descent oracle
# (the terms of generated texts: the `parser` row of tests/test_oracles.py;
# mutants of them: below)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "ports = {i}\npayloads = {req}\n\nprocess p = i?req.i?bogus.nil",
            "'bogus' is not a declared payload (line 4, column 26)",
        ),
        (
            "# head\nports = {i}  # ports\npayloads = {req}\nformula f = [i?req]ff  # ok\n"
            "process p = i?req.  # cut\n",
            "expected a process, found '' (line 5, column 19)",
        ),
        (
            "ports = {i, j}\r\npayloads = {req}\r\n"
            "process p = i?req.nil\r\nprocess q = i?req, nil\r\n",
            "unexpected character ',' (line 4, column 18)",
        ),
        (
            "ports = {i}\npayloads = {req}\ntransducer e = {i?req -> tau}.id + x\n",
            "expected a transducer, found 'x' (line 3, column 36)",
        ),
    ],
)
def test_spec_errors_give_file_positions(text, message):
    with pytest.raises(ParseError) as err:
        parse_specfile(text)
    assert str(err.value) == message
    with pytest.raises(ParseError) as oracle:
        descent_parse_specfile(text)
    assert str(oracle.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("ports = {i}\nports = {j}\npayloads = {req}\n", "second ports line 'ports = {j}'"),
        (
            "ports = {i}\npayloads = {req}\npayloads = {ans}  # again\n",
            "second payloads line 'payloads = {ans}  # again'",
        ),
        ("ports = {i} junk\npayloads = {req}\n", "cannot parse spec line 'ports = {i} junk'"),
        ("ports {i}\npayloads = {req}\n", "cannot parse spec line 'ports {i}'"),
        ("ports = {i}\npayloads {req} =\n", "cannot parse spec line 'payloads {req} ='"),
    ],
)
def test_a_header_line_is_its_keyword_and_one_set_once(text, message):
    # like a definition name, each header is declared once, and a header
    # line holds its keyword, '=' and the set, and nothing after the set
    for parse in (parse_specfile, descent_parse_specfile):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message
    for parse in (parse_specfile, descent_parse_specfile):
        assert parse("ports={i}  # one\npayloads =  {req}\n").domain == Domain({"i"}, {"req"})


def _outcome(parse, *args):
    """(True, the term a parse returns), or (False, the class, message and
    position of what it raises)."""
    try:
        return True, parse(*args)
    except Exception as e:  # the class is part of what must agree
        return False, type(e), str(e), getattr(e, "pos", None)


def _same(got, want) -> bool:
    """Terms are interned, so the same term is the same object; spec files
    hold the same terms under the same names."""
    if isinstance(got, SpecFile):
        kinds = ("formulas", "processes", "transducers")
        tables = [(getattr(got, kind), getattr(want, kind)) for kind in kinds]
        return got.domain == want.domain and all(
            a.keys() == b.keys() and all(a[name] is b[name] for name in a) for a, b in tables
        )
    return got is want


def _agree(new, old, *args) -> bool:
    """Whether the parse accepts `args`, after checking that the oracle
    returns the same term or raises the same error."""
    got, want = _outcome(new, *args), _outcome(old, *args)
    if got[0] and want[0]:
        assert _same(got[1], want[1]), args[0]
    else:
        assert got == want, args[0]
    return got[0]


#: A text per error the three grammars raise, read with and without a domain.
ERRORS = [
    *(("formula", text) for text in (
        "[i?req]ff é", "tt tt", "max .tt", "max X tt", "[(?req]ff", "[(x?req]ff", "[?req]ff",
        "[i req]ff", "[i?req ff", "[(i)?req]ff", "[x?req]ff", "[(x)?(x)]ff", "[i?req when]ff",
        "[i?req when = i]ff", "[i?req when i]ff", "[i?req when x = i]ff", "[i?req when (true]ff",
        "(tt", "X", ")", "<i?req]ff", "tt &&",
    )),
    *(("process", text) for text in (
        "k?req.nil", "i?foo.nil", "i.nil", "i", "i?", "i?req", "i?req nil", "tau nil", "rec .nil",
        "rec X.X", "rec X.(i?req.X", "tt", "rec X.X?req.nil", "nil + ", "",
    )),
    *(("transducer", text) for text in (
        "{*}.id", "{(x)?req -> (y)?req}.id", "{i?req}id", "{i?req.id", "{i?req -> x?req}.id", "x",
        "rec x.x", "{* -> tau} id", "{(x)?req when x = y}.id",
    )),
]


@pytest.mark.parametrize("domain", [D23, None])
@pytest.mark.parametrize("kind, text", ERRORS)
def test_errors_match_the_oracle(kind, text, domain):
    new, old = {
        "formula": (parse_formula, descent_parse_formula),
        "process": (parse_process, descent_parse_process),
        "transducer": (parse_transducer, descent_parse_transducer),
    }[kind]
    assert not _agree(new, old, text, domain)


PINNED = os.path.join(os.path.dirname(__file__), "..", "perfbench", "pinned")


def _pinned_enforcers():
    for name in ("compile-ladder", "enforce-online"):
        with gzip.open(os.path.join(PINNED, f"{name}.json.gz"), "rt", encoding="utf-8") as fh:
            for item in json.load(fh)["items"]:
                if item.get("enforcer"):
                    yield D34 if item["part"] == "3x4" else D23, item["enforcer"]


def _seeded_texts():
    """(new parse, oracle parse, domain, text) over seeded formulas,
    processes and compiled enforcers."""
    for d, top in ((D23, 24), (D34, 16)):
        for seed in range(40):
            f = gen_formula(d, 1 + seed % top, 8100 + seed)
            yield parse_formula, descent_parse_formula, d, str(f)
            yield parse_formula, descent_parse_formula, d, str(normalize(f, d))
            p = gen_process(d, 1 + seed % 64, 8200 + seed)
            yield parse_process, descent_parse_process, d, str(p)
            if seed % 4 == 0:
                e = compile_formula(gen_formula(d, 1 + seed % 8, 8300 + seed), d)
                yield parse_transducer, descent_parse_transducer, d, str(e)


def _mutants(words, rng, count):
    """Up to `count` token lists, each one deletion, duplication or swap of
    neighbours away from `words`."""
    for _ in range(count):
        k = rng.randrange(len(words))
        how = rng.randrange(3)
        if how == 0:
            yield words[:k] + words[k + 1 :]
        elif how == 1:
            yield words[: k + 1] + words[k:]
        elif k + 1 < len(words):
            yield words[:k] + [words[k + 1], words[k]] + words[k + 2 :]


def _words(text):
    return [tok.text for tok in descent_tokenize(text)[:-1]]


def test_the_parser_rejects_what_the_oracle_rejects():
    # the oracle's verdicts on mutants of seeded texts, of pinned enforcers
    # and of the check-large spec lines
    rng = random.Random(5)
    accepted = rejected = 0
    texts = list(_seeded_texts())[::3]
    texts += [
        (parse_transducer, descent_parse_transducer, d, text)
        for d, text in list(_pinned_enforcers())[:: 40]
        if len(text) < 2000
    ]
    for new, old, d, text in texts:
        for words in _mutants(_words(text), rng, 25):
            ok = _agree(new, old, " ".join(words), d)
            accepted, rejected = accepted + ok, rejected + (not ok)
    for key in range(0, 160, 8):
        lines = check_large_spec(key).splitlines()
        for row in (2, 3):
            head, body = lines[row].split(" = ", 1)
            for words in _mutants(_words(body), rng, 25):
                text = "\n".join([*lines[:row], f"{head} = {' '.join(words)}", *lines[row + 1 :]])
                ok = _agree(parse_specfile, descent_parse_specfile, text)
                accepted, rejected = accepted + ok, rejected + (not ok)
    # most mutants are rejected; a few (two branches swapped, say) still parse
    assert accepted >= 20 and rejected >= 2000


# ---------------------------------------------------------------------------
# Depth: the parser and the printer keep their stacks in lists, not in frames

def _reads_and_prints(parse, text, term, dom):
    """`text` reads as `term`, and `term` prints as a text that reads back as it."""
    assert parse(text, dom) is term
    assert parse(str(term), dom) is term


def test_deep_prefix_chains_parse(dom):
    assert sys.getrecursionlimit() < DEPTH
    act, tau = parse_label("i?req"), parse_label("tau")
    box = parse_formula("[i?req]ff", dom).action
    for parse, text, term in [
        (parse_process, "i?req." * DEPTH + "nil", deep_chain(NIL, lambda t, k: Prefix(act, t))),
        (parse_process, "tau." * DEPTH + "nil", deep_chain(NIL, lambda t, k: Prefix(tau, t))),
        (parse_formula, "[i?req]" * DEPTH + "ff", deep_chain(FF, lambda t, k: Box(box, t))),
        (parse_formula, "<i?req>" * DEPTH + "tt", deep_chain(TT, lambda t, k: Dia(box, t))),
    ]:
        _reads_and_prints(parse, text, term, dom)
    binding = parse_formula("[(x)?req when x != j]ff", dom).action
    text = "[(x)?req when x != j]" * DEPTH + "ff"
    _reads_and_prints(parse_formula, text, deep_chain(FF, lambda t, k: Box(binding, t)), dom)
    for text in ("{i?req}.", "{(x)?req when x != j -> x!ans}."):
        transform = parse_transducer(text + "id", dom)
        _reads_and_prints(parse_transducer, text * DEPTH + "id", deep_chain(
            ID, lambda t, k: TPrefix(transform.pattern, transform.condition, transform.target, t)
        ), dom)


def test_deep_binders_parse(dom):
    # ten names, so that each binder shadows one ten levels up
    names = [f"X{k % 10}" for k in range(DEPTH)]
    act = parse_label("i?req")
    text = "".join(f"rec {n}." for n in names) + "i?req.X0"
    expect = Prefix(act, PVar("X0"))
    for n in reversed(names):
        expect = Rec(n, expect)
    _reads_and_prints(parse_process, text, expect, dom)
    text = "".join(f"max {n}." for n in names) + "[i?req]X0 && min X.X"
    expect = FAnd((Box(parse_formula("[i?req]ff", dom).action, FVar("X0")), Min("X", FVar("X"))))
    for n in reversed(names):
        expect = Max(n, expect)
    _reads_and_prints(parse_formula, text, expect, dom)
    text = "".join(f"rec {n.lower()}." for n in names) + "{i?req}.x0"
    transform = parse_transducer("{i?req}.id", dom)
    expect = TPrefix(transform.pattern, transform.condition, transform.target, TVar("x0"))
    for n in reversed(names):
        expect = TRec(n.lower(), expect)
    _reads_and_prints(parse_transducer, text, expect, dom)


def test_deep_parentheses_parse(dom):
    wrap = lambda text: "(" * DEPTH + text + ")" * DEPTH
    assert parse_process(wrap("nil"), dom) is NIL
    assert parse_formula(wrap("tt"), dom) is TT
    assert parse_transducer(wrap("id"), dom) is ID
    assert parse_formula(f"[i?req when {wrap('true')}]ff", dom) is parse_formula("[i?req]ff", dom)
    guard = f"[i?req when {'!' * DEPTH}true]ff"
    _reads_and_prints(parse_formula, guard, Box(SymbolicAction(
        parse_formula("[i?req]ff", dom).action.pattern, deep_chain(TRUE, lambda t, k: Not(t))), FF), dom)
    # a conjunction inside a conjunction, or a disjunction inside one, is
    # parenthesised; a conjunction inside a disjunction is not
    box = parse_formula("[i?req]ff", dom)
    cond = parse_formula("[(x)?req when x = i]ff", dom).action.condition
    nest, cond_nest = box, cond
    for k in range(DEPTH):
        nest = (FAnd if k % 3 else FOr)((nest, box))
        cond_nest = (And if k % 3 else Or)((cond_nest, cond))
    assert parse_formula(str(nest), dom) is nest
    binding = parse_formula("[(x)?req]ff", dom).action.pattern
    guarded = Box(SymbolicAction(binding, cond_nest), FF)
    assert parse_formula(str(guarded), dom) is guarded


def test_wide_sums_parse(dom):
    branch = parse_process("i?req.nil", dom)
    text = " + ".join(["i?req.nil"] * DEPTH)
    _reads_and_prints(parse_process, text, Choice((branch,) * DEPTH), dom)
    box = parse_formula("[i?req]ff", dom)
    _reads_and_prints(parse_formula, " && ".join(["[i?req]ff"] * DEPTH), FAnd((box,) * DEPTH), dom)
    _reads_and_prints(parse_formula, " || ".join(["[i?req]ff"] * DEPTH), FOr((box,) * DEPTH), dom)
    transform = parse_transducer("{i?req}.id", dom)
    text = " + ".join(["{i?req}.id"] * DEPTH)
    _reads_and_prints(parse_transducer, text, TSum((transform,) * DEPTH), dom)


def test_printing_time_is_linear_in_depth():
    act = parse_label("i?req")
    chains = [deep_chain(NIL, lambda t, k: Prefix(act, t))]
    chains.append(deep_chain(chains[0], lambda t, k: Prefix(act, t)))

    def best(t):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            str(t)
            times.append(time.perf_counter() - start)
        return min(times)

    short, long = map(best, chains)
    assert long <= 3.5 * short


# ---------------------------------------------------------------------------
# Printing: one loop over the layouts prints what the per-class methods did
# (on generated terms: the `printer` row of tests/test_oracles.py)


def test_the_printer_parenthesises_and_leaves_out_as_the_methods_did(dom):
    box = parse_formula("[i?req]ff", dom)
    binding = parse_formula("[(x)?(y) when x != j]ff", dom).action
    req, ans = parse_label("i?req"), parse_label("i!ans")
    cond = parse_formula("[(x)?req when x = i || x = j]ff", dom).action.condition
    plain = parse_transducer("{(x)?req}.id", dom)
    cases = [
        FAnd((FAnd((box, FF)), box)),
        FAnd((FOr((box, FF)), Max("X", Box(box.action, FVar("X"))))),
        Box(binding, Max("X", FAnd((Box(binding, FVar("X")), TT)))),
        Box(binding, FAnd((FF, TT))),
        Dia(box.action, FOr((TT, FF))),
        Prefix(req, Choice((Prefix(ans, NIL), NIL))),
        Prefix(req, Rec("X", Prefix(ans, PVar("X")))),
        Choice((Choice((NIL, NIL)), Prefix(req, NIL))),
        Not(cond),
        Not(Not(And((cond, TRUE)))),
        TPrefix(plain.pattern, cond, plain.target, ID),
        TPrefix(plain.pattern, TRUE, TAU, TSum((ID, TRec("x", TVar("x"))))),
        TPrefix(InsertPattern(), TRUE, parse_transducer("{i?req}.id", dom).target, ID),
        TPrefix(plain.pattern, TRUE, underline(plain.pattern), ID),
        TPrefix(plain.pattern, TRUE, parse_transducer("{(x)?req -> x!ans}.id", dom).target, ID),
    ]
    texts = [
        "([i?req]ff && ff) && [i?req]ff",
        "([i?req]ff || ff) && (max X.[i?req]X)",
        "[(x)?(y) when x != j](max X.[(x)?(y) when x != j]X && tt)",
        "[(x)?(y) when x != j](ff && tt)",
        "<i?req>(tt || ff)",
        "i?req.(i!ans.nil + nil)",
        "i?req.(rec X.i!ans.X)",
        "(nil + nil) + i?req.nil",
        "!(x = i || x = j)",
        "!!((x = i || x = j) && true)",
        "{(x)?req when x = i || x = j}.id",
        "{(x)?req -> tau}.(id + (rec x.x))",
        "{* -> i?req}.id",
        "{(x)?req}.id",
        "{(x)?req -> x!ans}.id",
    ]
    for t, text in zip(cases, texts):
        assert str(t) == method_str(t) == text
