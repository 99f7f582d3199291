import pytest

from enfkit.harness import gen_formula, gen_process
from enfkit.normalizer import normalize
from enfkit.parsing import (
    ParseError,
    parse_formula,
    parse_lts,
    parse_process,
    parse_specfile,
    parse_transducer,
)
from enfkit.synthesis import compile_formula


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
