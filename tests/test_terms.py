"""The term representation: every term class is a frozen, slotted dataclass
built by `symbolic.term`, which interns each term as it is built, so
structurally equal terms are one object and hash and compare by identity."""
import copy
import dataclasses
import gc
import inspect
import pickle
import weakref

import pytest

from enfkit import formulas, processes, runtime, symbolic, transducers
from enfkit.harness import gen_formula, gen_process
from enfkit.parsing import parse_formula, parse_process, parse_transducer
from enfkit.symbolic import CachedHash
from enfkit.synthesis import compile_formula

from conftest import act
from oracles import structurally_equal

TERM_MODULES = (symbolic, formulas, processes, transducers, runtime)
LANGUAGE_MODULES = {m.__name__ for m in (formulas, processes, transducers)}


def _frozen_dataclasses():
    for module in TERM_MODULES:
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (
                cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and cls.__dataclass_params__.frozen
            ):
                yield cls


def test_every_term_class_is_built_by_term():
    # a term class left on the plain dataclass hash would rehash its whole
    # subterm on every set or dict operation
    classes = [cls for cls in _frozen_dataclasses() if cls is not symbolic.Domain]
    names = {cls.__name__ for cls in classes}
    assert {"Action", "SymbolicAction", "Box", "Prefix", "TPrefix", "Config", "SimStep"} <= names
    for cls in classes:
        assert issubclass(cls, CachedHash), cls
        # identity, in C: no Python-level hash or equality on any term
        assert cls.__hash__ is object.__hash__ and cls.__eq__ is object.__eq__, cls
        assert cls.__dictoffset__ == 0, f"{cls.__name__} instances carry a __dict__"
    # a term class of the four languages (conditions the fourth) without a
    # declared shape would be a leaf to every walker: its subterms and
    # binders would go unseen
    conditions = {
        symbolic.CTrue, symbolic.CFalse, symbolic.Cmp, symbolic.And, symbolic.Or, symbolic.Not
    }
    languages = [cls for cls in classes if cls.__module__ in LANGUAGE_MODULES or cls in conditions]
    assert len(languages) == 25
    for cls in languages:
        assert isinstance(symbolic.SHAPES.get(cls), symbolic.Shape), cls
    assert set(symbolic.SHAPES) == set(languages)


def test_every_term_class_prints_by_its_layout():
    # the runtime's configurations and steps keep a display of their own;
    # a term outside the four languages prints by `show` memoised
    classes = [cls for cls in _frozen_dataclasses() if cls is not symbolic.Domain]
    own = {runtime.Config, runtime.SimStep}
    assert set(symbolic.LAYOUTS) == set(classes) - own
    for cls in symbolic.LAYOUTS:
        printer = cls.__str__ if cls in symbolic.SHAPES else cls.__str__.__wrapped__
        assert printer is symbolic.show, cls
    assert all(vars(cls)["__str__"] is not symbolic.show for cls in own)
    # `show` prints a term's one inline subterm after its other pieces
    for level, pieces, many in symbolic.LAYOUTS.values():
        inline = [k for k, piece in enumerate(pieces) if type(piece) is tuple]
        inline = [k for k in inline if type(pieces[k][1]) is int]
        assert many or inline in ([], [len(pieces) - 1])


def _generated_terms(dom):
    for seed in range(100):
        size = 1 + (seed % 6)
        f = gen_formula(dom, size, 9100 + seed)
        yield parse_formula, f
        yield parse_process, gen_process(dom, 1 + (seed % 10), 9200 + seed)
        yield parse_transducer, compile_formula(f, dom)


def test_hash_is_structural_and_stable(dom):
    for parse, t in _generated_terms(dom):
        first = hash(t)
        assert hash(t) == first
        again = parse(str(t), dom)
        assert again == t
        assert hash(again) == first
        assert hash(again) == hash(again)


def test_terms_are_frozen(dom, terms):
    samples = [
        (act("i?req"), "port"),
        (terms["phi1"], "body"),
        (terms["pg"], "body"),
        (terms["ess"], "body"),
        (runtime.Config(terms["ess"], terms["pg"]), "system"),
    ]
    for t, field in samples:
        for name in (field, "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, None)
        # a term is the one interned object for its class and fields
        assert type(t)(*(getattr(t, f.name) for f in dataclasses.fields(t))) is t
        assert hash(t) == object.__hash__(t)


def test_equal_terms_are_one_object(dom):
    # terms of all three languages from two separate generator runs, with
    # their subterms: one object exactly when the fields say they are equal
    def sample():
        out = []
        for seed in range(30):
            f = gen_formula(dom, 1 + seed % 4, 9300 + seed % 12)
            out += [f, gen_process(dom, 1 + seed % 5, 9400 + seed % 12), compile_formula(f, dom)]
        stack, seen = list(out), {}
        while stack:
            t = stack.pop()
            if id(t) not in seen:
                seen[id(t)] = t
                for field in dataclasses.fields(t):
                    stack += _term_values(getattr(t, field.name))
        return list(seen.values())

    first, second = sample(), sample()
    same = 0
    for a in first[:400]:
        for b in second[:400]:
            assert (a is b) == structurally_equal(a, b), (a, b)
            same += a is b
    assert same >= 50


def _term_values(value):
    items = value if type(value) is tuple else (value,)
    return [v for v in items if dataclasses.is_dataclass(v)]


def test_printing_and_parsing_give_the_same_object(dom):
    for parse, t in _generated_terms(dom):
        assert parse(str(t), dom) is t


def test_a_dropped_term_is_collected_and_its_entries_swept(dom):
    label = act("j?cls")
    # earlier cyclic garbage may hold terms: free them first, so the final
    # collection frees only the chain built here
    gc.collect()
    symbolic._sweep()
    entries = len(symbolic._TERMS)
    t = processes.PVar("Dropped")
    for _ in range(1000):
        t = processes.Prefix(label, t)
    ref = weakref.ref(t)
    assert len(symbolic._TERMS) == entries + 1001
    del t
    gc.collect()
    assert ref() is None
    # newest first: a key dropped frees its subterms before the scan gets there
    symbolic._sweep()
    assert len(symbolic._TERMS) == entries


def test_a_term_whose_facts_were_read_is_collected(dom):
    # the facts live in slots on the terms, so reading them keeps no term
    # alive; the names are this test's own, so no other test holds the terms
    req = symbolic.Action("i", True, "req")
    pattern = symbolic.ActionPattern(symbolic.Binder("gone"), True, symbolic.Lit("req"))
    guard = symbolic.SymbolicAction(pattern, symbolic.Cmp(symbolic.Var("gone"), symbolic.Val("j"), False))
    f = formulas.Max("Gone", formulas.Box(guard, formulas.FAnd((formulas.FVar("Gone"), formulas.FF))))
    p = processes.Rec("Gone", processes.Prefix(req, processes.Choice((processes.PVar("Gone"), processes.NIL))))
    e = transducers.TRec("gone", transducers.TPrefix(pattern, symbolic.TRUE, symbolic.TAU, transducers.TVar("gone")))
    formulas.require_safety(f, formulas.FormulaError)
    assert formulas.classify(f, dom) == (True, True, True, False)
    processes.validate_process(p)
    transducers.validate_transducer(e)
    for t in (f, p, e):
        assert symbolic.free_rec_vars(t) == symbolic.free_data_vars(t) == symbolic.unguarded(t) == frozenset()
    roots = [weakref.ref(t) for t in (f, p, e)]
    inner = [weakref.ref(t) for t in (f.body.body, p.body.cont, e.body)]
    del f, p, e, t
    gc.collect()
    assert [ref() for ref in roots] == [None] * 3
    # the intern table's keys hold a dead term's subterms until it is swept
    symbolic._sweep()
    assert [ref() for ref in inner] == [None] * 3


def test_a_field_that_cannot_be_hashed_is_refused():
    with pytest.raises(TypeError):
        formulas.FAnd([formulas.TT, formulas.FF])
    with pytest.raises(TypeError):
        symbolic.Lit({"i"})


def test_terms_pickle_and_copy_to_the_interned_object(dom, terms):
    samples = [runtime.Config(terms["ess"], terms["pg"]), symbolic.TRUE, act("i!ans")]
    samples += [t for _, t in _generated_terms(dom)][:60]
    for t in samples:
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
