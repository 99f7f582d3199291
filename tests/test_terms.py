"""The term representation: every term class is a frozen, slotted dataclass
built by `symbolic.term`, whose structural hash is computed once per object
and kept."""
import dataclasses
import inspect

import pytest

from enfkit import formulas, processes, runtime, symbolic, transducers
from enfkit.harness import gen_formula, gen_process
from enfkit.parsing import parse_formula, parse_process, parse_transducer
from enfkit.symbolic import CachedHash
from enfkit.synthesis import compile_formula

from conftest import act

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
        assert cls.__hash__ is CachedHash.__hash__, cls
        assert cls.__dictoffset__ == 0, f"{cls.__name__} instances carry a __dict__"
    # a term class of the three languages without a declared shape would be
    # a leaf to every walker: its subterms and binders would go unseen
    languages = [cls for cls in classes if cls.__module__ in LANGUAGE_MODULES]
    assert len(languages) == 19
    for cls in languages:
        assert isinstance(symbolic.SHAPES.get(cls), symbolic.Shape), cls
    assert set(symbolic.SHAPES) == set(languages)


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
        hash(t)
        for name in (field, "_hash"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, None)
        assert hash(t) == hash(t._hash_key(t))
