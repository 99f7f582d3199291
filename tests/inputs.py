"""The inputs the tests share, each defined once and built once per session:
the domains, the worked server example, the formulas of the compile-ladder
goldens, the pinned `random:200:<seed>` corpora, check-large's pairs, and
the hypothesis strategies for seeded formulas, seeded pairs, and conditions
and guards.  `tests/conftest.py` hands some of them out as fixtures."""
import os
from functools import cache

from hypothesis import assume, strategies as st

from enfkit.harness import gen_formula, gen_process, make_corpus
from enfkit.parsing import parse_formula, parse_process, parse_transducer
from enfkit.symbolic import (
    FALSE, TRUE, ActionPattern, And, Binder, Cmp, Domain, Free, Lit, Not, Or, SymbolicAction, Val, Var,
)

D23 = Domain({"i", "j"}, {"req", "ans", "cls"})
D34 = Domain({"i", "j", "k"}, {"req", "ans", "cls", "ack"})
# ports and payloads share the name a; with one name, any x != y is false
SHARED = Domain({"a"}, {"a", "b"})
ONE = Domain({"a"}, {"a"})
DOMAINS = {"2x3": D23, "3x4": D34}
#: The worked server example as a spec file
SPEC = os.path.join(os.path.dirname(__file__), "..", "specs", "server.spec")

#: How deep the deep-input tests nest a term, far past the recursion limit
DEPTH = 10_000

#: (domain, size, seed) of each line of tests/golden/compile_ladder_2x3.txt,
#: then of compile_ladder_3x4.txt, in the files' order
LADDER = [(D23, size, seed) for size in range(8, 21, 2) for seed in range(10)] + [
    (D34, size, seed) for size in range(8, 17) for seed in range(40)
]


@cache
def worked_terms() -> dict:
    """The worked server example: formulas, systems, and hand-written enforcers."""
    f = lambda text: parse_formula(text, D23)
    p = lambda text: parse_process(text, D23)
    e = lambda text: parse_transducer(text, D23)
    return {
        "phi0": f("max X.[i?req]([i!ans]X && [i?req]ff)"),
        "phi1": f("max X.[(x)?req when x != j]([x!ans]X && [x?req]ff)"),
        "phins": f("[i?req]ff || [i!ans]ff"),
        "pg": p("rec X.(i?req.i!ans.X + i?cls.nil)"),
        "pb": p("rec X.(i?req.X + i?req.i!ans.X + i?cls.nil)"),
        "reqnil": p("i?req.nil"),
        "ei": e("{* -> i?req}.{* -> i!ans}.id"),
        "er": e("rec x.({(y)?req -> j?req}.x + {(y)!ans -> j!ans}.x + {(y)?cls -> j?cls}.x)"),
        "es": e("rec x.({(y)?req when y != j -> tau}.x + {(y)!ans when y != j}.x)"),
        "ess": e("rec x.{(y)?req when y != j}.rec z.({y!ans}.x + {y?req -> tau}.z)"),
    }


@cache
def ladder_formulas() -> tuple:
    """(domain, formula) of every `LADDER` line."""
    return tuple((d, gen_formula(d, size, seed)) for d, size, seed in LADDER)


@cache
def corpus(seed: int) -> tuple:
    """The (formula, process) pairs `verify --corpus random:200:<seed>` reads."""
    return tuple(make_corpus(D23, 200, seed))


@cache
def large_pairs() -> tuple:
    """check-large's pool (`perfbench/workloads.py`): 160 pairs of a formula
    of 8-12 nodes and a process of 48-64 terms."""
    pair = lambda k: (gen_formula(D23, 8 + k % 5, 7000 + k), gen_process(D23, 48 + (3 * k) % 17, 9000 + k))
    return tuple(map(pair, range(160)))


def check_large_spec(k: int) -> str:
    """The spec text of check-large's pool item k."""
    formula, process = large_pairs()[k]
    head = "ports = {i, j}\npayloads = {ans, cls, req}\n"
    return head + f"formula f0 = {formula}\nprocess p0 = {process}\n"


def deep_chain(leaf, wrap):
    """`wrap(term, k)` applied for k = 0 .. DEPTH - 1, from `leaf` up."""
    t = leaf
    for k in range(DEPTH):
        t = wrap(t, k)
    return t


# hypothesis strategies

#: (domain, formula), over both ladder domains
seeded_formulas = st.builds(
    lambda d, size, seed: (d, gen_formula(d, size, seed)),
    st.sampled_from([D23, D34]), st.integers(1, 20), st.integers(0, 10**6),
)

#: (formula, process) over the 2x3 domain
seeded_pairs = st.builds(
    lambda fsize, fseed, psize, pseed: (gen_formula(D23, fsize, fseed), gen_process(D23, psize, pseed)),
    st.integers(1, 10), st.integers(0, 10_000), st.integers(1, 40), st.integers(0, 10_000),
)

# at most three outer variables keep the enumerating oracles near 0.3 s per example
VARS = ("x", "y", "z")
var_names = st.sampled_from(VARS)


def _not_chain(c, n):
    for _ in range(n):
        c = Not(c)
    return c


def _strategies(d):
    """Conditions and guards over x, y, z, the domain's names and one name
    the domain does not declare, with nested negations, conjunctions and
    disjunctions."""
    names = st.sampled_from(sorted(d.values) + ["zz"])
    terms = st.one_of(st.builds(Var, var_names), st.builds(Val, names))
    atoms = st.one_of(st.builds(Cmp, terms, terms, st.booleans()), st.sampled_from([TRUE, FALSE]))
    conditions = st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.builds(And, st.lists(inner, max_size=4).map(tuple)),
            st.builds(Or, st.lists(inner, max_size=4).map(tuple)),
            st.builds(_not_chain, inner, st.integers(1, 3)),
        ),
        max_leaves=16,
    )
    slots = st.one_of(st.builds(Binder, var_names), st.builds(Free, var_names), st.builds(Lit, names))

    @st.composite
    def guards(draw):
        port, payload = draw(slots), draw(slots)
        bound = [s.name for s in (port, payload) if not isinstance(s, Lit)]
        # a pattern binds each name once and never names its own binder freely
        assume(len(bound) == len(set(bound)))
        return SymbolicAction(ActionPattern(port, draw(st.booleans()), payload), draw(conditions))

    return conditions, guards()


#: domain -> (condition strategy, guard strategy)
CONDITIONS = {d: _strategies(d) for d in (D23, D34, SHARED, ONE)}
condition_domains = st.sampled_from(list(CONDITIONS))
