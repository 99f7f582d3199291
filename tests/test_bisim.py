"""Strong bisimilarity by partition refinement.  Its agreement with the
naive fixpoint `naive_bisim` is the `bisim` row of tests/test_oracles.py."""
import itertools

from enfkit.bisim import bisim
from enfkit.harness import gen_process
from enfkit.parsing import parse_lts, parse_process
from enfkit.processes import reachable
from enfkit.runtime import composite_lts


def test_reflexive(dom, terms):
    lts = reachable(terms["pg"], 100)
    equal, witness = bisim(lts, terms["pg"], lts, terms["pg"])
    assert equal and witness is None


def test_replacement_not_bisimilar_with_witness(dom, terms):
    comp = composite_lts(terms["er"], terms["reqnil"], dom)
    plts = reachable(terms["reqnil"], 10)
    equal, witness = bisim(comp, comp.initial, plts, terms["reqnil"])
    assert not equal
    assert witness[0] in ("i?req", "j?req")


def test_suppressor_transparent_on_good_system(dom, terms):
    comp = composite_lts(terms["ess"], terms["pg"], dom)
    plts = reachable(terms["pg"], 100)
    equal, _ = bisim(comp, comp.initial, plts, terms["pg"])
    assert equal


def test_tau_is_an_ordinary_label(dom):
    # strong bisimilarity distinguishes tau.a from a
    p = parse_process("tau.i?req.nil", dom)
    q = parse_process("i?req.nil", dom)
    equal, witness = bisim(reachable(p, 10), p, reachable(q, 10), q)
    assert not equal and witness == ("i?req",) or witness == ("tau",)


def test_symmetry_and_transitivity_spotcheck(dom):
    ps = [gen_process(dom, 1 + (i % 6), 4000 + i) for i in range(8)]
    ltss = [(reachable(p, 200), p) for p in ps]
    results = {}
    for (l1, p1), (l2, p2) in itertools.product(ltss, repeat=2):
        results[(p1, p2)] = bisim(l1, p1, l2, p2)[0]
    for (l1, p1), (l2, p2) in itertools.product(ltss, repeat=2):
        assert results[(p1, p2)] == results[(p2, p1)]
    for a in ps:
        assert results[(a, a)]
        for b in ps:
            for c in ps:
                if results[(a, b)] and results[(b, c)]:
                    assert results[(a, c)]


def test_explicit_lts_operands():
    left = parse_lts("init a\na -i?req-> b\n")
    right = parse_lts("init s\ns -i?req-> t\nt -tau-> t\n")
    equal, witness = bisim(left, "a", right, "s")
    assert not equal
