"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Criterion 8 is expected to stay red: the trace-transparency claim it
checks is refuted by finite instances (see notes in the failure message); the
check is implemented faithfully rather than weakened to force a pass.
"""
import itertools
import time

import pytest

from enfkit.bisim import bisim, naive_bisim
from enfkit.harness import (
    Pair,
    check_normalization,
    check_nvtt,
    check_oracle_agreement,
    check_soundness,
    check_transparency,
    check_violation_semantics,
    make_corpus,
    violates,
)
from enfkit.modelcheck import satisfies
from enfkit.processes import NIL, Prefix, reachable, weak_trace_derivatives
from enfkit.runtime import Config, composite_lts, simulate
from enfkit.synthesis import compile_formula, optimize, synthesize
from enfkit.transducers import ID, alpha_eq, transducer_lts

from conftest import act

CORPUS_SEED = 42
CORPUS_SIZE = 200


def report(number, title, started, failures=(), budget=None):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:>2} ({title}): {status}  [{elapsed:.2f}s]")
    for line in failures[:5]:
        print(f"    {line}")
    assert not failures, f"criterion {number}: {len(failures)} failure(s); first: {failures[0]}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def corpus(dom):
    pairs = make_corpus(dom, CORPUS_SIZE, CORPUS_SEED)
    # pinned corpus shape: two ports, three payloads, processes within 16 states
    assert len(dom.ports) == 2 and len(dom.payloads) == 3
    assert all(len(reachable(p, 64)) <= 16 for _, p in pairs)
    return pairs


def test_criterion_01_worked_example_membership(dom, terms):
    t0 = time.perf_counter()
    failures = []
    expected = [("phi1", "pg", True), ("phi1", "pb", False), ("phi0", "pg", True), ("phi0", "pb", False)]
    for fname, pname, want in expected:
        got = satisfies(terms[pname], terms[fname], dom)
        if got != want:
            failures.append(f"{pname} |= {fname}: expected {want}, got {got}")
    report(1, "worked-example membership", t0, failures, budget=1.0)


def test_criterion_02_displayed_runs(dom, terms):
    t0 = time.perf_counter()
    failures = []
    pb, pg = terms["pb"], terms["pg"]
    ans_pb = Prefix(act("i!ans"), pb)

    def check_run(name, got, want_labels, want_rules, want_systems=None):
        labels = [str(s.label) for s in got]
        rules = [s.rule for s in got]
        if labels != want_labels or rules != want_rules:
            failures.append(f"{name}: got {list(zip(rules, labels))}")
            return
        if want_systems is not None:
            systems = [s.config.system for s in got]
            if systems != want_systems:
                failures.append(f"{name}: landed in {[str(s) for s in systems]}")

    # insertion enforcer: two inserted actions before identity behaviour
    run = simulate(terms["ei"], pb, 2, "first", dom)
    check_run("ei", run, ["i?req", "i!ans"], ["iIns", "iIns"], [pb, pb])
    if run and run[-1].config.enforcer != ID:
        failures.append("ei: did not end at the identity enforcer")

    # replacement enforcer: the whole interaction is redirected to port j
    script = [
        ("iTrn", act("j?req"), str(ans_pb)),
        ("iTrn", act("j!ans"), str(pb)),
        ("iTrn", act("j?cls"), str(NIL)),
    ]
    run = simulate(terms["er"], pb, 3, script, dom)
    check_run("er", run, ["j?req", "j!ans", "j?cls"], ["iTrn"] * 3, [ans_pb, pb, NIL])

    # blunt suppressor: suppress, answer, suppress, answer
    run = simulate(terms["es"], pb, 4, "first", dom)
    check_run("es-loop", run, ["tau", "i!ans", "tau", "i!ans"], ["iTrn"] * 4,
              [ans_pb, pb, ans_pb, pb])
    if run and any(s.config.enforcer != terms["es"] for s in run):
        failures.append("es-loop: enforcer should stay in place while suppressing")

    # blunt suppressor: an unhandled close ends enforcement via iTer
    run = simulate(terms["es"], pb, 1, [("iTer", act("i?cls"))], dom)
    check_run("es-close", run, ["i?cls"], ["iTer"], [NIL])
    if run and run[-1].config != Config(ID, NIL):
        failures.append("es-close: expected to land in the inert identity configuration")

    # synthesised suppressor: request passes, second request suppressed, answer
    run = simulate(terms["ess"], pb, 3, "first", dom)
    check_run("ess", run, ["i?req", "tau", "i!ans"], ["iTrn"] * 3, [pb, ans_pb, pb])
    if run and run[-1].config != Config(terms["ess"], pb):
        failures.append("ess: the displayed run should close its loop")

    report(2, "displayed instrumentation runs", t0, failures, budget=1.0)


def test_criterion_03_synthesis_reproduces_handwritten_enforcer(dom, terms):
    t0 = time.perf_counter()
    failures = []
    compiled = optimize(synthesize(terms["phi1"], dom))
    if not alpha_eq(compiled, terms["ess"]):
        failures.append(f"optimize(synthesize(phi1)) = {compiled}")
    if not alpha_eq(compile_formula(terms["phi1"], dom), terms["ess"]):
        failures.append("compile(phi1) is not alpha-equal to the hand-written enforcer")
    l1 = transducer_lts(compiled, dom)
    l2 = transducer_lts(terms["ess"], dom)
    equal, _ = bisim(l1, l1.initial, l2, l2.initial)
    if not equal:
        failures.append("compiled enforcer is not bisimilar to the hand-written one")
    report(3, "synthesis reproduces the hand-written enforcer", t0, failures, budget=1.0)


def test_criterion_04_soundness_and_transparency_verdicts(dom, terms):
    t0 = time.perf_counter()
    failures = []
    v = check_soundness(Pair(terms["phi1"], terms["pb"], dom, enforcer=terms["ei"]))
    if v.outcome != "fail":
        failures.append(f"insertion enforcer should break soundness: {v.line()}")
    v = check_transparency(Pair(terms["phi1"], terms["pg"], dom, enforcer=terms["es"]))
    if v.outcome != "fail":
        failures.append(f"blunt suppressor should break transparency: {v.line()}")
    v = check_transparency(Pair(terms["phi1"], terms["reqnil"], dom, enforcer=terms["er"]))
    if v.outcome != "fail":
        failures.append(f"replacement should break transparency: {v.line()}")
    comp = composite_lts(terms["ess"], terms["pg"], dom)
    plts = reachable(terms["pg"], 100)
    equal, _ = bisim(comp, comp.initial, plts, terms["pg"])
    if not equal:
        failures.append("the synthesised suppressor should be transparent on the good server")
    report(4, "soundness/transparency verdicts on the worked enforcers", t0, failures, budget=5.0)


def test_criterion_05_soundness_suite(dom, corpus):
    t0 = time.perf_counter()
    failures = [
        v.line() for v in (check_soundness(Pair(f, p, dom)) for f, p in corpus) if v.outcome != "pass"
    ]
    report(5, f"soundness on {len(corpus)} seeded pairs", t0, failures, budget=60.0)


def test_criterion_06_transparency_suite(dom, corpus):
    t0 = time.perf_counter()
    failures = [
        v.line()
        for v in (check_transparency(Pair(f, p, dom)) for f, p in corpus)
        if v.outcome != "pass"
    ]
    report(6, f"transparency on {len(corpus)} seeded pairs", t0, failures, budget=60.0)


def test_criterion_07_normalization_suite(dom, corpus):
    t0 = time.perf_counter()
    from enfkit.harness import gen_formula

    systems = [p for _, p in corpus[:8]]
    failures = []
    for i in range(100):
        f = gen_formula(dom, 1 + (i % 8), 9000 + i)
        v = check_normalization(f, systems, dom)
        if v.outcome != "pass":
            failures.append(v.line())
    report(7, "normalization equivalence and structure, 100 formulas", t0, failures, budget=60.0)


def test_criterion_08_nvtt_suite(dom, terms, corpus):
    t0 = time.perf_counter()
    failures = []
    # the worked instance: req·ans is preserved in both directions
    pb, phi1 = terms["pb"], terms["phi1"]
    t = (act("i?req"), act("i!ans"))
    plts = reachable(pb, 100)
    comp = composite_lts(compile_formula(phi1, dom), pb, dom)
    plain = weak_trace_derivatives(plts, pb, t)
    projected = {c.system for c in weak_trace_derivatives(comp, comp.initial, t)}
    if violates(pb, t, phi1, dom) or plain != projected:
        failures.append("worked instance: req·ans not preserved both directions")
    for f, p in corpus:
        v = check_nvtt(Pair(f, p, dom), 6)
        if v.outcome != "pass":
            failures.append(v.line())
    if failures:
        failures.append(
            "NOTE: these are genuine counterexamples to the per-state trace-"
            "transparency claim, not harness defects.  Minimal instance: for "
            "the formula [i?req]ff over i?req.i?ans.nil the synthesised "
            "suppressor turns the first input into a silent step, so the "
            "composite reaches <e | i?ans.nil> with zero visible actions "
            "while the bare process has no silent move at all; the empty "
            "trace violates nothing, yet the backward inclusion demands "
            "p =eps=> i?ans.nil."
        )
    report(8, f"non-violating-trace transparency at depth 6 on {len(corpus)} pairs", t0, failures, budget=120.0)


def test_criterion_09_oracle_agreements(dom, corpus):
    t0 = time.perf_counter()
    failures = []
    for f, p in corpus[:100]:
        v = check_oracle_agreement(Pair(f, p, dom))
        if v.outcome != "pass":
            failures.append(v.line())
    small = []
    seen = set()
    for _, p in corpus:
        lts = reachable(p, 500)
        if len(lts) <= 5 and str(p) not in seen:
            seen.add(str(p))
            small.append((lts, p))
        if len(small) >= 12:
            break
    for (l1, p1), (l2, p2) in itertools.product(small, repeat=2):
        got = bisim(l1, p1, l2, p2)[0]
        want = naive_bisim(l1, p1, l2, p2)
        if got != want:
            failures.append(f"bisim disagreement on {p1} vs {p2}")
    report(9, "satisfaction and bisimilarity oracle agreements", t0, failures)


def test_criterion_10_violating_trace_semantics(dom, corpus):
    t0 = time.perf_counter()
    failures = []
    inconclusive = 0
    for f, p in corpus:
        v = check_violation_semantics(Pair(f, p, dom), 6)
        if v.outcome == "fail":
            failures.append(v.line())
        elif v.outcome == "inconclusive":
            inconclusive += 1
    print(f"    (condition-2 searches inconclusive at depth 6: {inconclusive})")
    report(10, "violating-trace semantics conditions at depth 6", t0, failures)
