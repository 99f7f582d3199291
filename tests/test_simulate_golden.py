"""Pinned `simulate` runs under seeded random policies.

A random policy picks an index into `istep`'s candidate list, so these runs
pin the order of that list as well as its contents.  Run this file as a
script to print the runs; the test compares them with the golden file.
"""
from pathlib import Path

from enfkit.harness import gen_formula, gen_process
from enfkit.parsing import load_specfile, parse_transducer
from enfkit.runtime import simulate
from enfkit.synthesis import compile_formula

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "simulate_random.txt"
STEPS = 10
MIXED = "rec x.({* -> j!ans}.x + {(y)?req -> tau}.x + {(y)!ans -> j!ans}.x)"


def pinned_runs():
    """(title, enforcer, process, policy) for each pinned run: the server
    spec's hand-written enforcers, which insert, redirect and suppress, one
    enforcer that may insert, suppress or transform at the same state, then
    compiled enforcers of seeded formulas over seeded processes."""
    spec = load_specfile(str(ROOT / "specs" / "server.spec"))
    d = spec.domain
    for k, (ename, pname) in enumerate((("ei", "pb"), ("er", "pg"), ("es", "pb"), ("ess", "pb"))):
        e = spec.lookup("transducers", ename)
        p = spec.lookup("processes", pname)
        yield f"{ename} @ {pname}", e, p, f"random:{k}"
    mixed = parse_transducer(MIXED, d)
    yield f"{MIXED} @ pb", mixed, spec.lookup("processes", "pb"), "random:24"
    for k in range(4, 24):
        f = gen_formula(d, 1 + k % 8, 300 + k)
        p = gen_process(d, 6 + k % 19, 500 + k)
        yield f"compile({f}) @ {p}", compile_formula(f, d), p, f"random:{k}"


def golden_text() -> str:
    d = load_specfile(str(ROOT / "specs" / "server.spec")).domain
    lines = []
    for title, e, p, policy in pinned_runs():
        lines.append(f"run {title} {policy}")
        lines.extend(f"  {s}" for s in simulate(e, p, STEPS, policy, d))
    return "\n".join(lines) + "\n"


def test_simulate_runs_match_the_golden_file():
    assert golden_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(golden_text(), end="")
