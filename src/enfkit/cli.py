"""Command-line front end.

Subcommands: check, normalize, synthesize, simulate, bisim, verify.
Exit codes: 0 the query holds / all checks pass, 1 it fails, 2 usage or
parse error, 3 inconclusive (a state, closure, minterm, equation or, for
`verify`, trace-depth bound was hit: a `symbolic.BoundExceeded`).
Output is deterministic for fixed inputs and seeds.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .bisim import bisim
from .harness import (
    DEFAULT_DEPTH,
    HarnessError,
    Pair,
    check_nvtt,
    check_soundness,
    check_transparency,
    check_violation_semantics,
    make_corpus,
    require_closed_safety,
)
from .modelcheck import satisfies
from .normalizer import dump_stages, normalize
from .parsing import ParseError, SpecFile, load_specfile, parse_lts
from .processes import DEFAULT_STATE_BOUND, reachable
from .runtime import composite_lts, simulate
from .symbolic import BoundExceeded, Domain
from .synthesis import compile_formula, synthesize
from .formulas import classify

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _load_spec(args) -> SpecFile:
    if not args.spec:
        raise ParseError("this command needs --spec FILE")
    return load_specfile(args.spec)


def cmd_check(args) -> int:
    spec = _load_spec(args)
    f = spec.lookup("formulas", args.formula)
    p = spec.lookup("processes", args.process)
    holds = satisfies(p, f, spec.domain, args.domain_bound)
    print(f"{'SAT' if holds else 'UNSAT'} {args.process} {'|=' if holds else '|/='} {args.formula}")
    return EXIT_OK if holds else EXIT_FAIL


def cmd_normalize(args) -> int:
    spec = _load_spec(args)
    f = spec.lookup("formulas", args.formula)
    if args.dump_stages:
        print(dump_stages(f, spec.domain))
    else:
        print(normalize(f, spec.domain))
    return EXIT_OK


def cmd_synthesize(args) -> int:
    spec = _load_spec(args)
    f = spec.lookup("formulas", args.formula)
    d = spec.domain
    if args.dump_stages:
        print(dump_stages(f, d))
    if args.no_optimize:
        nf = f if classify(f, d).shmlnf else normalize(f, d)
        print(synthesize(nf, d))
    else:
        print(compile_formula(f, d))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.steps < 0:
        raise ParseError("--steps must be at least 0")
    spec = _load_spec(args)
    e = spec.lookup("transducers", args.enforcer)
    p = spec.lookup("processes", args.process)
    run = simulate(e, p, args.steps, args.policy, spec.domain)
    for sim_step in run:
        print(sim_step)
    return EXIT_OK


def _bisim_side(spec, text: str, bound: int):
    """A bisim operand: an .lts file, a process name, or `enforcer @ process`."""
    if text.endswith(".lts"):
        with open(text, "r", encoding="utf-8") as fh:
            lts = parse_lts(fh.read())
        return lts, lts.initial
    if spec is None:
        raise ParseError("named bisim operands need --spec FILE")
    if "@" in text:
        ename, pname = (part.strip() for part in text.split("@", 1))
        e = spec.lookup("transducers", ename)
        p = spec.lookup("processes", pname)
        comp = composite_lts(e, p, spec.domain, bound)
        return comp, comp.initial
    p = spec.lookup("processes", text.strip())
    return reachable(p, bound), p


def cmd_bisim(args) -> int:
    spec = load_specfile(args.spec) if args.spec else None
    lts1, s1 = _bisim_side(spec, args.left, args.domain_bound)
    lts2, s2 = _bisim_side(spec, args.right, args.domain_bound)
    equal, witness = bisim(lts1, s1, lts2, s2)
    if equal:
        print("bisimilar")
        return EXIT_OK
    print(f"not bisimilar (split on label {witness[0]})")
    return EXIT_FAIL


def _corpus_from(args, spec):
    if args.corpus.startswith("random:"):
        try:
            _, n, seed = args.corpus.split(":")
            n, seed = int(n), int(seed)
        except ValueError:  # too few or too many fields, or not integers
            raise ParseError("random corpus spec must be random:N:SEED") from None
        if n < 1:
            raise ParseError("random corpus size must be at least 1")
        domain = spec.domain if spec else Domain({"i", "j"}, {"req", "ans", "cls"})
        return domain, make_corpus(domain, n, seed)
    file_spec = load_specfile(args.corpus)
    # a formula no criterion decides is rejected before the first verdict
    for name, f in file_spec.formulas.items():
        try:
            require_closed_safety(f)
        except HarnessError as exc:
            raise ParseError(f"formula {name}: {exc}") from None
    pairs = [
        (f, p)
        for f in file_spec.formulas.values()
        for p in file_spec.processes.values()
    ]
    if not pairs:
        raise ParseError("corpus spec declares no formula or no process")
    return file_spec.domain, pairs


#: The criteria `verify` runs, by name, in the order `--property all` prints
#: them.  Each entry takes the pair and the trace depth; the check is looked
#: up when it runs, so a wrapper later put on this module's name is seen.
CRITERIA = {
    "soundness": lambda pair, depth: check_soundness(pair, depth),
    "transparency": lambda pair, depth: check_transparency(pair),
    "nvtt": lambda pair, depth: check_nvtt(pair, depth),
    "violation-sem": lambda pair, depth: check_violation_semantics(pair, depth),
}


def cmd_verify(args) -> int:
    if args.depth < 0:
        raise ParseError("--depth must be at least 0")
    spec = load_specfile(args.spec) if args.spec else None
    domain, pairs = _corpus_from(args, spec)
    wanted = list(CRITERIA) if args.property == "all" else [args.property]
    worst = EXIT_OK
    for f, p in pairs:
        pair = Pair(f, p, domain, bound=args.domain_bound)
        for name in wanted:
            verdict = CRITERIA[name](pair, args.depth)
            print(verdict.line())
            if verdict.outcome == "fail":
                worst = EXIT_FAIL
            elif verdict.outcome == "inconclusive" and worst == EXIT_OK:
                worst = EXIT_INCONCLUSIVE
    return worst


#: The subcommands by name.  Each command is looked up when it runs, as in
#: `CRITERIA`, so a wrapper put on a `cmd_` name after the parser was built
#: is seen.
COMMANDS = {
    "check": lambda args: cmd_check(args),
    "normalize": lambda args: cmd_normalize(args),
    "synthesize": lambda args: cmd_synthesize(args),
    "simulate": lambda args: cmd_simulate(args),
    "bisim": lambda args: cmd_bisim(args),
    "verify": lambda args: cmd_verify(args),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and `main` runs once per command of an in-process caller."""
    top = argparse.ArgumentParser(
        prog="enfkit",
        description="Compile safety formulas into suppression enforcers and "
        "check the enforcement correctness criteria on finite instances.",
    )
    top.add_argument("--spec", help="spec file with the domain and named definitions")
    top.add_argument(
        "--domain-bound",
        type=int,
        default=DEFAULT_STATE_BOUND,
        metavar="N",
        help="state-space exploration bound (default %(default)s)",
    )
    sub = top.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="does a named process satisfy a named formula?")
    c.add_argument("formula")
    c.add_argument("process")

    n = sub.add_parser("normalize", help="print the normal form of a formula")
    n.add_argument("formula")
    n.add_argument("--dump-stages", action="store_true")

    s = sub.add_parser("synthesize", help="print the synthesised enforcer")
    s.add_argument("formula")
    s.add_argument("--no-optimize", action="store_true")
    s.add_argument("--dump-stages", action="store_true")

    m = sub.add_parser("simulate", help="run an enforcer over a process")
    m.add_argument("--enforcer", required=True)
    m.add_argument("--process", required=True)
    m.add_argument("--steps", type=int, default=10)
    m.add_argument("--policy", default="first", help="first or random:SEED")

    b = sub.add_parser("bisim", help="strong bisimilarity of two systems")
    b.add_argument("--left", required=True, help=".lts file, process name, or 'enf @ proc'")
    b.add_argument("--right", required=True)

    v = sub.add_parser("verify", help="run a correctness-criterion suite")
    v.add_argument("--property", required=True, choices=[*CRITERIA, "all"])
    v.add_argument(
        "--corpus",
        required=True,
        help="spec file (all formula/process pairs) or random:N:SEED",
    )
    v.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.domain_bound < 1:
            raise ParseError("--domain-bound must be at least 1")
        return COMMANDS[args.command](args)
    except (ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:  # noqa: BLE001 - surface tool errors with exit 2
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
