"""The four workloads of the enfkit benchmark.

Every input is generated by enfkit's own seeded generators from a pool key,
and every pool item has pinned expected outputs and a pinned cost, both
written by `record.py`.  A run draws its items from the pool by the run seed
in *rounds*: the items of each part of the pool are sorted by pinned cost and
cut into strata of equal size, and a round takes one item from every stratum.
The costs are heavy-tailed (one slow pair or formula can take as long as a
hundred fast ones), so a plain random draw would make two seeds differ by far
more than any code change; a stratified draw keeps every seed's round the
same shape while the seed still picks which items fill it.

A workload is driven only through enfkit's public entry points, looked up on
the module at call time so that the traced run sees the calls: `cli.main`,
`parse_*`, `compile_formula` and `simulate`.  Each operation runs under its
own deadline, enforced by an interval timer in this process.
"""
from __future__ import annotations

import ast
import contextlib
import gzip
import hashlib
import io
import json
import random
import signal
from pathlib import Path

import enfkit
import enfkit.cli
from hostspeed import HOST

ROOT = Path(__file__).resolve().parent.parent
PINNED_DIR = Path(__file__).resolve().parent / "pinned"
WORK_DIR = ROOT / ".perfbench_work"

D23 = enfkit.Domain({"i", "j"}, {"req", "ans", "cls"})
D34 = enfkit.Domain({"i", "j", "k"}, {"req", "ans", "cls", "ack"})
DOMAINS = {"2x3": D23, "3x4": D34}
OUTCOMES = ("pass", "fail", "inconclusive")

clock = HOST.clock


class DeadlineExceeded(BaseException):
    """Raised by the interval timer.  It derives from BaseException so that
    enfkit's own `except Exception` handlers cannot turn it into an exit code."""


class Deadline:
    """Arms SIGALRM for `seconds`; `rearm` restarts the countdown."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self._previous = None

    @staticmethod
    def _fire(signum, frame):
        raise DeadlineExceeded

    def rearm(self):
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        self.rearm()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def spec_header(d) -> str:
    return (
        f"ports = {{{', '.join(sorted(d.ports))}}}\n"
        f"payloads = {{{', '.join(sorted(d.payloads))}}}\n"
    )


def split_verdict(line: str):
    """(head, outcome) of a verdict line `criterion 'subject' outcome [witness]`,
    where head is the line without its witness."""
    criterion, rest = line.split(" ", 1)
    quote = rest[0]
    at = rest.find(quote + " ", 1)
    while at >= 0:
        try:
            ast.literal_eval(rest[: at + 1])
        except (SyntaxError, ValueError):
            at = rest.find(quote + " ", at + 1)
            continue
        tail = rest[at + 2 :]
        for outcome in OUTCOMES:
            if tail == outcome or tail.startswith(outcome + " ["):
                return f"{criterion} {rest[: at + 1]} {outcome}", outcome
        at = rest.find(quote + " ", at + 1)
    raise ValueError(f"not a verdict line: {line!r}")


def load_pinned(name: str) -> dict:
    with gzip.open(PINNED_DIR / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def strata_count(n: int, per_stratum: int) -> int:
    return max(1, round(n / per_stratum))


def rounds(items, per_stratum: int, rng: random.Random):
    """Endless balanced draws: one item from every cost stratum per round.
    Each part of the pool is cut into strata of nearly `per_stratum` items.
    Within a stratum the items are used in a seeded order before any repeats."""
    strata = []
    for part in sorted({item["part"] for item in items}):
        group = sorted(
            (item for item in items if item["part"] == part),
            key=lambda item: (item["cost_s"], json.dumps(item["key"])),
        )
        k = strata_count(len(group), per_stratum)
        for j in range(k):
            stratum = group[len(group) * j // k : len(group) * (j + 1) // k]
            rng.shuffle(stratum)
            strata.append(stratum)
    index = 0
    while True:
        drawn = [stratum[index % len(stratum)] for stratum in strata]
        rng.shuffle(drawn)
        yield drawn
        index += 1


class Ops:
    """Per-operation outcomes: a span of clock readings and a failure name or
    None.  A failed operation is charged at least the deadline, so it misses
    any latency limit; a wrong output found by the checks is a failure named
    `wrong`.  Operations are grouped into commands: one verify run, one
    parse-and-compile, one simulate run.  Spans become seconds through a
    `hostspeed.Scale`."""

    def __init__(self):
        self.spans = []
        self.charge = []
        self.failure = []
        self.details = []
        self.commands = []  # (start, end, first operation, end operation)
        self.rounds = []  # (first operation, end operation)

    def command(self, start: float, end: float, first: int):
        self.commands.append((start, end, first, len(self.spans)))

    def ok(self, start: float, end: float) -> int:
        self.spans.append((start, end))
        self.charge.append(0.0)
        self.failure.append(None)
        return len(self.spans) - 1

    def fail(self, name: str, start: float, end: float, charge: float, detail: str = "") -> int:
        self.spans.append((start, end))
        self.charge.append(charge)
        self.failure.append(name)
        if detail:
            self.details.append(f"{name}: {detail}")
        return len(self.spans) - 1

    def mark_wrong(self, index: int, detail: str, charge: float):
        self.charge[index] = max(self.charge[index], charge)
        self.failure[index] = "wrong"
        self.details.append(f"wrong: {detail}")

    def latencies(self, scale) -> list:
        return [max(scale.span(*span), charge) for span, charge in zip(self.spans, self.charge)]

    def walls(self, scale) -> list:
        """(seconds, first operation, end operation) of every command."""
        return [(scale.span(start, end), first, last) for start, end, first, last in self.commands]

    def __len__(self):
        return len(self.spans)


class _LineClock(io.TextIOBase):
    """Stdout replacement that timestamps every complete line and restarts
    the deadline, so the deadline applies to each verdict, not to the run."""

    def __init__(self, deadline: Deadline):
        self.deadline = deadline
        self.lines = []
        self.stamps = []
        self._partial = ""

    def writable(self):
        return True

    def write(self, text):
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.stamps.append(clock())
            self.lines.append(line)
            self.deadline.rearm()
        return len(text)


class Workload:
    name = ""
    op = ""  # what one operation is, for the printed metric names
    deadline_s = 0.0
    per_stratum = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.pinned = load_pinned(self.name)
        self.items = self.pinned["items"]

    def prepare(self) -> dict:
        """Set-up for the whole pool: key -> prepared inputs."""
        raise NotImplementedError

    def input_text(self, prepared, item) -> str:
        raise NotImplementedError

    def run_round(self, drawn, prepared, ops: Ops, evidence: list):
        raise NotImplementedError

    def check(self, prepared, evidence: list, ops: Ops):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# verify-corpus and check-large: `enfkit verify --property all`


def run_verify(argv, item, deadline_s: float, ops: Ops, evidence: list):
    """One in-process `enfkit verify` run with a per-verdict deadline.  The
    verdicts it never printed, after a timeout or an exit 2, are failures."""
    err = io.StringIO()
    deadline = Deadline(deadline_s)
    out = _LineClock(deadline)
    failure = None
    rc = None
    first = len(ops)
    start = clock()
    try:
        with deadline, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = enfkit.cli.main(argv)
    except DeadlineExceeded:
        failure = "timeout"
    except RecursionError:
        failure = "RecursionError"
    end = clock()
    if failure is None and rc not in (0, 1, 3):
        failure = f"exit {rc}"
    expected = item["heads"]
    previous = start
    for at, head in enumerate(expected):
        if at < len(out.lines):
            index = ops.ok(previous, out.stamps[at])
            previous = out.stamps[at]
            evidence.append((index, head, out.lines[at]))
        else:
            detail = f"{argv[4]}: {err.getvalue().strip()[:200]}" if at == len(out.lines) else ""
            ops.fail(failure or "missing verdict", previous, end, deadline_s, detail)
            previous = end
    ops.command(start, end, first)
    if len(out.lines) > len(expected):
        evidence.append((len(ops) - 1, None, f"{len(out.lines) - len(expected)} extra lines"))
    if failure is None and rc != item["rc"]:
        evidence.append((len(ops) - 1, None, f"{argv[4]}: exit {rc}, pinned {item['rc']}"))


def check_verdicts(evidence, ops: Ops, deadline_s: float):
    """A verdict is right when it prints the pinned criterion, subject and
    outcome; the witness text after the outcome is not compared."""
    for index, head, line in evidence:
        if head is None:
            ops.mark_wrong(index, line, deadline_s)
        elif line != head and not line.startswith(head + " ["):
            ops.mark_wrong(index, f"printed {line[:160]!r}, pinned {head[:160]!r}", deadline_s)
        elif head.endswith(" inconclusive") and ops.failure[index] is None:
            ops.failure[index] = "inconclusive"


class VerifyWorkload(Workload):
    """`enfkit verify --property all` once per pool item; the corpus argument
    comes from `corpus`."""

    op = "verdict"
    deadline_s = 20.0

    def corpus(self, prepared, item) -> str:
        raise NotImplementedError

    def run_round(self, drawn, prepared, ops, evidence):
        for item in drawn:
            argv = ["verify", "--property", "all", "--corpus",
                    self.corpus(prepared, item), "--depth", "6"]
            run_verify(argv, item, self.deadline_s, ops, evidence)

    def check(self, prepared, evidence, ops):
        check_verdicts(evidence, ops, self.deadline_s)


class VerifyCorpus(VerifyWorkload):
    """`random:200:S` corpora: many small pairs, so per-pair overhead
    (repeated compiles in cli/harness) dominates."""

    name = "verify-corpus"
    per_stratum = 4
    pool = tuple(range(1, 17))

    def prepare(self):
        out = {}
        for item in self.items:
            corpus = enfkit.make_corpus(D23, 200, item["key"])
            out[item["key"]] = "\n".join(f"{f}\t{p}" for f, p in corpus)
        return out

    def input_text(self, prepared, item):
        return prepared[item["key"]]

    def corpus(self, prepared, item):
        return f"random:200:{item['key']}"


def check_large_spec(key: int) -> str:
    """One formula of size 8-12 and one process of 48-64 terms.  A spec
    holds a single pair so that a run has many commands: pair costs span
    two orders of magnitude, and a median over a few large specs would
    differ from seed to seed by far more than any code change."""
    formula = enfkit.gen_formula(D23, 8 + key % 5, 7000 + key)
    process = enfkit.gen_process(D23, 48 + (3 * key) % 17, 9000 + key)
    return spec_header(D23) + f"formula f0 = {formula}\nprocess p0 = {process}\n"


class CheckLarge(VerifyWorkload):
    """Spec files of large processes: the time goes to model checking,
    trace search, violation search and bisimulation."""

    name = "check-large"
    per_stratum = 10
    pool = tuple(range(160))

    def prepare(self):
        folder = WORK_DIR / "check-large"
        folder.mkdir(parents=True, exist_ok=True)
        out = {}
        for item in self.items:
            text = check_large_spec(item["key"])
            spec = enfkit.parse_specfile(text)
            if len(spec.formulas) != 1 or len(spec.processes) != 1:
                raise RuntimeError(f"spec {item['key']} did not parse to one pair")
            path = folder / f"spec{item['key']}.spec"
            path.write_text(text, encoding="utf-8")
            out[item["key"]] = (str(path), text)
        return out

    def input_text(self, prepared, item):
        return prepared[item["key"]][1]

    def corpus(self, prepared, item):
        return prepared[item["key"]][0]


# ---------------------------------------------------------------------------
# compile-ladder: parse_formula then compile_formula, each under a deadline


def ladder_formula(key):
    part, size, seed = key
    return enfkit.gen_formula(DOMAINS[part], size, seed)


class CompileLadder(Workload):
    """Seeded formulas printed to text, parsed and compiled: normaliser and
    solver work with a heavy tail, no model checking at all.  The run draws
    from the pool items whose pinned compile finished within
    `max_pinned_s`; the deadline is ten times that, so that no compile of
    the drawn items fails on the recorded commit however the host's speed
    swings, and a failure means the code got slower or broke."""

    name = "compile-ladder"
    op = "compile"
    max_pinned_s = 1.0
    deadline_s = 10.0
    parse_deadline_s = 1.0
    per_stratum = 24
    pool = tuple(("2x3", 16 + k % 17, 500 + k) for k in range(960)) + tuple(
        ("3x4", 8 + k % 9, 5000 + k) for k in range(576)
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.items = [
            item for item in self.items
            if item["outcome"] == "ok" and item["cost_s"] <= self.max_pinned_s
        ]

    def prepare(self):
        out = {}
        for item in self.items:
            out[json.dumps(item["key"])] = str(ladder_formula(item["key"]))
        return out

    def input_text(self, prepared, item):
        return prepared[json.dumps(item["key"])]

    def run_round(self, drawn, prepared, ops, evidence):
        for item in drawn:
            d = DOMAINS[item["key"][0]]
            text = prepared[json.dumps(item["key"])]
            began = clock()
            try:
                with Deadline(self.parse_deadline_s):
                    f = enfkit.parse_formula(text, d)
            except DeadlineExceeded:
                ops.fail("parse timeout", began, clock(), self.parse_deadline_s)
                ops.command(began, clock(), len(ops) - 1)
                continue
            start = clock()
            try:
                with Deadline(self.deadline_s):
                    e = enfkit.compile_formula(f, d)
            except DeadlineExceeded:
                ops.fail("timeout", start, clock(), self.deadline_s)
            except Exception as exc:  # noqa: BLE001 - every failure is named and counted
                ops.fail(type(exc).__name__, start, clock(), self.deadline_s,
                         f"{text[:80]}: {exc}"[:200])
            else:
                evidence.append((ops.ok(start, clock()), item, text, f, e))
            ops.command(began, clock(), len(ops) - 1)

    def check(self, prepared, evidence, ops):
        """The parse must print back to its text, the normal form must pass
        the structural check, and the enforcer must be alpha-equal to the
        pinned one."""
        for index, item, text, f, e in evidence:
            d = DOMAINS[item["key"][0]]
            if str(f) != text:
                ops.mark_wrong(index, f"parse does not print back: {text[:80]}", self.deadline_s)
                continue
            try:
                with Deadline(4 * self.deadline_s):
                    nf = enfkit.normalize(f, d)
            except DeadlineExceeded:
                ops.mark_wrong(index, f"normal form not reproducible in time: {text[:80]}",
                               self.deadline_s)
                continue
            if not enfkit.classify(nf, d).shmlnf:
                ops.mark_wrong(index, f"normal form fails shmlnf: {text[:80]}", self.deadline_s)
            elif not enfkit.alpha_eq(
                e, enfkit.parse_transducer(item["enforcer"], d)
            ):
                ops.mark_wrong(index, f"enforcer differs from pinned: {text[:80]}", self.deadline_s)


# ---------------------------------------------------------------------------
# enforce-online: simulate compiled enforcers step by step


def enforce_inputs(key):
    fsize, fseed, psize, pseed = key
    return enfkit.gen_formula(D23, fsize, fseed), enfkit.gen_process(D23, psize, pseed)


class EnforceOnline(Workload):
    """Compiled enforcers stepped online over seeded processes by a seeded
    random policy; per-step latency comes from the policy's timestamps."""

    name = "enforce-online"
    op = "step"
    deadline_s = 10.0
    per_stratum = 6
    steps = 120

    def __init__(self, seed):
        super().__init__(seed)
        self.policy_rng = random.Random(f"policy:{seed}")
        self.composites = {}  # key -> (composite LTS, enforcer alpha-equal to pinned)

    def prepare(self):
        out = {}
        for item in self.items:
            f, p = enforce_inputs(item["key"])
            ftext, ptext = str(f), str(p)
            formula = enfkit.parse_formula(ftext, D23)
            out[json.dumps(item["key"])] = (
                formula,
                enfkit.compile_formula(formula, D23),
                enfkit.parse_process(ptext, D23),
                f"{ftext}\t{ptext}",
            )
        return out

    def input_text(self, prepared, item):
        return prepared[json.dumps(item["key"])][3]

    def run_round(self, drawn, prepared, ops, evidence):
        for item in drawn:
            formula, enforcer, process, _ = prepared[json.dumps(item["key"])]
            policy_seed = self.policy_rng.randrange(2**32)
            rng = random.Random(policy_seed)
            stamps = []

            def policy(candidates, current, index):
                stamps.append(clock())
                return rng.choice(candidates)

            first = len(ops)
            start = clock()
            try:
                with Deadline(self.deadline_s):
                    run = enfkit.simulate(enforcer, process, self.steps, policy, D23)
            except DeadlineExceeded:
                run = None
            end = clock()
            for at, stamp in enumerate(stamps):
                ops.ok(stamps[at - 1] if at else start, stamp)
            if run is None:
                ops.fail("timeout", stamps[-1] if stamps else start, end, self.deadline_s)
            elif stamps:
                evidence.append((first, item, policy_seed, run))
            ops.command(start, end, first)

    def check(self, prepared, evidence, ops):
        """The enforcer must be alpha-equal to the pinned one, and no visible
        trace of an enforced run may violate the formula."""
        composites = self.composites
        for first, item, policy_seed, run in evidence:
            key = json.dumps(item["key"])
            formula, enforcer, process, _ = prepared[key]
            if key not in composites:
                pinned = enfkit.parse_transducer(item["enforcer"], D23)
                composites[key] = (
                    enfkit.composite_lts(enforcer, process, D23),
                    enfkit.alpha_eq(enforcer, pinned),
                )
            comp, same = composites[key]
            visible = tuple(s.label for s in run if s.label is not enfkit.TAU)
            if not same:
                ops.mark_wrong(first, f"enforcer differs from pinned: {key}", self.deadline_s)
            elif enfkit.violates((comp, comp.initial), visible, formula, D23):
                ops.mark_wrong(first, f"run {policy_seed} of {key} violates", self.deadline_s)


WORKLOADS = {w.name: w for w in (VerifyCorpus, CompileLadder, CheckLarge, EnforceOnline)}


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()
