"""Record the pinned expectations and costs of the benchmark's input pools.

    python3 perfbench/record.py [workload ...]

For every pool item this runs the operation once, stores its outputs and its
host-speed normalised cost (the cost only orders items into strata, see
hostspeed.py), and writes `perfbench/pinned/<workload>.json.gz`.  The satisfaction facts behind the
soundness and transparency verdicts are re-derived with `sat_oracle` and the
bisimilarity facts with `naive_bisim`, so the reference does not rest only on
the code under test; recording stops on any disagreement.  The benchmark
itself never writes these files.
"""
from __future__ import annotations

import contextlib
import gzip
import io
import json
import os
import platform
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import enfkit  # noqa: E402
import enfkit.cli  # noqa: E402
import workloads as W  # noqa: E402
from hostspeed import HOST  # noqa: E402
from run import source_digest  # noqa: E402

RECORD_COMPILE_DEADLINE_S = 5.0
ENFORCE_POOL = 48


class RecordError(Exception):
    pass


def _verify_lines(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = HOST.clock()
        rc = enfkit.cli.main(argv)
        span = (start, HOST.clock())
    return rc, out.getvalue().splitlines(), span


def _cross_check(pairs, heads, d, where):
    """Re-derive the soundness and transparency outcomes of every pair from
    sat_oracle and naive_bisim, and compare them with the recorded heads."""
    criteria = ("soundness", "transparency", "nvtt", "violation-sem")
    for n, (f, p) in enumerate(pairs):
        got = {}
        for c, head in zip(criteria, heads[4 * n : 4 * n + 4]):
            if not head.startswith(c + " "):
                raise RecordError(f"{where}: verdict {head[:80]!r} is not {c}")
            got[c] = head.rsplit(" ", 1)[1]
        if "inconclusive" in (got["soundness"], got["transparency"]):
            continue
        e = enfkit.compile_formula(f, d)
        comp = enfkit.composite_lts(e, p, d)
        plts = enfkit.reachable(p, 10_000)
        satisfiable = enfkit.sat_oracle(enfkit.reachable(enfkit.processes.NIL, 10), f, d)
        sound = not satisfiable or enfkit.sat_oracle((comp, comp.initial), f, d)
        p_sat = enfkit.sat_oracle((plts, p), f, d)
        transparent = not p_sat or enfkit.naive_bisim(comp, comp.initial, plts, p)
        derived = {"soundness": "pass" if sound else "fail",
                   "transparency": "pass" if transparent else "fail"}
        for c, outcome in derived.items():
            if got[c] != outcome:
                raise RecordError(f"{where} pair {n}: {c} printed {got[c]}, oracles say {outcome}")


def record_verify_corpus():
    items = []
    for seed in W.VerifyCorpus.pool:
        argv = ["verify", "--property", "all", "--corpus", f"random:200:{seed}", "--depth", "6"]
        rc, lines, span = _verify_lines(argv)
        heads = [W.split_verdict(line)[0] for line in lines]
        _cross_check(enfkit.make_corpus(W.D23, 200, seed), heads, W.D23, f"corpus {seed}")
        items.append({"key": seed, "part": "corpus", "cost_s": span, "rc": rc,
                      "heads": heads})
        print(f"verify-corpus {seed}: rc {rc}, {len(lines)} verdicts", flush=True)
    return items


def record_check_large():
    folder = W.WORK_DIR / "record"
    folder.mkdir(parents=True, exist_ok=True)
    items = []
    for key in W.CheckLarge.pool:
        text = W.check_large_spec(key)
        path = folder / f"spec{key}.spec"
        path.write_text(text, encoding="utf-8")
        rc, lines, span = _verify_lines(
            ["verify", "--property", "all", "--corpus", str(path), "--depth", "6"])
        heads = [W.split_verdict(line)[0] for line in lines]
        spec = enfkit.parse_specfile(text)
        pairs = [(f, p) for f in spec.formulas.values() for p in spec.processes.values()]
        _cross_check(pairs, heads, W.D23, f"spec {key}")
        items.append({"key": key, "part": "spec", "cost_s": span, "rc": rc,
                      "heads": heads})
        print(f"check-large {key}: rc {rc}, {len(lines)} verdicts", flush=True)
    return items


def record_compile_ladder():
    items = []
    for key in W.CompileLadder.pool:
        d = W.DOMAINS[key[0]]
        text = str(W.ladder_formula(key))
        f = enfkit.parse_formula(text, d)
        if str(f) != text:
            raise RecordError(f"{key}: formula does not print back")
        enforcer, outcome = None, "ok"
        start = HOST.clock()
        try:
            with W.Deadline(RECORD_COMPILE_DEADLINE_S):
                e = enfkit.compile_formula(f, d)
        except W.DeadlineExceeded:
            outcome = "timeout"
        except Exception as exc:  # noqa: BLE001 - the pinned outcome names it
            outcome = type(exc).__name__
        span = (start, HOST.clock())
        if outcome == "ok":
            if not enfkit.classify(enfkit.normalize(f, d), d).shmlnf:
                raise RecordError(f"{key}: normal form fails shmlnf")
            enforcer = str(e)
            if not enfkit.alpha_eq(e, enfkit.parse_transducer(enforcer, d)):
                raise RecordError(f"{key}: enforcer does not print back")
        items.append({"key": list(key), "part": key[0], "cost_s": span,
                      "outcome": outcome, "enforcer": enforcer})
        print(f"compile-ladder {key}: {outcome} {span[1] - span[0]:.3f} s", flush=True)
    return items


def enforce_pool():
    """Pairs of a satisfiable formula (size 6-10) and a process (24-64
    terms).  Unsatisfiable formulas cannot be enforced at all, so the pool
    takes, for each pair, the first formula seed that nil satisfies by
    sat_oracle."""
    nil = enfkit.reachable(enfkit.processes.NIL, 10)
    pool = []
    for k in range(ENFORCE_POOL):
        fsize = 6 + k % 5
        fseed = 3000 + 1000 * k
        while not enfkit.sat_oracle(nil, enfkit.gen_formula(W.D23, fsize, fseed), W.D23):
            fseed += 1
        pool.append((fsize, fseed, 24 + (7 * k) % 41, 6000 + k))
    return pool


def record_enforce_online():
    items = []
    for key in enforce_pool():
        f, p = W.enforce_inputs(key)
        e = enfkit.compile_formula(f, W.D23)
        start = HOST.clock()
        run = enfkit.simulate(e, p, W.EnforceOnline.steps, "random:0", W.D23)
        span = (start, HOST.clock())
        comp = enfkit.composite_lts(e, p, W.D23)
        visible = tuple(s.label for s in run if s.label is not enfkit.TAU)
        if enfkit.violates((comp, comp.initial), visible, f, W.D23):
            raise RecordError(f"{key}: enforced run violates the formula")
        items.append({"key": list(key), "part": "pair", "cost_s": span,
                      "enforcer": str(e)})
        print(f"enforce-online {key}: {len(run)} steps", flush=True)
    return items


RECORDERS = {
    "verify-corpus": record_verify_corpus,
    "check-large": record_check_large,
    "compile-ladder": record_compile_ladder,
    "enforce-online": record_enforce_online,
}


def main(names):
    W.PINNED_DIR.mkdir(exist_ok=True)
    for name in names or RECORDERS:
        HOST.start()
        items = RECORDERS[name]()
        HOST.stop()
        scale = HOST.scale()
        for item in items:
            item["cost_s"] = round(scale.span(*item["cost_s"]), 5)
        record = {
            "workload": name,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "source_sha256": source_digest(),
            "items": items,
        }
        data = json.dumps(record, separators=(",", ":")).encode("utf-8")
        with open(W.PINNED_DIR / f"{name}.json.gz", "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(data)


if __name__ == "__main__":
    main(sys.argv[1:])
