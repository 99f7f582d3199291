import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest

import pytest

from enfkit import cli, harness, normalizer
from enfkit.cli import build_parser, main
from enfkit.modelcheck import ClosureBoundExceeded
from enfkit.normalizer import EquationBoundExceeded, MintermBlowup
from enfkit.processes import StateBoundExceeded
from enfkit.parsing import parse_transducer
from enfkit.transducers import alpha_eq

SPEC = os.path.join(os.path.dirname(__file__), "..", "specs", "server.spec")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verify_random_200_42.txt")
SERVER_GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verify_server_spec.txt")


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_check_membership_exit_codes():
    code, out = run(["--spec", SPEC, "check", "phi1", "pg"])
    assert code == 0 and out.startswith("SAT")
    code, out = run(["--spec", SPEC, "check", "phi1", "pb"])
    assert code == 1 and out.startswith("UNSAT")
    code, out = run(["--spec", SPEC, "check", "phi0", "pg"])
    assert code == 0
    code, out = run(["--spec", SPEC, "check", "phi0", "pb"])
    assert code == 1


def test_check_unknown_name_is_usage_error():
    code, _ = run(["--spec", SPEC, "check", "nosuch", "pg"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, error",
    [
        (["check", "nosuch", "pg"], "formula 'nosuch' is not defined"),
        (["check", "phi1", "nosuch"], "process 'nosuch' is not defined"),
        (["simulate", "--enforcer", "nosuch", "--process", "pg"],
         "transducer 'nosuch' is not defined"),
    ],
)
def test_an_unknown_name_is_reported_by_its_kind(capsys, argv, error):
    assert run(["--spec", SPEC, *argv]) == (2, "")
    assert capsys.readouterr().err == f"error: {error} in the spec file\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "phi1", "pg"],
        ["normalize", "phi1"],
        ["synthesize", "phi1"],
        ["simulate", "--enforcer", "ess", "--process", "pg"],
        ["bisim", "--left", "pg", "--right", "pg"],
        ["verify", "--property", "all", "--corpus", "random:2:1"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_subcommand_rejects_a_domain_bound_below_one(capsys, argv):
    assert run(["--domain-bound", "0", "--spec", SPEC, *argv]) == (2, "")
    assert capsys.readouterr().err == "error: --domain-bound must be at least 1\n"


def test_synthesize_emits_the_handwritten_suppressor(dom, terms):
    code, out = run(["--spec", SPEC, "synthesize", "phi1"])
    assert code == 0
    assert alpha_eq(parse_transducer(out.strip(), dom), terms["ess"])


def test_synthesize_no_optimize_keeps_redundant_recursion(dom):
    code, out = run(["--spec", SPEC, "synthesize", "phi1", "--no-optimize"])
    assert code == 0
    expected = parse_transducer(
        "rec x.rec z.{(v)?req when v != j}.rec y.({v!ans}.x + {v?req -> tau}.y)", dom
    )
    assert alpha_eq(parse_transducer(out.strip(), dom), expected)


UNGUARDED = ["max X.X", "max X.([i?req]ff && X)"]


@pytest.mark.parametrize("text", UNGUARDED)
@pytest.mark.parametrize("flags", [[], ["--no-optimize"]])
def test_synthesize_refuses_an_unguarded_formula(tmp_path, capsys, text, flags):
    # with or without optimisation: the one safety gate, as normalize has it
    spec = tmp_path / "unguarded.spec"
    spec.write_text(f"ports = {{i, j}}\npayloads = {{req, ans}}\nformula u = {text}\n")
    for argv in (["synthesize", "u", *flags], ["normalize", "u"]):
        code, out = run(["--spec", str(spec), *argv])
        assert (code, out) == (2, "")
        assert "formula is not guarded" in capsys.readouterr().err


def test_normalize_and_dump_stages():
    code, out = run(["--spec", SPEC, "normalize", "phi1"])
    assert code == 0 and out.strip().startswith("max")
    code, out = run(["--spec", SPEC, "normalize", "phi1", "--dump-stages"])
    assert code == 0
    assert "stage 2 (equations):" in out and "X0 =" in out


def test_simulate_deterministic_run():
    code, out = run(
        ["--spec", SPEC, "simulate", "--enforcer", "ess", "--process", "pb", "--steps", "3"]
    )
    assert code == 0
    rules_labels = [tuple(line.split()[:2]) for line in out.strip().splitlines()]
    assert rules_labels == [("iTrn", "i?req"), ("iTrn", "tau"), ("iTrn", "i!ans")]
    again = run(
        ["--spec", SPEC, "simulate", "--enforcer", "ess", "--process", "pb", "--steps", "3"]
    )
    assert again == (code, out)


def test_simulate_random_policy_seeded():
    first = run(
        ["--spec", SPEC, "simulate", "--enforcer", "er", "--process", "pb",
         "--steps", "5", "--policy", "random:7"]
    )
    second = run(
        ["--spec", SPEC, "simulate", "--enforcer", "er", "--process", "pb",
         "--steps", "5", "--policy", "random:7"]
    )
    assert first == second and first[0] == 0


def test_bisim_named_and_composite_operands():
    code, out = run(["--spec", SPEC, "bisim", "--left", "ess @ pg", "--right", "pg"])
    assert code == 0 and out.strip() == "bisimilar"
    code, out = run(["--spec", SPEC, "bisim", "--left", "er @ req_once", "--right", "req_once"])
    assert code == 1 and out.startswith("not bisimilar")


def test_bisim_lts_files(tmp_path):
    left = tmp_path / "left.lts"
    left.write_text("init a\na -i?req-> b\n")
    right = tmp_path / "right.lts"
    right.write_text("init s\ns -i?req-> t\n")
    code, out = run(["bisim", "--left", str(left), "--right", str(right)])
    assert code == 0 and out.strip() == "bisimilar"


def test_verify_soundness_random_corpus():
    code, out = run(["verify", "--property", "soundness", "--corpus", "random:25:7"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 25
    assert all(line.endswith("pass") for line in lines)
    # identical inputs and seeds give byte-identical reports
    assert run(["verify", "--property", "soundness", "--corpus", "random:25:7"]) == (code, out)


def test_verify_spec_corpus_all_pairs():
    code, out = run(
        ["--spec", SPEC, "verify", "--property", "transparency", "--corpus", SPEC]
    )
    assert code == 0
    # 3 formulas x 4 processes
    assert len(out.strip().splitlines()) == 12


def test_usage_errors():
    assert main(["check"]) == 2  # missing arguments
    code, _ = run(["check", "phi1", "pg"])  # no --spec
    assert code == 2


def test_a_usage_error_leaves_the_parser_as_it_was():
    # the parser is built once per process: a command after a usage error
    # must run as it does in a fresh process
    commands = [
        ["verify", "--property", "bogus", "--corpus", "random:3:5"],
        ["verify", "--property", "all", "--corpus", "random:3:5"],
    ]
    in_process = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        in_process.append((code, out.getvalue(), err.getvalue()))
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    script = "import sys; from enfkit.cli import main; sys.exit(main(sys.argv[1:]))"
    fresh = []
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        fresh.append((done.returncode, done.stdout, done.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [2, 0]


def test_synthesize_phi0_golden_text():
    code, out = run(["--spec", SPEC, "synthesize", "phi0"])
    assert code == 0
    assert out.strip() == "rec x.{i?req}.(rec y1.{i!ans}.x + {i?req -> tau}.y1)"


def test_check_trivial_formula_on_inert_process():
    code, out = run(["--spec", SPEC, "check", "always", "stopped"])
    assert code == 0 and out.startswith("SAT")


def test_synthesize_truth_gives_identity():
    code, out = run(["--spec", SPEC, "synthesize", "always"])
    assert code == 0 and out.strip() == "id"


def test_bisim_identity_composite_is_neutral():
    code, out = run(["--spec", SPEC, "bisim", "--left", "pass @ pg", "--right", "pg"])
    assert code == 0 and out.strip() == "bisimilar"


def test_verify_violation_semantics_random_corpus():
    code, out = run(["verify", "--property", "violation-sem", "--corpus", "random:40:42"])
    assert code == 0


def test_a_wrapper_put_on_a_command_after_the_parser_is_built_is_called(monkeypatch):
    # the parser is built once per process; the command it runs is looked
    # up when it runs, so a wrapper put on `cmd_verify` later still sees it
    build_parser()
    seen = []
    verify = cli.cmd_verify

    def wrapper(args):
        seen.append(args.property)
        return verify(args)

    monkeypatch.setattr(cli, "cmd_verify", wrapper)
    assert run(["verify", "--property", "soundness", "--corpus", "random:2:1"])[0] == 0
    assert seen == ["soundness"]


@pytest.mark.parametrize(
    "error",
    [StateBoundExceeded, ClosureBoundExceeded, MintermBlowup, EquationBoundExceeded],
    ids=lambda error: error.__name__,
)
def test_a_bound_hit_by_a_command_exits_inconclusive(capsys, monkeypatch, error):
    def normalize(args):
        raise error("a bound was hit")

    monkeypatch.setattr(cli, "cmd_normalize", normalize)
    assert run(["--spec", SPEC, "normalize", "phi1"]) == (3, "")
    assert capsys.readouterr().err == "inconclusive: a bound was hit\n"


def test_bound_errors_exit_inconclusive():
    code, _ = run(["--domain-bound", "1", "--spec", SPEC, "check", "phi1", "pg"])
    assert code == 3
    code, _ = run(["--domain-bound", "1", "--spec", SPEC, "bisim", "--left", "pg", "--right", "pg"])
    assert code == 3


def test_verify_minterm_blowup_is_inconclusive_per_pair(tmp_path):
    # 13 distinct conditions on one pattern exceed the minterm bound; the
    # unused binder takes the formula out of normal form, so compiling it
    # normalises it and meets the bound
    names = ["i", "j"] * 7
    blowup = "max Z.(" + " && ".join(
        f"[(x)?(y) when {' && '.join(f'x != {n}' for n in names[: k + 1])}]tt" for k in range(13)
    ) + ")"
    spec = tmp_path / "blowup.spec"
    spec.write_text(
        "ports = {i, j}\npayloads = {req, ans, cls}\n"
        "process pg = rec X.(i?req.i!ans.X + i?cls.nil)\n"
        "process stopped = nil\n"
        f"formula blowup = {blowup}\n"
        "formula phi0 = max X.[i?req]([i!ans]X && [i?req]ff)\n"
    )
    code, out = run(["verify", "--property", "all", "--corpus", str(spec)])
    lines = out.strip().splitlines()
    # 2 formulas x 2 processes x 4 criteria: the blow-up aborts no pair
    assert code == 3 and len(lines) == 16
    inconclusive = [line for line in lines if " inconclusive [" in line]
    assert inconclusive and all("the bound is 12" in line for line in inconclusive)


def test_verify_equation_bound_is_inconclusive_per_pair(monkeypatch, tmp_path):
    monkeypatch.setattr(normalizer, "MAX_EQUATIONS", 2)
    # phi0 under an unused binder is not in normal form: compiling it
    # normalises it into three equations, past the bound
    spec = tmp_path / "server.spec"
    with open(SPEC, encoding="utf-8") as fh:
        spec.write_text(
            fh.read() + "formula phi0_loose = max Y.max X.[i?req]([i!ans]X && [i?req]ff)\n"
        )
    spec = str(spec)
    code, out = run(["--spec", spec, "verify", "--property", "soundness", "--corpus", spec])
    lines = out.strip().splitlines()
    # 4 formulas x 4 processes: the bound aborts no pair
    assert code == 3 and len(lines) == 16
    inconclusive = [line for line in lines if " inconclusive [" in line]
    assert inconclusive and all("grew past the safety bound" in line for line in inconclusive)
    # with every criterion, the two nvtt failures of the bad server still
    # decide the exit code, and all 64 verdicts are printed
    code, out = run(["--spec", spec, "verify", "--property", "all", "--corpus", spec])
    assert code == 1 and len(out.strip().splitlines()) == 64


def test_verify_rebuild_bound_is_inconclusive_per_pair(monkeypatch):
    # pair 8, gen_formula(2x3, 8, 2013), determinises to 156 equations whose
    # stage-6 expansion passes `normalizer.MAX_REBUILD_BOXES`; every
    # criterion that compiles it is inconclusive, and nothing else changes
    compiles, compile_formula = [], harness.compile_formula

    def counted(f, d):
        compiles.append(f)
        return compile_formula(f, d)

    monkeypatch.setattr(harness, "compile_formula", counted)
    code, out = run(["verify", "--property", "all", "--corpus", "random:8:2006"])
    lines = out.splitlines()
    assert code == 3 and len(lines) == 32
    # a pair keeps the bound error of its enforcer: one compile per pair
    assert len(compiles) == 8
    _, first = run(["verify", "--property", "all", "--corpus", "random:7:2006"])
    assert lines[:28] == first.splitlines()
    assert all(line.endswith("' pass") for line in lines[:28])
    subject = (
        "'max X5.[(y)!(z)][(w)!req when y != ans]([i!req when z != ans]X5 && (max X9.X5))"
        " j?req.j!req.j!ans.i!ans.nil"
    )
    bound = " inconclusive [the rebuilt formula grew past the safety bound]"
    assert lines[28:] == [
        f"soundness {subject}'{bound}",
        f"transparency {subject}'{bound}",
        f"nvtt {subject} depth=6'{bound}",
        f"violation-sem {subject} depth=6' pass",
    ]


def assert_matches_golden(out, golden):
    with open(golden, encoding="utf-8") as fh:
        want = fh.read()
    for i, (got_line, want_line) in enumerate(
        zip_longest(out.splitlines(), want.splitlines()), 1
    ):
        if got_line != want_line:
            pytest.fail(f"line {i} differs:\n got: {got_line}\nwant: {want_line}")
    assert out == want


def test_verify_output_matches_the_golden_file():
    # every verdict line of the pinned corpus, byte for byte
    code, out = run(["verify", "--property", "all", "--corpus", "random:200:42"])
    assert code == 1
    assert_matches_golden(out, GOLDEN)


def test_verify_server_spec_matches_the_golden_file():
    # all 12 pairs of the worked server example under every criterion
    code, out = run(["verify", "--property", "all", "--corpus", SPEC])
    assert code == 1 and len(out.splitlines()) == 48
    assert_matches_golden(out, SERVER_GOLDEN)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["verify", "--property", "all", "--corpus", "random:2:1", "--depth", "-1"], "--depth"),
        (["verify", "--property", "all", "--corpus", "random:-3:1"], "corpus size"),
        (["verify", "--property", "all", "--corpus", "random:0:1"], "corpus size"),
        (["verify", "--property", "all", "--corpus", "random:abc:1"],
         "error: random corpus spec must be random:N:SEED"),
        (["verify", "--property", "all", "--corpus", "random:2:x"],
         "error: random corpus spec must be random:N:SEED"),
        (["--domain-bound", "0", "verify", "--property", "all", "--corpus", "random:2:1"],
         "--domain-bound"),
        (["--spec", SPEC, "simulate", "--enforcer", "ess", "--process", "pg", "--steps", "-3"],
         "--steps"),
        (["verify", "--property", "all", "--corpus", "{tmp}/no_formula.spec"],
         "no formula or no process"),
        (["--spec", SPEC, "simulate", "--enforcer", "ess", "--process", "pg", "--policy",
          "random:abc"], "error: random policy must be random:SEED"),
        (["--spec", SPEC, "simulate", "--enforcer", "ess", "--process", "pg", "--policy",
          "random:1.5"], "error: random policy must be random:SEED"),
    ],
    ids=["negative_depth", "negative_corpus_size", "empty_corpus", "non_integer_corpus_size",
         "non_integer_corpus_seed", "zero_domain_bound",
         "negative_steps", "empty_spec_corpus", "non_numeric_policy_seed",
         "non_integer_policy_seed"],
)
def test_verify_rejects_bad_arguments_before_any_verdict(capsys, tmp_path, argv, error):
    (tmp_path / "no_formula.spec").write_text("ports = {i}\npayloads = {req}\nprocess p = nil\n")
    assert run([arg.format(tmp=tmp_path) for arg in argv]) == (2, "")
    assert error in capsys.readouterr().err


@pytest.mark.parametrize(
    "formula, error",
    [("[i?req]ff || [i!ans]ff", "only safety formulas"), ("max X.X", "not guarded")],
    ids=["non_safety", "unguarded"],
)
def test_verify_rejects_a_bad_spec_formula_before_any_verdict(capsys, tmp_path, formula, error):
    # the good formula comes first, so a check made pair by pair would
    # print its verdicts before failing
    spec = tmp_path / "bad.spec"
    spec.write_text(
        "ports = {i, j}\npayloads = {req, ans, cls}\n"
        "process pg = rec X.(i?req.i!ans.X + i?cls.nil)\n"
        f"formula phi0 = max X.[i?req]([i!ans]X && [i?req]ff)\nformula bad = {formula}\n"
    )
    assert run(["verify", "--property", "all", "--corpus", str(spec)]) == (2, "")
    err = capsys.readouterr().err
    assert "formula bad" in err and error in err


def test_verify_prints_the_verdict_of_a_deep_process(tmp_path):
    body = "i?req.i!ans." * 2500 + "nil"
    formula = "max X.[i?req][i?req]ff && [i!ans]X"
    spec = tmp_path / "deep.spec"
    spec.write_text(
        f"ports = {{i}}\npayloads = {{req, ans}}\n\nformula f = {formula}\nprocess p = {body}\n",
        encoding="utf-8",
    )
    argv = ["--spec", str(spec), "verify", "--property", "soundness", "--corpus", str(spec)]
    code, out = run(argv)
    assert (code, out) == (0, f"soundness '{formula} {body}' pass\n")
