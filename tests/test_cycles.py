"""A compile and a verify run leave no reference cycle behind: what they
build is freed by reference counting as soon as it is dropped, not by a
later pass of the cycle collector.  A recursive closure would not be: it
refers to itself through its own cell."""
import gc

from enfkit.cli import main
from enfkit.harness import gen_formula
from enfkit.symbolic import Domain
from enfkit.synthesis import compile_formula


def _cyclic_garbage(run) -> int:
    """The objects that only the cycle collector frees after `run()`."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_compiling_leaves_no_cycle(dom):
    for seed in range(20):
        compile_formula(gen_formula(dom, 12, seed), dom)
    # a domain of its own, so that the guard solver's memos miss
    fresh = Domain({"p", "q"}, {"m", "n", "o"})

    def run():
        for seed in range(20):
            compile_formula(gen_formula(fresh, 12, seed), fresh)

    assert _cyclic_garbage(run) == 0


def test_verifying_a_corpus_leaves_no_cycle(capsys):
    def run():
        assert main(["verify", "--property", "all", "--corpus", "random:20:1"]) in (0, 1)

    run()
    assert _cyclic_garbage(run) == 0
    capsys.readouterr()
