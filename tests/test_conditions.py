"""The guard solver on hand-written conditions.  The condition walkers and
the solver against their oracles are the `condition walkers` and
`disjoint_under` rows of tests/test_oracles.py."""
from enfkit.symbolic import And, Cmp, Not, Or, Val, Var, satisfiable

from inputs import D23


def test_the_solver_flips_polarity_and_branches_on_disjunctions():
    x, y, i = Var("x"), Var("y"), Val("i")
    either = (Cmp(x, i, True), Cmp(x, i, False))
    assert not satisfiable(Not(Or(either)), {"x"}, D23)
    assert satisfiable(Not(And(either)), {"x"}, D23)
    assert satisfiable(Not(Not(Or(either))), {"x"}, D23)
    assert satisfiable(Or((Cmp(x, i, True), Cmp(x, Val("j"), True))), {"x"}, D23)
    assert not satisfiable(And((Cmp(x, y, False), Not(Not(Cmp(x, y, True))))), {"x", "y"}, D23)
