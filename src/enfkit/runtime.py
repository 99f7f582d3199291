"""Instrumentation of a transducer over a system, and step-wise simulation.

A monitored configuration pairs an enforcer with a system state.  Its
transitions come from four rules:

  iTrn  the system fires a visible action and the enforcer transforms it;
  iAsy  the system moves silently, the enforcer stands still;
  iIns  the enforcer inserts an action on its own;
  iTer  the system fires a visible action the enforcer neither transforms
        nor pre-empts with an insertion, so enforcement degrades to the
        identity from then on.

The system side is any labelled-transition behaviour: a process term or an
explicit LTS state.

An enforcer's transforms depend only on its own state, and a process's
moves only on the process state.  So `istep` reads both from memos keyed by
term, `transducers.transform_table` (indexed by consumed action) and
`processes.cached_step`, and `composite_lts` and `simulate` step each
enforcer and process state once, however many configurations share it.
"""
from __future__ import annotations

import random

from .processes import (
    DEFAULT_STATE_BOUND,
    LTS,
    cached_step,
    checked_process,
    explore,
    lts_view,
)
from .symbolic import TAU, Domain, term
from .transducers import ID, Transducer, checked_transducer, transform_table


class SimulationError(Exception):
    pass


@term
class Config:
    enforcer: Transducer
    system: object

    def __str__(self):
        return f"<{self.enforcer} | {self.system}>"


def system_view(system):
    """Normalise the system argument to (initial state, step function).

    Accepts a process term, stepped lazily through the memo of its states'
    steps, an LTS (its initial state is used), or a pair (LTS, state).
    """
    view = lts_view(system)
    if view is not None:
        lts, state = view
        return state, lts.steps
    checked_process(system)
    return system, cached_step


def istep(cfg: Config, sys_steps, domain: Domain):
    """All instrumented transitions of a configuration, as
    (rule name, output label, next configuration), grouped by rule in the
    fixed order iTrn < iAsy < iIns < iTer and source order inside a rule.
    The enforcer's transforms come from its memoised transform table, so
    each system move costs one lookup."""
    table = transform_table(cfg.enforcer, domain)
    by_action, inserts = table.by_action, table.inserts
    sys_moves = sys_steps(cfg.system)

    out = []
    # iTrn: visible system action composed with a matching transform
    for label, target in sys_moves:
        if label is not TAU:
            for produced, e2 in by_action.get(label, ()):
                out.append(("iTrn", produced, Config(e2, target)))
    # iAsy: silent system moves pass through
    for label, target in sys_moves:
        if label is TAU:
            out.append(("iAsy", TAU, Config(cfg.enforcer, target)))
    # iIns: the enforcer inserts independently of the system
    for produced, e2 in inserts:
        out.append(("iIns", produced, Config(e2, cfg.system)))
    # iTer: unhandled visible action and no insertion available
    if not inserts:
        for label, target in sys_moves:
            if label is not TAU and label not in by_action:
                out.append(("iTer", label, Config(ID, target)))
    return out


def composite_lts(
    enforcer: Transducer, system, domain: Domain, bound: int = DEFAULT_STATE_BOUND
) -> LTS:
    """Reachable closure of the instrumentation from <enforcer, system>.

    A transducer that can insert forever makes this space infinite; the
    state bound turns that into an explicit error.
    """
    checked_transducer(enforcer)
    initial_sys, sys_steps = system_view(system)

    def stepper(cfg):
        return [(label, nxt) for _, label, nxt in istep(cfg, sys_steps, domain)]

    return explore(Config(enforcer, initial_sys), stepper, bound)


@term
class SimStep:
    rule: str
    label: object
    config: Config

    def __str__(self):
        return f"{self.rule} {self.label}  {self.config}"


def first_policy(candidates, current: Config, index: int):
    """Deterministic choice: rule order then source order, preferring steps
    that change the configuration over self-loops."""
    for cand in candidates:
        if cand[2] != current:
            return cand
    return candidates[0]


def random_policy(seed: int):
    rng = random.Random(seed)

    def choose(candidates, current, index):
        return rng.choice(candidates)

    return choose


def script_policy(script):
    """Replay a scripted run: each entry is (rule, label) or (rule, label,
    system-state text) to pin the successor when several steps share a label."""

    def choose(candidates, current, index):
        if index >= len(script):
            raise SimulationError(f"script ended before step {index + 1}")
        want = script[index]
        for cand in candidates:
            rule, label, cfg = cand
            if rule != want[0] or str(label) != str(want[1]):
                continue
            if len(want) > 2 and str(cfg.system) != want[2]:
                continue
            return cand
        raise SimulationError(
            f"script step {index + 1} {want!r} matches no available transition"
        )

    return choose


def make_policy(policy):
    if callable(policy):
        return policy
    if policy == "first":
        return first_policy
    if isinstance(policy, str) and policy.startswith("random:"):
        try:
            return random_policy(int(policy.split(":", 1)[1]))
        except ValueError:
            raise SimulationError("random policy must be random:SEED") from None
    if isinstance(policy, (list, tuple)):
        return script_policy(policy)
    raise ValueError(f"unknown simulation policy {policy!r}")


def simulate(enforcer: Transducer, system, steps: int, policy, domain: Domain):
    """One resolved run of at most `steps` instrumented transitions.

    Halts early on deadlock.  The policy resolves nondeterminism; `first` is
    deterministic, `random:SEED` seeds an RNG, and a list of (rule, label)
    pairs replays a scripted run.
    """
    checked_transducer(enforcer)
    initial_sys, sys_steps = system_view(system)
    choose = make_policy(policy)
    cfg = Config(enforcer, initial_sys)
    run = []
    for index in range(steps):
        candidates = istep(cfg, sys_steps, domain)
        if not candidates:
            break
        rule, label, nxt = choose(candidates, cfg, index)
        run.append(SimStep(rule, label, nxt))
        cfg = nxt
    return run
