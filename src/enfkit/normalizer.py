"""Conversion of safety formulas into their enforceable normal form.

A closed, guarded safety formula, its guards rewritten to binder slots only,
becomes an equivalent formula whose conjunctions guard pairwise-disjoint
symbolic actions and whose fixpoint binders are all used:

  1. unfold fixpoints, pushing recursive definitions inward;
  2. read the result off as a system of equations X = tt | ff | AND [sa]X';
  3. align binder names of same-shaped patterns within each equation body;
  4. split overlapping guards on one pattern into satisfiable sign-complete
     condition products (minterms), so guards partition the action space;
  5. determinise the system by a powerset construction that merges branches
     carrying syntactically equal symbolic actions;
  6. rebuild a formula from the determinised system, introducing fixpoint
     binders exactly at back-edges.

`normalize` and `dump_stages` run one chain.  Stage 1 is never materialised:
stage 2 unfolds the top-level fixpoints of each formula it interns, which
avoids the exponential one-step unfolding of nested inputs and can give a
smaller system than an eager unfolding (`max X.[a](max Y.X)` gives two
equations eagerly, one lazily).  Stage 2's builder keeps the action
domain for stages 3 to 5.  Equation bodies keep continuation formulas open in
the data variables bound by ancestor patterns; renaming a pattern's binders
renames the continuation and re-interns it as a (possibly new) variable.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count, product

from .formulas import (
    Box,
    Dia,
    FF,
    FVar,
    Formula,
    Max,
    Min,
    TT,
    all_names,
    conj,
    free_data_vars,
    necessities,
    require_safety,
    unfold,
)
from .symbolic import (
    DONE,
    AlphaKeys,
    And,
    Binder,
    BoundExceeded,
    Domain,
    Not,
    SymbolicAction,
    conjoin,
    fresh_name,
    normalize_pattern,
    pattern_key,
    rebuild,
    rename_binders,
    satisfiable,
)


class NormalizeError(Exception):
    pass


class MintermBlowup(NormalizeError, BoundExceeded):
    """A single equation body mixes too many distinct guard conditions."""


class EquationBoundExceeded(NormalizeError, BoundExceeded):
    """The equation system grew past `MAX_EQUATIONS` variables, or the
    formula stage 6 rebuilds from it past `MAX_REBUILD_BOXES` necessities."""


MAX_MINTERM_CONDITIONS = 12
MAX_EQUATIONS = 10_000
MAX_REBUILD_BOXES = 200_000


@dataclass(frozen=True)
class Branch:
    action: SymbolicAction
    target: object  # int for base systems, frozenset[int] after determinising

    def __str__(self):
        return f"[{self.action}]{var_name(self.target)}"


def var_name(key) -> str:
    if isinstance(key, frozenset):
        return "X{" + ",".join(str(v) for v in sorted(key)) + "}"
    return f"X{key}"


@dataclass
class EquationSystem:
    """A snapshot of the equation form of a formula at some pipeline stage."""

    start: object
    order: tuple
    bodies: dict
    builder: _Builder = field(repr=False)

    def body(self, key):
        return self.bodies[key]

    def pretty(self) -> str:
        lines = []
        for key in self.order:
            body = self.bodies[key]
            if body in ("tt", "ff"):
                rhs = body
            else:
                rhs = " && ".join(str(b) for b in body)
            lines.append(f"{var_name(key)} = {rhs}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pattern pre-pass


def normalize_formula_patterns(f: Formula, d: Domain) -> Formula:
    """Rewrite every modality guard to use only binder slots."""
    used = set(all_names(f)) | set(d.values)

    def enter(g, ctx):
        if isinstance(g, (Box, Dia)):
            sa = normalize_pattern(g.action, avoid=frozenset(used))
            used.update(sa.binders)
            g = type(g)(sa, g.body)
        return g, ctx

    return rebuild(f, enter)


# ---------------------------------------------------------------------------
# Stage 2: equations


class _Builder:
    """Interns formulas as equation variables and derives their bodies over
    the action domain `domain`.

    Interning chases top-level fixpoints first and keys variables by alpha-
    normal shape, so a fixpoint, its unfolding, and bound-name variants all
    share a variable; a body is read off `formulas.necessities`, so it
    flattens conjunctions, drops tt members and lets ff absorb.

    The body of a variable at stages 2, 3 and 4 (raw, aligned, minterms) is
    memoised here by variable, so stages 3 to 5 share one alignment and one
    minterm split per variable.
    """

    def __init__(self, domain: Domain):
        self.domain = domain
        self.ids: dict = {}
        self.formulas: list = []
        self._raw: dict = {}
        self._aligned: dict = {}
        self._minterms: dict = {}
        self._keys = AlphaKeys()

    def intern(self, f: Formula) -> int:
        f = self.chase(f)
        key = self._keys(f)
        if key in self.ids:
            return self.ids[key]
        if len(self.formulas) >= MAX_EQUATIONS:
            raise EquationBoundExceeded("equation system grew past the safety bound")
        var = len(self.formulas)
        self.ids[key] = var
        self.formulas.append(f)
        return var

    @staticmethod
    def chase(f: Formula) -> Formula:
        # f is guarded, so each unfolding strips one leading binder
        while isinstance(f, Max):
            f = unfold(f)
        return f

    def raw_body(self, key: int):
        """The stage-2 body: the necessities the variable's formula reaches,
        each continuation interned in source order, even after ff absorbs."""
        if key not in self._raw:
            boxes, falsified = necessities(self.formulas[key])
            branches = tuple(Branch(b.action, self.intern(b.body)) for b in boxes)
            self._raw[key] = "ff" if falsified else (branches or "tt")
        return self._raw[key]

    def aligned_body(self, key: int):
        """The stage-3 body: same-shaped binders aligned."""
        if key not in self._aligned:
            body = self.raw_body(key)
            self._aligned[key] = (
                body if body in ("tt", "ff") else _align_branches(self, body)
            )
        return self._aligned[key]

    def minterm_body(self, key: int):
        """The stage-4 body: the aligned guards split into minterms."""
        if key not in self._minterms:
            body = self.aligned_body(key)
            self._minterms[key] = (
                body if body in ("tt", "ff") else _mintermize_branches(body, self.domain)
            )
        return self._minterms[key]


def _snapshot(builder: _Builder, start, body_fn) -> EquationSystem:
    order, bodies = [], {}
    queue, seen = deque([start]), {start}
    while queue:
        key = queue.popleft()
        order.append(key)
        body = body_fn(key)
        bodies[key] = body
        if body not in ("tt", "ff"):
            for br in body:
                if br.target not in seen:
                    seen.add(br.target)
                    queue.append(br.target)
    return EquationSystem(start, tuple(order), bodies, builder)


def stage2_equations(f: Formula, d: Domain) -> EquationSystem:
    builder = _Builder(d)
    start = builder.intern(f)
    return _snapshot(builder, start, builder.raw_body)


# ---------------------------------------------------------------------------
# Stage 3: binder alignment


def _branch_free_names(builder, br: Branch) -> frozenset:
    return free_data_vars(Box(br.action, builder.formulas[br.target]))


def _rename_branch(builder, br: Branch, mapping: dict) -> Branch:
    """Rename a branch's binders; the continuation formula is renamed and
    re-interned so the connection between binder and use survives."""
    if not mapping:
        return br
    box = rename_binders(Box(br.action, builder.formulas[br.target]), mapping)
    return Branch(box.action, builder.intern(box.body))


def _binder_names(pat):
    return [s.name for s in (pat.port, pat.payload) if isinstance(s, Binder)]


def _align_branches(builder, branches):
    """Give same-shaped patterns within one body identical binder names."""
    groups: dict = {}
    for idx, br in enumerate(branches):
        groups.setdefault(pattern_key(br.action.pattern, 0, {})[0], []).append(idx)
    out = list(branches)
    for idxs in groups.values():
        members = [branches[i] for i in idxs]
        if len(members) == 1 or not members[0].action.binders:
            continue
        canonical = _binder_names(members[0].action.pattern)
        # keep the first branch's names unless they occur free in a sibling
        # (renaming would capture them); then use fresh names for the group
        if any(set(canonical) & _branch_free_names(builder, m) for m in members):
            used = set(builder.domain.values)
            for m in members:
                used |= _branch_free_names(builder, m) | m.action.binders
            canonical = []
            for _ in _binder_names(members[0].action.pattern):
                name = fresh_name(used)
                used.add(name)
                canonical.append(name)
        for i, m in zip(idxs, members):
            own = _binder_names(m.action.pattern)
            mapping = {o: n for o, n in zip(own, canonical) if o != n}
            out[i] = _rename_branch(builder, m, mapping)
    return tuple(out)


def stage3_align(eqs: EquationSystem) -> EquationSystem:
    return _snapshot(eqs.builder, eqs.start, eqs.builder.aligned_body)


# ---------------------------------------------------------------------------
# Stage 4: satisfiable condition products


def _minterm_condition(base, signs, d: Domain):
    """The sign-complete product, with negated conjuncts dropped when the
    positive part already entails them; keeps re-normalisation idempotent
    instead of piling up redundant negations."""
    positives = [c for c, s in zip(base, signs) if s]
    parts = []
    for c, s in zip(base, signs):
        if s:
            parts.append(c)
            continue
        overlap = And(tuple(positives + [c])) if positives else c
        if satisfiable(overlap, free_data_vars(overlap), d):
            parts.append(Not(c))
    return conjoin(parts)


def _mintermize_branches(branches, d: Domain):
    """Split same-pattern branches over all satisfiable sign-complete products
    of their distinct conditions; each product keeps the targets of the
    conditions it makes true."""
    by_pattern: dict = {}
    order = []
    for br in branches:
        key = br.action.pattern
        if key not in by_pattern:
            by_pattern[key] = []
            order.append(key)
        by_pattern[key].append(br)
    out = []
    for pat in order:
        members = by_pattern[pat]
        base = []
        for m in members:
            if m.action.condition not in base:
                base.append(m.action.condition)
        if len(base) > MAX_MINTERM_CONDITIONS:
            raise MintermBlowup(
                f"{len(base)} distinct conditions guard pattern {pat}; "
                f"the bound is {MAX_MINTERM_CONDITIONS}"
            )
        for signs in product((True, False), repeat=len(base)):
            if not any(signs):
                continue
            cond = _minterm_condition(base, signs, d)
            if not satisfiable(cond, free_data_vars(cond), d):
                continue
            seen_targets = set()
            for m in members:
                if not signs[base.index(m.action.condition)]:
                    continue
                if m.target in seen_targets:
                    continue
                seen_targets.add(m.target)
                out.append(Branch(SymbolicAction(pat, cond), m.target))
    return tuple(out)


def stage4_minterms(eqs: EquationSystem) -> EquationSystem:
    return _snapshot(eqs.builder, eqs.start, eqs.builder.minterm_body)


# ---------------------------------------------------------------------------
# Stage 5: powerset determinisation


def stage5_powerset(eqs: EquationSystem) -> EquationSystem:
    """Determinise from `eqs.start`, reading bodies through the builder's
    stage-4 view, which covers variables interned while aligning merges."""
    builder = eqs.builder

    def set_body(keys: frozenset):
        parts = [builder.minterm_body(k) for k in sorted(keys)]
        if any(p == "ff" for p in parts):
            return "ff"
        merged = tuple(br for p in parts if p != "tt" for br in p)
        if not merged:
            return "tt"
        if len(parts) > 1:
            # a lone variable's body is kept: stage 3 aligned it and stage 4
            # split each of its patterns into pairwise-disjoint minterms, so
            # aligning and splitting it again would give it back unchanged
            merged = _mintermize_branches(_align_branches(builder, merged), builder.domain)
        grouped: dict = {}
        order = []
        for br in merged:
            if br.action not in grouped:
                grouped[br.action] = set()
                order.append(br.action)
            grouped[br.action].add(br.target)
        return tuple(Branch(sa, frozenset(grouped[sa])) for sa in order)

    start = frozenset((eqs.start,))
    return _merge_duplicate_bodies(_snapshot(builder, start, set_body))


def _merge_duplicate_bodies(eqs: EquationSystem) -> EquationSystem:
    """Collapse variables whose bodies are identical (after resolving targets
    through earlier merges).  This is syntactic hash-consing, not semantic
    minimisation: it keeps one copy of structurally repeated equations so
    that re-normalising a rebuilt formula reproduces the same system."""
    rep = {k: k for k in eqs.order}

    def resolve(k):
        while rep[k] != k:
            k = rep[k]
        return k

    changed = True
    while changed:
        changed = False
        seen: dict = {}
        for k in eqs.order:
            if resolve(k) != k:
                continue
            body = eqs.bodies[k]
            if body in ("tt", "ff"):
                sig = body
            else:
                sig = tuple((b.action, resolve(b.target)) for b in body)
            if sig in seen:
                rep[k] = seen[sig]
                changed = True
            else:
                seen[sig] = k
    order = []
    bodies = {}
    for k in eqs.order:
        if resolve(k) != k:
            continue
        body = eqs.bodies[k]
        if body not in ("tt", "ff"):
            body = tuple(Branch(b.action, resolve(b.target)) for b in body)
        order.append(k)
        bodies[k] = body
    return EquationSystem(resolve(eqs.start), tuple(order), bodies, eqs.builder)


# ---------------------------------------------------------------------------
# Stage 6: rebuild a formula


def stage6_rebuild(eqs: EquationSystem) -> Formula:
    """Expand the equation graph into a formula.  Every variable reached
    twice on one path becomes a fixpoint reference, and a binder is wrapped
    around exactly the copies whose subtree mentions it, so no binder is
    vacuous.  Acyclic sharing is expanded per occurrence, up to
    `MAX_REBUILD_BOXES` necessities."""
    formula, dangling = _visit(eqs, eqs.start, frozenset(), {}, count(1))
    if dangling:
        raise NormalizeError(f"rebuild left unbound references {sorted(map(var_name, dangling))}")
    return formula


def _visit(eqs: EquationSystem, key, path: frozenset, names: dict, made):
    """The formula rebuilt from `key` and the path variables it refers to.
    A variable referred to gets the next name, `X0`, `X1`, ..., in `names`;
    `made` counts the necessities built."""
    if key in path:
        if key not in names:
            names[key] = f"X{len(names)}"
        return FVar(names[key]), {key}
    body = eqs.body(key)
    if body == "tt":
        return TT, set()
    if body == "ff":
        return FF, set()
    inner = path | {key}
    parts = []
    referenced: set = set()
    for br in body:
        if next(made) > MAX_REBUILD_BOXES:
            raise EquationBoundExceeded("the rebuilt formula grew past the safety bound")
        sub, refs = _visit(eqs, br.target, inner, names, made)
        parts.append(Box(br.action, sub))
        referenced |= refs
    formula = conj(tuple(parts))
    if key in referenced:
        referenced.discard(key)
        formula = Max(names[key], formula)
    return formula, referenced


# ---------------------------------------------------------------------------
# The full pipeline


def _renumber_binders(f: Formula) -> Formula:
    """Rename fixpoint binders positionally (X0, X1, ... in traversal order)
    so that alpha-equivalent rebuilds print identically."""
    counter = count()

    def enter(g, mapping):
        if isinstance(g, FVar):
            return FVar(mapping[g.name]), DONE
        if isinstance(g, (Max, Min)):
            fresh = f"X{next(counter)}"
            return type(g)(fresh, g.body), {**mapping, g.var: fresh}
        return g, mapping

    return rebuild(f, enter, {})


def _run_stages(f: Formula, d: Domain) -> tuple:
    """Check `f`, run the pattern pre-pass and stages 2 to 5 once; returns
    the formula stage 2 reads and the four equation systems."""
    require_safety(f, NormalizeError)
    prepared = normalize_formula_patterns(f, d)
    raw = stage2_equations(prepared, d)
    aligned = stage3_align(raw)
    minterms = stage4_minterms(aligned)
    return prepared, raw, aligned, minterms, stage5_powerset(minterms)


def normalize(f: Formula, d: Domain) -> Formula:
    """Normal-form conversion; the result is semantically equivalent on every
    finite LTS and satisfies both normal-form structural conditions.  Stage 2
    unfolds fixpoints on demand; stage 1 is never materialised."""
    return _renumber_binders(stage6_rebuild(_run_stages(f, d)[-1]))


def dump_stages(f: Formula, d: Domain) -> str:
    """The stages `normalize` runs, for the `--dump-stages` flag.  Stage 1 is
    the formula stage 2 reads: patterns normalised, fixpoints not yet
    unfolded.  Stage 6 is the normal form `normalize` returns."""
    prepared, raw, aligned, minterms, power = _run_stages(f, d)
    return "\n\n".join((
        f"stage 1 (normalised patterns; fixpoints unfold on demand):\n{prepared}",
        f"stage 2 (equations):\n{raw.pretty()}",
        f"stage 3 (aligned binders):\n{aligned.pretty()}",
        f"stage 4 (condition products):\n{minterms.pretty()}",
        f"stage 5 (determinised):\n{power.pretty()}",
        f"stage 6 (rebuilt formula):\n{_renumber_binders(stage6_rebuild(power))}",
    ))
