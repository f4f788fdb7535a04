"""ACE-constrained shift and label assignment by iterative edge sweeps.

Both stages share one skeleton: collect the problematic base walks (those a
bad assignment could turn into short low-ACE lifted cycles) as a walk
table, start from a seeded random assignment, then repeatedly scan the
edges and give each edge the candidate value that minimizes the number of
still-violating walks.
The shift stage works on cyclic shifts in [0, Z-1]; the label stage works
on exponents in [0, q-2] with the full-rank cancellation condition deciding
violations.  Restarts redraw the initial assignment (and the edge order,
under the shuffled policy).

A walk's label sum, its total shift and the shift difference between any
two of its visits to one base node are linear functionals of the per-edge
values, so a tracker moves them through an edge by coefficient times
change, for all candidate values at once.  Cycle order and realizability
follow from the moved values by the lifting module's rules.

Every stage reads the protograph's one walk table (``lift.walk_table``).
Success is never taken from internal bookkeeping alone: a reported success
re-verifies the achieved spectrum through the lifting module and carries it
as ``OptimizeResult.achieved``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gf import Field
from .lift import (  # lift_cycle, lift_is_minimal: traced by perfbench/spans.py
    AceConstraint,
    AceSpectrum,
    QcCode,
    binary_ace_spectrum,
    check_lifting_order,
    lift_cycle,
    lift_is_minimal,
    lift_shifts,
    lift_walks,
    lifts_minimal,
    nb_ace_spectrum,
    realized_lifts,
    walk_table,
)
# enumerate_closed_walks: traced by perfbench/spans.py
from .protograph import Protograph, WalkTable, enumerate_closed_walks


@dataclass
class OptimizerConfig:
    rng_seed: int
    max_sweeps: int = 50
    max_restarts: int = 20
    edge_order_policy: str = "shuffled"

    def __post_init__(self):
        if self.rng_seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_sweeps < 1 or self.max_restarts < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.edge_order_policy not in ("fixed", "shuffled"):
            raise ValueError("edge_order_policy must be 'fixed' or 'shuffled'")


@dataclass
class ProblemSet:
    """Problematic walks as a walk table."""

    cycles: WalkTable


@dataclass
class OptimizeResult:
    success: bool
    assignment: dict[int, int]
    residual: int
    sweeps_used: int
    restarts_used: int
    worst_cycle: dict | None
    achieved: AceSpectrum | None = None  # a success's re-verified spectrum

    def to_json_dict(self) -> dict:
        return {
            "success": self.success,
            "residual": self.residual,
            "sweeps_used": self.sweeps_used,
            "restarts_used": self.restarts_used,
            "worst_cycle": self.worst_cycle,
        }


def _violates(lifted_len, lifted_ace, constraint: AceConstraint) -> np.ndarray:
    """Lifted lengths within the constraint depth with ACE below it there.

    Lifted length 2 violates under every constraint: it is the order-1
    lift of two parallel edges with equal shifts, which collide.
    """
    depth = constraint.depth
    thr = np.full(depth // 2 + 1, -1.0)
    for ll in constraint.lengths():
        thr[ll // 2] = constraint.values[ll]
    ok = lifted_len <= depth
    return ok & ((lifted_ace < thr[np.minimum(lifted_len, depth) // 2])
                 | (lifted_len == 2))


def _divisors(Z: int) -> np.ndarray:
    """The divisors of Z in increasing order: the reachable cycle orders."""
    small = [k for k in range(1, math.isqrt(Z) + 1) if Z % k == 0]
    return np.array(sorted(set(small + [Z // k for k in small])))


def _order_violations(table: WalkTable, orders: np.ndarray,
                      constraint: AceConstraint) -> np.ndarray:
    """(walks, orders): a lift of that cycle order violates the constraint."""
    return np.stack([_violates(table.length * o, table.ace * o, constraint)
                     for o in orders], axis=1)


def find_problematic_binary(
    proto: Protograph,
    Z: int,
    constraint: AceConstraint,
) -> ProblemSet:
    """Base walks that some shift assignment could turn into violations.

    A walk of length l is problematic when a divisor O of Z (every divisor
    is a reachable cycle order) gives a lifted length l*O within the
    constraint depth with lifted ACE below the constraint there.  All other
    walks satisfy the constraint under every assignment.
    """
    check_lifting_order(Z)
    table = walk_table(proto, constraint.depth)
    return ProblemSet(table.subset(
        _order_violations(table, _divisors(Z), constraint).any(axis=1)))


def _incidence(table: WalkTable, depends: np.ndarray):
    """Edge -> (functional ids, coefficients, walk count, pair owners).

    Functional f is walk f's total, then len(table) + k is pair k, for as
    many rows as ``depends`` marks.  Per edge the walks come first, and a
    pair's owner is its walk's index among them.
    """
    owner = np.concatenate([np.arange(len(table)), table.pair_walk])
    f, pos = np.nonzero(depends)
    edges = table.rows[owner[f], pos]
    coefs = np.concatenate([table.coef, table.pair_coef])[f, pos].astype(np.int64)
    by_edge = {}
    for e in np.flatnonzero(np.bincount(edges)):
        ids = f[edges == e]
        walks = int(np.searchsorted(ids, len(table)))
        by_edge[int(e)] = (ids, coefs[edges == e], walks,
                           np.searchsorted(ids[:walks], owner[ids[walks:]]))
    return by_edge


class _Tracker:
    """Incremental violation counting over linear functionals of the values.

    Functional f carries ``cur[f]`` modulo ``mod[f]``; moving edge e by delta
    moves it by its coefficient on e times delta.  The first functionals
    belong one to each walk; ``by_edge[e]`` (see ``_incidence``) holds those
    that edge e can move.  Subclasses set the functionals in ``reset`` and
    say in ``_violates`` which walks violate.
    """

    n_permanent = 0

    def __init__(self, table: WalkTable, mod: np.ndarray, depends: np.ndarray,
                 n_values: int):
        self.table = table
        self.n = len(table)
        self.mod = mod
        self.n_values = n_values
        self.by_edge = _incidence(table, depends)
        self.total = 0

    def _violates(self, hit, cur) -> np.ndarray:
        raise NotImplementedError

    def eval_edge(self, e: int) -> tuple[int, np.ndarray] | None:
        """Violation count among affected walks, per candidate value."""
        hit = self.by_edge.get(e)
        if hit is None:
            return None
        ids, coefs, _, _ = hit
        x = int(self.values[e])
        delta = np.arange(self.n_values) - x
        cur = (self.cur[ids, None] + coefs[:, None] * delta) % self.mod[ids, None]
        return x, self._violates(hit, cur).sum(axis=0)

    def apply(self, e: int, y: int) -> None:
        x = int(self.values[e])
        if y == x:
            return
        self.values[e] = y
        if e not in self.by_edge:
            return
        ids, coefs, walks, _ = hit = self.by_edge[e]
        cur = (self.cur[ids] + coefs * (y - x)) % self.mod[ids]
        self.cur[ids] = cur
        new_viol = self._violates(hit, cur[:, None])[:, 0]
        self.total += int(new_viol.sum()) - int(self.violated[ids[:walks]].sum())
        self.violated[ids[:walks]] = new_viol

    def worst_violated(self) -> dict | None:
        if self.total == 0:
            return None
        t = self.table
        ids = np.flatnonzero(self.violated)
        # the shortest, then the least ACE, then the least edge sequence
        i = ids[np.lexsort(np.vstack([t.rows[ids].T[::-1], t.ace[ids],
                                      t.length[ids]]))[0]]
        return {"length": int(t.length[i]), "ace": int(t.ace[i]),
                "total_shift": int(self.total_shift[i])}


class _ShiftTracker(_Tracker):
    """Shift stage: the functionals are total shifts and pair values mod Z.

    A walk violates when its cycle order (one order-table column per
    divisor of Z) puts the lift within the constraint with too little ACE
    and its pair values say the lift is realized.  An edge that moves a
    walk's total or any of its pairs moves all of them.
    """

    def __init__(self, table: WalkTable, Z: int, constraint: AceConstraint):
        depends = table.coef != 0
        np.logical_or.at(depends, table.pair_walk, table.pair_coef != 0)
        super().__init__(table, np.full(len(table) + len(table.pair_walk), Z),
                         np.concatenate([depends, depends[table.pair_walk]]), Z)
        self.Z = Z
        self.divisors = _divisors(Z)  # gcd(Z, d) of order-table column k
        self.column = np.searchsorted(self.divisors, np.gcd(np.arange(Z), Z))
        self.viol_by_order = _order_violations(table, Z // self.divisors, constraint)

    def reset(self, shifts: np.ndarray) -> None:
        self.values = shifts
        d, realized, pairs = lift_shifts(self.table, shifts, self.Z)
        self.cur = np.concatenate([d, pairs])
        self.total_shift = self.cur[:self.n]  # a view: apply moves both
        self.violated = self.viol_by_order[np.arange(self.n), self.column[d]] & realized
        self.total = int(self.violated.sum())

    def _violates(self, hit, cur) -> np.ndarray:
        ids, _, walks, owner = hit
        column = self.column[cur[:walks]]
        return (self.viol_by_order[ids[:walks, None], column]
                & realized_lifts(self.divisors[column], owner, cur[walks:]))


class _LabelTracker(_Tracker):
    """Label stage: the functional is the alternating label-exponent sum.

    Shifts are frozen, so the problematic walks are those whose realized
    lifts fall within the constraint with too little ACE.  A problematic
    lift of order O stays uncanceled (violates) while the sum is 0 modulo
    (q-1)/gcd(q-1, O).  Lifts with chorded supports (or a modulus of 1, as
    over GF(2)) can never be canceled and count as permanent violations.
    """

    def __init__(self, code: QcCode, table: WalkTable,
                 constraint: AceConstraint):
        table = table.upto(constraint.depth)
        d, order, realized = lift_walks(table, code)
        problem = realized & _violates(table.length * order,
                                       table.ace * order, constraint)
        ids = np.flatnonzero(problem)
        q = code.field.q
        m = (q - 1) // np.gcd(q - 1, order[ids])
        cancelable = lifts_minimal(table, code, ids, d) & (m > 1)
        table = table.subset(problem)
        super().__init__(table, np.where(cancelable, m, 1),
                         (table.coef != 0) & cancelable[:, None], q - 1)
        self.n_permanent = int((~cancelable).sum())
        self.total_shift = d[ids]

    def reset(self, labels: np.ndarray) -> None:
        self.values = labels
        self.cur = self.table.totals(labels) % self.mod
        self.violated = self.cur == 0
        self.total = int(self.violated.sum())

    def _violates(self, hit, cur) -> np.ndarray:
        return cur == 0


def _sweep(tracker, order: np.ndarray, max_sweeps: int,
           history: list | None) -> int:
    """Edge sweeps until clean, converged, or the sweep cap; returns sweeps."""
    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        changed = False
        for e in order:
            e = int(e)
            ev = tracker.eval_edge(e)
            if ev is not None:
                x, counts = ev
                best_y = int(np.argmin(counts))  # argmin takes the smallest tie
                if best_y != x:
                    tracker.apply(e, best_y)
                    changed = True
            if history is not None:
                history.append(tracker.total)
        if tracker.total == 0 or not changed:
            break
    return sweeps


def _optimize(tracker: _Tracker, n_edges: int, cfg: OptimizerConfig,
              history: list | None) -> OptimizeResult:
    """Seeded restarts of edge sweeps, shared by both stages.

    Each restart draws the initial values, then the edge order.  With
    permanent violations no assignment can succeed, so a single restart
    produces the best-effort failure report.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    restarts = 1 if tracker.n_permanent > 0 else cfg.max_restarts
    best: tuple[int, np.ndarray, dict | None] | None = None
    sweeps_total = 0
    for restart in range(1, restarts + 1):
        values = rng.integers(0, tracker.n_values, size=n_edges, dtype=np.int64)
        order = (
            rng.permutation(n_edges)
            if cfg.edge_order_policy == "shuffled"
            else np.arange(n_edges)
        )
        tracker.reset(values)  # the tracker moves ``values`` in place
        if tracker.total > 0 and tracker.n_permanent < tracker.n:
            sweeps_total += _sweep(tracker, order, cfg.max_sweeps, history)
        if tracker.total == 0:
            return OptimizeResult(
                success=True,
                assignment={e: int(values[e]) for e in range(n_edges)},
                residual=0,
                sweeps_used=sweeps_total,
                restarts_used=restart,
                worst_cycle=None,
            )
        if best is None or tracker.total < best[0]:
            best = (tracker.total, values.copy(), tracker.worst_violated())
    residual, values, worst = best
    return OptimizeResult(
        success=False,
        assignment={e: int(values[e]) for e in range(n_edges)},
        residual=residual,
        sweeps_used=sweeps_total,
        restarts_used=restarts,
        worst_cycle=worst,
    )


def _verify(result: OptimizeResult, kind: str, spectrum, code: QcCode,
            constraint: AceConstraint) -> None:
    """Recompute a success's spectrum; it must achieve the constraint."""
    result.achieved = spectrum(code, constraint.depth)
    if not result.achieved.achieves(constraint):
        raise RuntimeError(
            f"internal bookkeeping error: reported success but {kind} spectrum "
            f"{result.achieved.format()} misses {constraint.format()}"
        )


def assign_shifts(
    proto: Protograph,
    Z: int,
    constraint: AceConstraint,
    cfg: OptimizerConfig,
    history: list | None = None,
) -> OptimizeResult:
    """Search shifts whose lifted binary spectrum meets the constraint."""
    problem = find_problematic_binary(proto, Z, constraint)
    result = _optimize(_ShiftTracker(problem.cycles, Z, constraint),
                       proto.n_edges, cfg, history)
    if result.success:
        _verify(result, "binary", binary_ace_spectrum,
                QcCode(proto, Z, Field(1), result.assignment), constraint)
    return result


def assign_labels(
    code: QcCode,
    constraint_nb: AceConstraint,
    cfg: OptimizerConfig,
    history: list | None = None,
) -> OptimizeResult:
    """Search label exponents whose NB spectrum meets the constraint.

    Shifts are frozen; the problematic set is fixed by the lift and only
    cancellation statuses move.  If any problematic cycle is outside the
    cancellation hypothesis (chorded lift support) the search cannot
    succeed and a single best-effort restart produces the failure report.
    """
    table = walk_table(code.proto, constraint_nb.depth)
    result = _optimize(_LabelTracker(code, table, constraint_nb),
                       code.proto.n_edges, cfg, history)
    if result.success:
        _verify(result, "NB", nb_ace_spectrum,
                code.with_labels(result.assignment), constraint_nb)
    return result


@dataclass
class SearchCandidate:
    binary: AceConstraint
    nb: AceConstraint
    code: QcCode


@dataclass
class SearchResult:
    best: SearchCandidate
    candidates: list[SearchCandidate]


def _smallest_finite(spec: AceConstraint) -> int | None:
    for i in spec.lengths():
        if spec.values[i] != math.inf:
            return i
    return None


def _bump(spec: AceConstraint, length: int) -> AceConstraint:
    vals = dict(spec.values)
    vals[length] = vals[length] + 1
    return AceConstraint(spec.depth, vals)


def _raise_to(nb: AceConstraint, b: AceConstraint) -> AceConstraint:
    vals = dict(nb.values)
    for i in b.lengths():
        if i in vals:
            vals[i] = max(vals[i], b.values[i])
    return AceConstraint(nb.depth, vals)


def spectrum_search(
    proto: Protograph,
    Z: int,
    field: Field,
    cfg: OptimizerConfig,
    max_depth: int,
    lambda_mult: int | None = None,
    max_rounds: int = 200,
) -> SearchResult:
    """Greedy search for good achievable constraint pairs.

    Starts from the spectra of an unconstrained (random) construction, then
    repeatedly tries to raise the smallest finite component of the NB or
    binary constraint by one, or to extend the depth by two, keeping each
    amendment that still constructs.  Every adopted candidate is recorded
    and the Pareto-incomparable set is returned alongside the final one.
    """
    if max_depth < 2 or max_depth % 2:
        raise ValueError("max_depth must be even and >= 2")
    # parallel edges need distinct shifts; with that, the unconstrained
    # attempt succeeds in its first sweep
    most = max(max(row) for row in proto.base_matrix())
    if most > Z:
        raise ValueError(f"a base cell holds {most} parallel edges, "
                         f"more than the Z={Z} distinct shifts")
    walk_table(proto, max_depth)  # one enumeration for every attempt
    depth = min(4, max_depth)

    attempt_idx = 0

    def attempt(tb: AceConstraint, tnb: AceConstraint) -> SearchCandidate | None:
        nonlocal attempt_idx
        attempt_idx += 1
        sub = replace(cfg, rng_seed=(cfg.rng_seed * 1_000_003 + attempt_idx)
                      % (1 << 63))
        rs = assign_shifts(proto, Z, tb, sub)
        if not rs.success:
            return None
        code = QcCode(proto, Z, field, rs.assignment, None, lambda_mult)
        rl = assign_labels(code, tnb, sub)
        if not rl.success:
            return None
        return SearchCandidate(rs.achieved, rl.achieved,
                               code.with_labels(rl.assignment))

    current = attempt(AceConstraint.all_zero(depth), AceConstraint.all_zero(depth))
    if current is None:
        raise RuntimeError("unconstrained construction cannot fail")
    candidates = [current]

    for _ in range(max_rounds):
        adopted = None
        target = _smallest_finite(current.nb)
        if target is not None:
            adopted = attempt(current.binary, _bump(current.nb, target))
        if adopted is None:
            target = _smallest_finite(current.binary)
            if target is not None:
                tb = _bump(current.binary, target)
                adopted = attempt(tb, _raise_to(current.nb, tb))
        if adopted is None and current.binary.depth + 2 <= max_depth:
            new_depth = current.binary.depth + 2
            adopted = SearchCandidate(
                binary_ace_spectrum(current.code, new_depth),
                nb_ace_spectrum(current.code, new_depth),
                current.code,
            )
        if adopted is None:
            break
        current = adopted
        candidates.append(adopted)

    def strictly_dominates(a: SearchCandidate, b: SearchCandidate) -> bool:
        if not (a.binary.dominates(b.binary) and a.nb.dominates(b.nb)):
            return False
        return not (b.binary.dominates(a.binary) and b.nb.dominates(a.nb))

    pareto: list[SearchCandidate] = []
    for cand in candidates:
        if any(strictly_dominates(other, cand) for other in candidates):
            continue
        if any(p.binary == cand.binary and p.nb == cand.nb for p in pareto):
            continue
        pareto.append(cand)
    return SearchResult(best=current, candidates=pareto)
