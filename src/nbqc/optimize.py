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

Each walk carries one linear functional of the per-edge values, its total
shift or its alternating label sum, so a tracker moves every walk through
an edge by coefficient times change, for all candidate values at once.
The shift tracker re-lifts only walks that revisit a node, and only for
candidates whose cycle order already violates.

Success is never taken from internal bookkeeping alone: a reported success
re-verifies the achieved spectrum through the lifting module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gf import Field
from .lift import (  # lift_cycle, lift_is_minimal: traced by perfbench/spans.py
    AceConstraint,
    QcCode,
    WalkTable,
    binary_ace_spectrum,
    lift_cycle,
    lift_is_minimal,
    lift_walks,
    lifts_minimal,
    nb_ace_spectrum,
    walk_table,
)
from .protograph import CycleRecord, Protograph, enumerate_closed_walks


@dataclass
class OptimizerConfig:
    rng_seed: int
    max_sweeps: int = 50
    max_restarts: int = 20
    edge_order_policy: str = "shuffled"

    def __post_init__(self):
        if self.max_sweeps < 1 or self.max_restarts < 1:
            raise ValueError("iteration caps must be >= 1")
        if self.edge_order_policy not in ("fixed", "shuffled"):
            raise ValueError("edge_order_policy must be 'fixed' or 'shuffled'")


@dataclass
class ProblemSet:
    """Problematic walks as a compiled walk table."""

    table: WalkTable

    @property
    def cycles(self) -> list[CycleRecord]:
        return self.table.records


@dataclass
class OptimizeResult:
    success: bool
    assignment: dict[int, int]
    residual: int
    sweeps_used: int
    restarts_used: int
    worst_cycle: dict | None

    def to_json_dict(self) -> dict:
        return {
            "success": self.success,
            "residual": self.residual,
            "sweeps_used": self.sweeps_used,
            "restarts_used": self.restarts_used,
            "worst_cycle": self.worst_cycle,
        }


def _violates(lifted_len, lifted_ace, constraint: AceConstraint) -> np.ndarray:
    """Lifted lengths within the constraint depth with ACE below it there."""
    depth = constraint.depth
    thr = np.full(depth // 2 + 1, -1.0)
    for ll in constraint.lengths():
        thr[ll // 2] = constraint.values[ll]
    ok = lifted_len <= depth
    return ok & (lifted_ace < thr[np.minimum(lifted_len, depth) // 2])


def _order_violations(table: WalkTable, orders: np.ndarray,
                      constraint: AceConstraint) -> np.ndarray:
    """(walks, orders): a lift of that cycle order violates the constraint."""
    unique = sorted(set(orders.tolist()))
    return np.stack([_violates(table.length * o, table.ace * o, constraint)
                     for o in unique], axis=1)[:, np.searchsorted(unique, orders)]


def find_problematic_binary(
    proto: Protograph,
    Z: int,
    constraint: AceConstraint,
    walks=None,
) -> ProblemSet:
    """Base walks that some shift assignment could turn into violations.

    A walk of length l is problematic when a divisor O of Z (every divisor
    is a reachable cycle order) gives a lifted length l*O within the
    constraint depth with lifted ACE below the constraint there.  All other
    walks satisfy the constraint under every assignment.
    """
    table = walk_table(proto, constraint.depth, walks)
    divisors = np.array([o for o in range(1, Z + 1) if Z % o == 0])
    return ProblemSet(table.subset(
        _order_violations(table, divisors, constraint).any(axis=1)))


def _incidence(table: WalkTable, depends: np.ndarray):
    """Edge -> (walk ids, coefficients) over the marked first positions."""
    walk, pos = np.nonzero(depends)
    edges, coefs = table.rows[walk, pos], table.coef[walk, pos].astype(np.int64)
    return {int(e): (walk[edges == e], coefs[edges == e])
            for e in np.flatnonzero(np.bincount(edges))}


class _Tracker:
    """Incremental violation counting over one linear functional per walk.

    Walk i carries ``cur[i]``, its functional of the per-edge values modulo
    ``mod[i]``; moving edge e by delta moves it by coef[i, e] * delta.
    ``by_edge[e]`` holds the walks whose violation can depend on edge e.
    Subclasses set the functional in ``reset`` and say in ``_violates``
    when a walk violates.
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

    def _violates(self, ids, cur, e, cand) -> np.ndarray:
        raise NotImplementedError

    def eval_edge(self, e: int) -> tuple[int, np.ndarray] | None:
        """Violation count among affected walks, per candidate value."""
        hit = self.by_edge.get(e)
        if hit is None:
            return None
        ids, coefs = hit
        x = int(self.values[e])
        cand = np.arange(self.n_values)
        cur = (self.cur[ids, None] + coefs[:, None] * (cand - x)) % self.mod[ids, None]
        return x, self._violates(ids, cur, e, cand).sum(axis=0)

    def apply(self, e: int, y: int) -> None:
        x = int(self.values[e])
        if y == x:
            return
        self.values[e] = y
        if e not in self.by_edge:
            return
        ids, coefs = self.by_edge[e]
        cur = (self.cur[ids] + coefs * (y - x)) % self.mod[ids]
        self.cur[ids] = cur
        new_viol = self._violates(ids, cur[:, None], e, np.array([y]))[:, 0]
        self.total += int(new_viol.sum()) - int(self.violated[ids].sum())
        self.violated[ids] = new_viol

    def worst_violated(self) -> dict | None:
        if self.total == 0:
            return None
        recs = self.table.records
        i = min(np.flatnonzero(self.violated).tolist(),
                key=lambda i: (recs[i].length, recs[i].ace, recs[i].edge_seq))
        return {"length": recs[i].length, "ace": recs[i].ace,
                "total_shift": int(self.total_shift[i])}


class _ShiftTracker(_Tracker):
    """Shift stage: the functional is the total shift modulo Z.

    A walk violates when its cycle order puts the lift within the
    constraint with too little ACE and the lift is realized.  Total shifts
    move incrementally; only walks that revisit a node are re-lifted, and
    only for candidates whose order already violates.
    """

    def __init__(self, table: WalkTable, Z: int, constraint: AceConstraint):
        depends, self.revisits = table.shift_dependence()
        super().__init__(table, np.full(len(table), Z), depends, Z)
        self.Z = Z
        self.viol_by_d = _order_violations(table, Z // np.gcd(np.arange(Z), Z),
                                           constraint)

    def reset(self, shifts: np.ndarray) -> None:
        self.values = shifts
        d, realized = self.table.lift(shifts, self.Z)
        self.cur = self.total_shift = d  # one array: apply moves both
        self.violated = self.viol_by_d[np.arange(self.n), d] & realized
        self.total = int(self.violated.sum())

    def _violates(self, ids, d, e, cand) -> np.ndarray:
        viol = self.viol_by_d[ids[:, None], d]
        w, j = np.nonzero(viol & self.revisits[ids, None])
        if w.size:
            rows = self.table.rows[ids[w]]
            shifts = np.where(rows == e, cand[j, None],
                              np.append(self.values, 0)[rows])
            viol[w, j] = self.table.lift_rows(rows, shifts, self.Z)[1]
        return viol


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

    def _violates(self, ids, cur, e, cand) -> np.ndarray:
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


def _check_success(kind: str, achieved: AceConstraint,
                   constraint: AceConstraint) -> None:
    if not achieved.achieves(constraint):
        raise RuntimeError(
            f"internal bookkeeping error: reported success but {kind} "
            f"spectrum {achieved.format()} misses {constraint.format()}"
        )


def assign_shifts(
    proto: Protograph,
    Z: int,
    constraint: AceConstraint,
    cfg: OptimizerConfig,
    walks=None,
    history: list | None = None,
) -> OptimizeResult:
    """Search shift assignments whose lifted binary spectrum meets the constraint.

    ``walks`` is a record list or a :class:`WalkTable`; walks longer than
    the constraint depth are ignored, and None enumerates them.
    """
    table = walk_table(proto, constraint.depth, walks)
    problem = find_problematic_binary(proto, Z, constraint, table)
    result = _optimize(_ShiftTracker(problem.table, Z, constraint),
                       proto.n_edges, cfg, history)
    if result.success:
        code = QcCode(proto, Z, Field(1), result.assignment)
        _check_success("binary", binary_ace_spectrum(
            code, constraint.depth, walks=table), constraint)
    return result


def assign_labels(
    code: QcCode,
    constraint_nb: AceConstraint,
    cfg: OptimizerConfig,
    walks=None,
    history: list | None = None,
) -> OptimizeResult:
    """Search label exponents whose NB spectrum meets the constraint.

    Shifts are frozen; the problematic set is fixed by the lift and only
    cancellation statuses move.  If any problematic cycle is outside the
    cancellation hypothesis (chorded lift support) the search cannot
    succeed and a single best-effort restart produces the failure report.
    """
    table = walk_table(code.proto, constraint_nb.depth, walks)
    result = _optimize(_LabelTracker(code, table, constraint_nb),
                       code.proto.n_edges, cfg, history)
    if result.success:
        _check_success("NB", nb_ace_spectrum(
            code.with_labels(result.assignment), constraint_nb.depth,
            walks=table), constraint_nb)
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
    walks = WalkTable(proto, enumerate_closed_walks(proto, max_depth))
    depth = min(4, max_depth)

    attempt_idx = 0

    def attempt(tb: AceConstraint, tnb: AceConstraint) -> SearchCandidate | None:
        nonlocal attempt_idx
        attempt_idx += 1
        sub = replace(cfg, rng_seed=(cfg.rng_seed * 1_000_003 + attempt_idx)
                      % (1 << 63))
        rs = assign_shifts(proto, Z, tb, sub, walks=walks)
        if not rs.success:
            return None
        code = QcCode(proto, Z, field, rs.assignment, None, lambda_mult)
        rl = assign_labels(code, tnb, sub, walks=walks)
        if not rl.success:
            return None
        code = code.with_labels(rl.assignment)
        achieved_b = binary_ace_spectrum(code, tb.depth, walks=walks)
        achieved_nb = nb_ace_spectrum(code, tnb.depth, walks=walks)
        return SearchCandidate(achieved_b, achieved_nb, code)

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
                binary_ace_spectrum(current.code, new_depth, walks=walks),
                nb_ace_spectrum(current.code, new_depth, walks=walks),
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
