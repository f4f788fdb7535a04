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
change, for all candidate values at once.  Each tracker reads those
coefficients off the rows of its own walks when it is built, and starts
each functional as the same coefficients times the edges' values, so the
rows are the one source of every value a tracker holds.  Cycle order and
realizability follow from those values by the lifting module's rules.

The trackers keep their candidate verdicts between sweep steps, as local
search keeps the make and break counts of its candidate moves (WalkSAT;
Selman, Kautz and Cohen 1994).  A row per walk and edge that moves it
holds whether the walk violates at each candidate value of that edge.  A
sweep step sums the edge's rows into counts, which are not kept, and takes
their argmin; a move re-evaluates only the rows that the moved walks have
on other edges.  Both stages judge a walk by one rule, a lookup at the gcd
of the number of values and the walk's total.

Every stage reads the protograph's one walk table (``lift.walk_table``);
the label stage reads the lift of its head under the frozen shifts
(``lift.lift_walks``), which the spectra re-verifying either stage share.
:func:`construct` runs the two stages in order, and :func:`spectrum_search`
runs it once per attempt.
Success is never taken from internal bookkeeping alone: a reported success
re-verifies the achieved spectrum through the lifting module and carries it
as ``OptimizeResult.achieved``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .gf import MAX_Z, Field, checked_depth, checked_int
from .lift import (  # lift_cycle, lift_is_minimal: traced by perfbench/spans.py
    AceConstraint,
    AceSpectrum,
    QcCode,
    binary_ace_spectrum,
    lift_cycle,
    lift_is_minimal,
    lift_walks,
    lifts_minimal,
    nb_ace_spectrum,
    realized_lifts,
    walk_table,
)
# enumerate_closed_walks: traced by perfbench/spans.py
from .protograph import (Protograph, WalkTable, _ranges, enumerate_closed_walks,
                         signed_sums, span_sums)


@dataclass
class OptimizerConfig:
    rng_seed: int
    max_sweeps: int = 50
    max_restarts: int = 20
    edge_order_policy: str = "shuffled"

    def __post_init__(self):
        checked_int(self.rng_seed, "seed", 0)
        checked_int(self.max_sweeps, "max_sweeps", 1)
        checked_int(self.max_restarts, "max_restarts", 1)
        if self.edge_order_policy not in ("fixed", "shuffled"):
            raise ValueError("edge_order_policy must be 'fixed' or 'shuffled'")


# ProblemSet: traced by perfbench/spans.py, whose extractor reads .cycles
@dataclass
class ProblemSet:
    """Problematic walks as a walk table."""

    cycles: WalkTable


@dataclass
class OptimizeResult:
    """A stage's best restart; ``assignment`` is its int64 values by edge id."""

    success: bool
    assignment: np.ndarray
    residual: int
    sweeps_used: int
    restarts_used: int
    worst_cycle: dict | None
    achieved: AceSpectrum | None = None  # a success's re-verified spectrum
    # problematic walks no assignment fixes; not part of the JSON report
    n_permanent: int = 0

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
    checked_int(Z, "lifting order Z", 1, MAX_Z)
    table = walk_table(proto, constraint.depth)
    problem = np.zeros(len(table), bool)
    for o in _divisors(Z).tolist():  # one cycle order at a time
        problem |= _violates(table.length * o, table.ace * o, constraint)
    return ProblemSet(table.subset(problem))


# rows times candidate values per evaluation step; bounds the temporaries
_BLOCK = 1 << 14


def _edge_counts(table: WalkTable):
    """Each edge on each walk, in (edge, walk) order: the walk, the edge
    and its signed count over the walk's positions before p, for every p
    up to the row width (``signed_sums``, whose last row counts the whole
    walk), which are the walk's prefix sums of the edge's one-hot values."""
    n, width = table.rows.shape
    walk, pos = np.nonzero(np.arange(width) < table.length[:, None])
    edge = table.rows[walk, pos]
    # return_index also keeps numpy.ma (1.4 MiB of RSS) from being imported
    _, first = np.unique(edge.astype(np.int64) * n + walk, return_index=True)
    walk, edge = walk[first], edge[first]
    return walk, edge, signed_sums(table.rows[walk] == edge[:, None], np.int16)


class _Tracker:
    """Candidate verdicts over linear functionals of the values, mod V.

    Functional f carries ``cur[f]`` modulo the number of values V: walk
    f's total for f < n, then, with ``pairs``, the walks' pair values.
    Moving an edge by delta moves a functional by its coefficient on the
    edge times delta: the edge's signed count over the walk, or over the
    positions between the pair's two visits.

    One verdict rule serves both stages.  ``bad[w, k]`` says whether walk
    w violates while gcd(V, its total) is ``divisors[k]``; with ``pairs``
    a flagged walk violates only when its pair values also say the lift is
    realized (``lift.realized_lifts`` at that gcd).

    A row joins a walk to an edge that moves it; rows are kept edge by
    edge, each as (walk, edge, coefficient, ring row, term count, first
    term).  With ``pairs`` a row's terms (functional, coefficient, ring
    row) are the pair values of its walk.  A row is kept when its edge
    moves the walk's total or a term, and its walk is ``live`` (all walks
    are by default).  Ring row k holds coefficient k's multiples modulo V,
    so a functional at every candidate value of the edge is one take plus
    a column, in [0, 2V).

    ``viol[r, v]`` is the one memo: whether row r's walk violates with the
    row's edge at value v and every other edge as it is.  A sweep step sums
    edge e's rows into its count row.  Moving edge e leaves e's own rows
    valid; only the rows its walks have on other edges are evaluated
    again.

    ``counts`` is ``_edge_counts(table)``, for a caller that has it.

    ``reset`` starts each functional as the sum of its rows' (or terms')
    coefficients times the values of their edges, the rule a move applies
    to a change, and fills ``viol`` for those values.  A walk without rows
    keeps 0: no edge moves it, or it is not ``live`` and no verdict reads
    its value.
    """

    n_permanent = 0

    def __init__(self, table: WalkTable, n_values: int, bad: np.ndarray,
                 pairs: bool, live=None, counts=None):
        self.table = table
        self.n = n = len(table)
        self.n_values = V = n_values
        self.total = 0
        self.divisors = _divisors(V)
        # the divisor column of gcd(V, s), for s in [0, 2V)
        self.column = np.tile(np.searchsorted(self.divisors,
                                              np.gcd(np.arange(V), V)), 2)
        self.bad = bad
        self.pair_walk = table.pair_walk if pairs else table.pair_walk[:0]
        walk, edge, counted = _edge_counts(table) if counts is None else counts
        factor = counted[-1]
        n_pairs = np.bincount(self.pair_walk, minlength=n)
        per_row = n_pairs[walk]
        pair = _ranges((np.cumsum(n_pairs) - n_pairs)[walk], per_row)
        owner = np.repeat(np.arange(len(walk)), per_row)
        term_factor = span_sums(counted, owner, table.p1.take(pair),
                                table.p2.take(pair))
        moves = factor != 0
        np.logical_or.at(moves, owner, term_factor != 0)
        if live is not None:
            moves &= live[walk]
        walk, edge, factor, per_row = (a[moves] for a in
                                       (walk, edge, factor, per_row))
        pair, term_factor = pair[moves[owner]], term_factor[moves[owner]]
        factors, ring = np.unique(np.concatenate([factor, term_factor]),
                                  return_inverse=True)
        self.ring = factors[:, None].astype(np.intp) * np.arange(V) % V
        self.rows = np.stack([walk, edge, factor, ring[:len(walk)], per_row,
                              np.cumsum(per_row) - per_row], axis=1)
        self.terms = np.stack([n + pair, term_factor, ring[len(walk):]], axis=1)
        n_edges = int(edge.max()) + 1 if len(edge) else 0
        # the row of each walk on each edge, -1 where the edge does not move it
        self.row_of = np.full((n, n_edges), -1, np.int32)
        self.row_of[walk, edge] = np.arange(len(walk))
        # per edge: its rows and their terms
        ptr = np.searchsorted(edge, np.arange(n_edges + 1))
        term_ptr = np.append(self.rows[:, 5], len(pair))[ptr].tolist()
        ptr = ptr.tolist()
        self.spans = [(ptr[e], ptr[e + 1], term_ptr[e], term_ptr[e + 1])
                      if ptr[e] < ptr[e + 1] else None for e in range(n_edges)]
        self.cur = np.zeros(n + len(self.pair_walk), np.int64)

    def reset(self, values: np.ndarray) -> None:
        """Start from ``values``, which the tracker then moves in place."""
        self.values = values
        walk, edge, factor, _, per, _ = self.rows.T
        self.cur.fill(0)
        # add.at sums repeated functionals exactly, in int64
        np.add.at(self.cur, walk, factor * values.take(edge))
        np.add.at(self.cur, self.terms[:, 0],
                  self.terms[:, 1] * values.take(np.repeat(edge, per)))
        self.cur %= self.n_values
        n = self.n
        column = self.column[self.cur[:n]]
        self.violated = (self.bad[np.arange(n), column]
                         & realized_lifts(self.divisors[column],
                                          self.pair_walk, self.cur[n:]))
        self.total = int(self.violated.sum())
        self.viol = np.empty((len(self.rows), self.n_values), bool)
        for b in self._blocks(len(self.rows)):
            self.viol[b] = self._evaluate(self.rows[b])

    def _evaluate(self, rows: np.ndarray) -> np.ndarray:
        """(rows, values): whether each row's walk violates with the row's
        edge moved from its value x to each candidate value."""
        walk, edge, factor, ring, per, first = rows.T
        V = self.n_values
        x = self.values[edge]
        # the walk's total at each candidate value, in [0, 2V)
        total = self.ring.take(ring, axis=0)
        total += ((self.cur[walk] - factor * x) % V)[:, None]
        column = self.column.take(total)
        viol = self.bad.take(column + (walk * len(self.divisors))[:, None])
        if not per.any():
            return viol
        # only the violating candidates need their pair values
        r, v = np.nonzero(viol & (per > 0)[:, None])
        owner = np.repeat(np.arange(len(r)), per[r])
        f, factor, ring = self.terms.take(_ranges(first[r], per[r]), axis=0).T
        pairs = ((self.cur[f] - factor * x[r[owner]]) % V
                 + self.ring[ring, v[owner]])
        viol[r, v] = realized_lifts(self.divisors.take(column[r, v]), owner,
                                    pairs)
        return viol

    def _blocks(self, n: int):
        """Slices of n rows, at most ``_BLOCK`` candidates at a time."""
        step = max(1, _BLOCK // self.n_values)
        return (slice(lo, lo + step) for lo in range(0, n, step))

    def _span(self, e: int):
        return self.spans[e] if e < len(self.spans) else None

    def eval_edge(self, e: int) -> tuple[int, np.ndarray] | None:
        """Violation count among the walks edge e moves, per candidate value."""
        span = self._span(e)
        if span is None:
            return None
        lo, hi = span[:2]
        # the ufunc itself: ndarray.sum adds a Python-level wrapper per call
        return int(self.values[e]), np.add.reduce(self.viol[lo:hi], 0, np.int32)

    def _move(self, f, factor, delta: int) -> None:
        self.cur[f] = (self.cur[f] + factor * delta) % self.n_values

    def apply(self, e: int, y: int) -> None:
        x = int(self.values[e])
        if y == x:
            return
        self.values[e] = y
        span = self._span(e)
        if span is None:
            return
        lo, hi, t0, t1 = span
        own = self.viol[lo:hi]
        self.total += (int(np.count_nonzero(own[:, y]))
                       - int(np.count_nonzero(own[:, x])))
        walks = self.rows[lo:hi, 0]
        self.violated[walks] = own[:, y]
        self._move(walks, self.rows[lo:hi, 2], y - x)
        if t1 > t0:
            self._move(self.terms[t0:t1, 0], self.terms[t0:t1, 1], y - x)
        # the rows these walks have on other edges
        others = self.row_of.take(walks, axis=0)
        others[:, e] = -1
        others = others[others >= 0]
        for b in self._blocks(len(others)):
            ids = others[b]
            self.viol[ids] = self._evaluate(self.rows.take(ids, axis=0))

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

    A walk violates when its cycle order Z / gcd(Z, total) puts the lift
    within the constraint with too little ACE and its pair values say the
    lift is realized.  An edge that moves a walk's total or any of its
    pairs moves all of them.
    """

    def __init__(self, table: WalkTable, Z: int, constraint: AceConstraint):
        super().__init__(table, Z, _order_violations(table, Z // _divisors(Z),
                                                     constraint), pairs=True)
        self.total_shift = self.cur[:self.n]  # a view: moves update both


class _LabelTracker(_Tracker):
    """Label stage: the functional is the alternating label-exponent sum.

    Shifts are frozen, so the problematic walks are those whose realized
    lifts fall within the constraint with too little ACE.  A problematic
    lift of order O stays uncanceled (violates) while m = (q-1)/gcd(q-1, O)
    divides the sum, that is, divides gcd(q-1, sum).  Two kinds of lift can
    never be canceled: one with a chorded support (or m = 1, as over
    GF(2)), and one where m divides every coefficient of the sum, and so
    the sum under every labeling.  Such a walk violates at every gcd and
    counts as a permanent violation.  It keeps no rows, so its sum stays
    0, which no verdict reads: its ``bad`` row is all True.
    """

    def __init__(self, code: QcCode, constraint: AceConstraint):
        table, d, order, realized = lift_walks(code, constraint.depth)
        problem = realized & _violates(table.length * order,
                                       table.ace * order, constraint)
        ids = np.flatnonzero(problem)
        q = code.field.q
        m = (q - 1) // np.gcd(q - 1, order[ids])
        walks = table.subset(problem)
        walk, _, counted = counts = _edge_counts(walks)
        # gcd(q-1, every coefficient of each walk's sum), in the
        # coefficients' dtype: a gcd.at that casts is five times slower
        g = np.full(len(ids), q - 1, counted.dtype)
        np.gcd.at(g, walk, counted[-1])
        cancelable = (lifts_minimal(table, code, ids, d) & (m > 1)
                      & (g % m != 0))
        m = np.where(cancelable, m, 1)
        super().__init__(walks, q - 1, _divisors(q - 1) % m[:, None] == 0,
                         pairs=False, live=cancelable, counts=counts)
        self.n_permanent = int((~cancelable).sum())
        self.total_shift = d[ids]


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
                best_y = int(counts.argmin())  # argmin takes the smallest tie
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

    Each restart draws the initial values, then the edge order.  The
    result reports the best restart, the first clean one ending the loop.
    With permanent violations no assignment can succeed, so a single
    restart produces the best-effort failure report.  Only the label
    stage has them: a lift with a chorded support, and one whose sum no
    labeling moves off the multiples of m (see :class:`_LabelTracker`).
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
        if best is None or tracker.total < best[0]:
            best = (tracker.total, values.copy(), tracker.worst_violated())
        if tracker.total == 0:
            break
    residual, values, worst = best
    return OptimizeResult(
        success=residual == 0,
        assignment=values,
        residual=residual,
        sweeps_used=sweeps_total,
        restarts_used=restart,
        worst_cycle=worst,
        n_permanent=tracker.n_permanent,
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
    cancellation statuses move.  If any problematic cycle can never be
    canceled, because its lift has a chorded support or because m divides
    every coefficient of its label sum, the search cannot succeed and a
    single best-effort restart produces the failure report, whose
    ``n_permanent`` counts those cycles.
    """
    result = _optimize(_LabelTracker(code, constraint_nb),
                       code.proto.n_edges, cfg, history)
    if result.success:
        _verify(result, "NB", nb_ace_spectrum,
                code.with_labels(result.assignment), constraint_nb)
    return result


def check_parallel_edges(proto: Protograph, Z: int) -> None:
    """Parallel edges need distinct shifts, so a base cell holds at most Z.

    No shift assignment can succeed otherwise, whatever the constraint.
    """
    most = int(proto.edge_runs[2][3].max())
    if most > Z:
        raise ValueError(f"a base cell holds {most} parallel edges, "
                         f"more than the Z={Z} distinct shifts")


@dataclass
class SearchCandidate:
    binary: AceConstraint
    nb: AceConstraint
    code: QcCode


class ConstructionFailure(Exception):
    """A stage of :func:`construct` missed its constraint; ``result`` is
    that stage's best-effort report.  The message names the label stage's
    permanent violations, when there are any."""

    def __init__(self, stage: str, result: OptimizeResult):
        n = result.n_permanent
        reason = (f": {n} problematic cycle{'s are' if n > 1 else ' is'} "
                  "uncanceled under every labeling" if n else "")
        super().__init__(f"{stage} constraint not achieved{reason}")
        self.stage = stage
        self.result = result


def construct(
    proto: Protograph,
    Z: int,
    field: Field,
    binary: AceConstraint,
    nb: AceConstraint,
    cfg: OptimizerConfig,
    lambda_mult: int | None = None,
) -> SearchCandidate:
    """The two-stage construction: shifts that meet ``binary``, then labels
    that meet ``nb`` on the code those shifts lift to.

    Both stages read one walk table, enumerated here to the deeper of the
    two depths.  Raises :class:`ConstructionFailure` naming the stage that
    fails.
    """
    walk_table(proto, max(binary.depth, nb.depth))
    shifts = assign_shifts(proto, Z, binary, cfg)
    if not shifts.success:
        raise ConstructionFailure("shift-assignment", shifts)
    code = QcCode(proto, Z, field, shifts.assignment, None, lambda_mult)
    labels = assign_labels(code, nb, cfg)
    if not labels.success:
        raise ConstructionFailure("label-assignment", labels)
    return SearchCandidate(shifts.achieved, labels.achieved,
                           code.with_labels(labels.assignment))


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


_MAX_ROUNDS = 200


def spectrum_search(
    proto: Protograph,
    Z: int,
    field: Field,
    cfg: OptimizerConfig,
    max_depth: int,
    lambda_mult: int | None = None,
) -> SearchCandidate:
    """Greedy search for a good achievable constraint pair.

    Starts from the spectra of an unconstrained (random) construction, then
    repeatedly tries to raise the smallest finite component of the NB or
    binary constraint by one, or to extend the depth by two, keeping each
    amendment that still constructs, for at most ``_MAX_ROUNDS`` rounds.
    Each attempt is one :func:`construct` with its own seed.  An adopted
    bump achieves the previous spectra with one value raised, and a depth
    step keeps every shallower value, so each adopted candidate dominates
    the one before it and the last one is returned.
    """
    checked_depth(max_depth, "max_depth")
    # with distinct shifts available, the unconstrained attempt succeeds in
    # its first sweep
    check_parallel_edges(proto, Z)
    walk_table(proto, max_depth)  # one enumeration for every attempt
    depth = min(4, max_depth)

    seeds = ((cfg.rng_seed * 1_000_003 + i) % (1 << 63)
             for i in itertools.count(1))

    def attempt(tb: AceConstraint, tnb: AceConstraint) -> SearchCandidate | None:
        sub = replace(cfg, rng_seed=next(seeds))
        try:
            return construct(proto, Z, field, tb, tnb, sub, lambda_mult)
        except ConstructionFailure:
            return None

    current = attempt(AceConstraint.all_zero(depth), AceConstraint.all_zero(depth))
    if current is None:
        raise RuntimeError("unconstrained construction cannot fail")

    for _ in range(_MAX_ROUNDS):
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
    return current
