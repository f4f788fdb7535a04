"""Bipartite base graphs (protographs) and closed-walk enumeration.

A protograph is a bipartite multigraph of check and variable nodes; a base
matrix entry of k creates k parallel edges.  The closed structures that
matter for QC lifting are the non-backtracking closed walks: every cycle of
the lifted graph projects onto one, so enumerating them (not just simple
cycles) is what makes a computed lifted ACE spectrum sound.

Walks are reported once per equivalence class under rotation and reversal,
restricted to primitive (aperiodic) representatives: a walk that retraces a
shorter closed walk lifts to retraced copies of the shorter walk's lift and
carries no extra information.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral


class WalkEnumerationOverflow(RuntimeError):
    """Walk enumeration exceeded the record cap or the walk-length limit."""


@dataclass(frozen=True)
class CycleRecord:
    """One canonical non-backtracking closed walk of the base graph.

    ``edge_seq`` is the canonical edge-id sequence; position 0 is traversed
    check-to-variable and directions alternate from there, so the node
    visited before the edge at position p is its check for even p and its
    variable for odd p.  ``ace`` sums (deg(v) - 2) over variable *visits*.
    ``is_simple_minimal`` marks walks of length >= 4 with no repeated node
    whose support induces no extra base edges; only those are eligible for
    the algebraic full-rank cancellation test.
    """

    edge_seq: tuple[int, ...]
    ace: int
    is_simple_minimal: bool

    @property
    def length(self) -> int:
        return len(self.edge_seq)


class Protograph:
    """Base graph with parallel-edge support and two-way adjacency."""

    def __init__(self, n_checks: int, n_vars: int, edges):
        if n_checks < 1 or n_vars < 1:
            raise ValueError("protograph needs at least one check and one variable")
        edges = [tuple(e) for e in edges]
        ids = sorted(e[2] for e in edges)
        if ids != list(range(len(edges))):
            raise ValueError("edge ids must be unique and dense in [0, |E|-1]")
        self.n_checks = n_checks
        self.n_vars = n_vars
        self.edge_check = [0] * len(edges)
        self.edge_var = [0] * len(edges)
        self.check_edges: list[list[int]] = [[] for _ in range(n_checks)]
        self.var_edges: list[list[int]] = [[] for _ in range(n_vars)]
        for c, v, e in edges:
            if not (0 <= c < n_checks and 0 <= v < n_vars):
                raise ValueError(f"edge {e} endpoints ({c}, {v}) out of range")
            self.edge_check[e] = c
            self.edge_var[e] = v
        for e in range(len(edges)):
            self.check_edges[self.edge_check[e]].append(e)
            self.var_edges[self.edge_var[e]].append(e)
        for c, es in enumerate(self.check_edges):
            if not es:
                raise ValueError(f"check node {c} has degree 0")
        for v, es in enumerate(self.var_edges):
            if not es:
                raise ValueError(f"variable node {v} has degree 0")
        # (depth, closed-walk table) kept by lift.walk_table
        self._walks = (0, None)

    def __getstate__(self):
        # derived data stays out of pickles (simulation workers)
        return {**self.__dict__, "_walks": (0, None)}

    @property
    def n_edges(self) -> int:
        return len(self.edge_check)

    def check_degree(self, c: int) -> int:
        return len(self.check_edges[c])

    def var_degree(self, v: int) -> int:
        return len(self.var_edges[v])

    def base_matrix(self) -> list[list[int]]:
        m = [[0] * self.n_vars for _ in range(self.n_checks)]
        for e in range(self.n_edges):
            m[self.edge_check[e]][self.edge_var[e]] += 1
        return m

    def __repr__(self) -> str:
        return (
            f"Protograph({self.n_checks} checks, {self.n_vars} vars, "
            f"{self.n_edges} edges)"
        )


def from_base_matrix(rows) -> Protograph:
    """Build a protograph from a nonnegative integer base matrix.

    Entry m[i][j] = k creates k parallel edges between check i and variable
    j.  Edge ids run row-major, parallel copies consecutive.  All-zero rows
    or columns are rejected.
    """
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise ValueError("base matrix must be nonempty")
    n_vars = len(rows[0])
    if any(len(r) != n_vars for r in rows):
        raise ValueError("base matrix rows must have equal length")
    edges = []
    eid = 0
    for i, row in enumerate(rows):
        for j, mult in enumerate(row):
            if isinstance(mult, bool) or not isinstance(mult, Integral) or mult < 0:
                raise ValueError(f"base matrix entry {mult!r} at ({i}, {j}) "
                                 "is not a nonnegative integer")
            for _ in range(mult):
                edges.append((i, j, eid))
                eid += 1
    for i, row in enumerate(rows):
        if not any(row):
            raise ValueError(f"all-zero row {i}")
    for j in range(n_vars):
        if not any(row[j] for row in rows):
            raise ValueError(f"all-zero column {j}")
    return Protograph(len(rows), n_vars, edges)


@dataclass(frozen=True)
class DegreeProfile:
    """Edge-perspective degree fractions, keyed by node degree.

    lambda_coeffs[d] is the fraction of edges incident to variable nodes of
    degree d; gamma_coeffs is the check-side analogue.
    """

    lambda_coeffs: dict[int, float]
    gamma_coeffs: dict[int, float]

    def deviation(self, other: "DegreeProfile") -> float:
        """Max absolute coefficient difference against a target profile."""
        dev = 0.0
        for mine, theirs in (
            (self.lambda_coeffs, other.lambda_coeffs),
            (self.gamma_coeffs, other.gamma_coeffs),
        ):
            for d in set(mine) | set(theirs):
                dev = max(dev, abs(mine.get(d, 0.0) - theirs.get(d, 0.0)))
        return dev


def degree_profile(proto: Protograph) -> DegreeProfile:
    lam: dict[int, float] = {}
    gam: dict[int, float] = {}
    ne = proto.n_edges
    for e in range(ne):
        dv = proto.var_degree(proto.edge_var[e])
        dc = proto.check_degree(proto.edge_check[e])
        lam[dv] = lam.get(dv, 0.0) + 1.0 / ne
        gam[dc] = gam.get(dc, 0.0) + 1.0 / ne
    return DegreeProfile(lam, gam)


DEFAULT_WALK_CAP = 1_000_000
# the DFS recurses once per walk edge; this stays well inside Python's
# default recursion limit of 1000 frames
MAX_WALK_LEN = 512


def _canonical(word: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest even rotation over both traversal directions.

    Even rotations preserve the check-start interpretation of the edge
    sequence; reversal of a closed traversal is again check-start.  Odd
    rotations belong to the variable-start reading of the same walk and are
    covered through the reversed word.
    """
    n = len(word)
    rev = word[::-1]
    best = word
    for base in (word, rev):
        for i in range(0, n, 2):
            cand = base[i:] + base[:i]
            if cand < best:
                best = cand
    return best


def _is_periodic(word: tuple[int, ...]) -> bool:
    """True when the word is a repetition of a shorter *closed* walk.

    Only even periods count: an odd period does not split the word into
    closed sub-walks of a bipartite graph.
    """
    n = len(word)
    for p in range(2, n, 2):
        if n % p == 0 and all(word[i] == word[(i + p) % n] for i in range(n)):
            return True
    return False


def enumerate_closed_walks(
    proto: Protograph, max_len: int, max_records: int = DEFAULT_WALK_CAP
) -> list[CycleRecord]:
    """All primitive non-backtracking closed walks of even length <= max_len.

    One canonical representative per class under rotation and reversal, in
    deterministic (length, edge_seq) order.  Raises
    :class:`WalkEnumerationOverflow` when more than ``max_records`` classes
    are found or ``max_len`` exceeds :data:`MAX_WALK_LEN`; the result is
    never silently truncated.
    """
    if max_len < 2 or max_len % 2 != 0:
        raise ValueError("max_len must be an even integer >= 2")
    if max_len > MAX_WALK_LEN:
        raise WalkEnumerationOverflow(
            f"walk length {max_len} exceeds the enumeration limit {MAX_WALK_LEN}"
        )
    seen: set[tuple[int, ...]] = set()
    path: list[int] = []

    def register():
        word = tuple(path)
        if _is_periodic(word):
            return
        canon = _canonical(word)
        if canon in seen:
            return
        seen.add(canon)
        if len(seen) > max_records:
            raise WalkEnumerationOverflow(
                f"more than {max_records} closed-walk classes up to length "
                f"{max_len}; raise max_records to proceed"
            )

    def dfs(node: int, at_var: bool, prev_edge: int, e0: int, c_start: int):
        incident = proto.var_edges[node] if at_var else proto.check_edges[node]
        room = len(path) + 1 < max_len
        for e in incident:
            if e < e0 or e == prev_edge:
                continue
            nxt = proto.edge_check[e] if at_var else proto.edge_var[e]
            path.append(e)
            if at_var and nxt == c_start and e != e0:
                register()
            if room:
                dfs(nxt, not at_var, e, e0, c_start)
            path.pop()

    for e0 in range(proto.n_edges):
        path.append(e0)
        dfs(proto.edge_var[e0], True, e0, e0, proto.edge_check[e0])
        path.pop()

    records = [_build_record(proto, word) for word in seen]
    records.sort(key=lambda rec: (rec.length, rec.edge_seq))
    return records


def _build_record(proto: Protograph, canon: tuple[int, ...]) -> CycleRecord:
    # the even (check-to-variable) edges meet every visited node once
    checks = [proto.edge_check[e] for e in canon[0::2]]
    vars_ = [proto.edge_var[e] for e in canon[0::2]]
    ace = sum(proto.var_degree(v) - 2 for v in vars_)
    simple = (
        len(canon) >= 4
        and len(set(checks)) == len(checks)
        and len(set(vars_)) == len(vars_)
    )
    minimal = simple and _support_is_chordless(proto, checks, vars_)
    return CycleRecord(edge_seq=canon, ace=ace, is_simple_minimal=minimal)


def _support_is_chordless(proto: Protograph, checks, vars_) -> bool:
    """Every support node has exactly two edge endpoints inside the support.

    Counts parallel copies individually, so a cycle running along one edge
    of a parallel pair is not minimal (the twin is a chord).
    """
    cset, vset = set(checks), set(vars_)
    for c in cset:
        if sum(1 for e in proto.check_edges[c] if proto.edge_var[e] in vset) != 2:
            return False
    for v in vset:
        if sum(1 for e in proto.var_edges[v] if proto.edge_check[e] in cset) != 2:
            return False
    return True


def read_base_matrix_text(text: str) -> list[list[int]]:
    """Whitespace-separated integer rows, one matrix row per line."""
    rows = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append([int(tok) for tok in line.split()])
    if not rows:
        raise ValueError("no matrix rows found")
    return rows


def write_base_matrix_text(rows) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in rows) + "\n"
