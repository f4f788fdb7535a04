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

The enumeration is array work.  The prefixes of all start edges grow
together, a level at a time through padded successor tables, in blocks
taken first to last, so the words come out in order with no sort; the last
open level keeps only the prefixes that the last level can close, read from
each base cell's two largest edge ids.  A closed word is kept when it is the
least even rotation of itself and of its reversal and equals none of its
proper even rotations, so every class appears once without a set of seen
words.  The work is capped by a count of the prefixes the enumeration would
grow without that prune, taken before it grows any.

The result is the one form walks take from enumeration to the optimizer's
trackers, a :class:`WalkTable`: padded edge rows with length, ACE and the
simple-minimal flag per walk, and each pair of visits to one node as visit
positions, all as arrays.  Every quantity a lift depends on is a difference
of two per-walk prefix sums of the edge values, read at visit positions.
The sums are position-major (:func:`signed_sums`), read through their last
row (the totals) and :func:`span_sums` alone.  It builds a
:class:`CycleRecord` only for the walk asked for.  A compile compares the
nodes of same-side visit positions, a block of walks at a time sized from
the row width.  The node arrays it reads are built once per protograph and
the position pairs once per row width, so a one-row table (as
``lift.lift_cycle`` compiles) costs little more than its row.  Each
multi-index gather, in the enumeration and in a compile, is one ``take``
on a flat contiguous table with offsets formed in ``np.intp``.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .gf import MAX_EDGES, MAX_Z, checked_depth, checked_int


class WalkEnumerationOverflow(RuntimeError):
    """Walk enumeration exceeded the prefix cap or the walk-length limit."""


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
        # (depth, closed-walk table) kept by lift.walk_table, and the lift
        # of its leading walks under one Z and shifts, kept by lift.lift_walks
        self._walks = (0, None)
        self._lifted = None

    def __getstate__(self):
        # derived data stays out of pickles (simulation workers)
        state = {**self.__dict__, "_walks": (0, None), "_lifted": None}
        state.pop("node_arrays", None)
        return state

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

    @functools.cached_property
    def node_arrays(self) -> tuple[np.ndarray, ...]:
        """The node tables the enumeration and a table compile read, built once.

        Per edge id, the padding id last: its check and variable (the
        padding nodes ``n_checks`` and ``n_vars``).  Per node id, the padding
        node last: a variable's ACE term, the base matrix cells (0), each
        cell's edge ids (padded with -1) and, as two planes, each cell's
        largest and second-largest edge id (-1 where there is none).
        Read-only and C-contiguous, so a gather is one ``take`` on the
        raveled table: cell (c, v) is flat entry ``c * (n_vars + 1) + v``.
        """
        node_of = np.array([self.edge_check + [self.n_checks],
                            self.edge_var + [self.n_vars]])
        ace_of = np.array([len(es) - 2 for es in self.var_edges] + [0])
        cells = np.zeros((self.n_checks + 1, self.n_vars + 1), np.int32)
        cells[:-1, :-1] = self.base_matrix()
        cell_edges = np.full(cells.shape + (cells.max(),), -1, np.int32)
        top_two = np.full((2,) + cells.shape, -1, np.int32)
        filled = np.zeros_like(cells)
        for e, (c, v) in enumerate(zip(self.edge_check, self.edge_var)):
            cell_edges[c, v, filled[c, v]] = e
            filled[c, v] += 1
            top_two[:, c, v] = e, top_two[0, c, v]  # ids arrive in order
        for a in (node_of, ace_of, cells, cell_edges, top_two):
            a.flags.writeable = False
        return node_of, ace_of, cells, cell_edges, top_two

    def __repr__(self) -> str:
        return (
            f"Protograph({self.n_checks} checks, {self.n_vars} vars, "
            f"{self.n_edges} edges)"
        )


def from_base_matrix(rows) -> Protograph:
    """Build a protograph from a nonnegative integer base matrix.

    Entry m[i][j] = k creates k parallel edges between check i and variable
    j.  Edge ids run row-major, parallel copies consecutive.  All-zero rows
    or columns are rejected, and so are a cell of more than ``MAX_Z`` edges,
    which no lifting order lifts, or ``MAX_EDGES`` in all, before any edge.
    """
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise ValueError("base matrix must be nonempty")
    n_vars = len(rows[0])
    if any(len(r) != n_vars for r in rows):
        raise ValueError("base matrix rows must have equal length")
    for i, row in enumerate(rows):
        for j, mult in enumerate(row):
            checked_int(mult, f"base matrix entry ({i}, {j})", 0, MAX_Z)
    checked_int(sum(map(sum, rows)), "base matrix edge count", 0, MAX_EDGES)
    for i, row in enumerate(rows):
        if not any(row):
            raise ValueError(f"all-zero row {i}")
    for j in range(n_vars):
        if not any(row[j] for row in rows):
            raise ValueError(f"all-zero column {j}")
    cells = [(i, j) for i, row in enumerate(rows) for j, mult in enumerate(row)
             for _ in range(mult)]
    return Protograph(len(rows), n_vars,
                      [(i, j, e) for e, (i, j) in enumerate(cells)])


@dataclass(frozen=True)
class DegreeProfile:
    """Edge-perspective degree fractions, keyed by node degree.

    lambda_coeffs[d] is the fraction of edges incident to variable nodes of
    degree d; gamma_coeffs is the check-side analogue.
    """

    lambda_coeffs: dict[int, float]
    gamma_coeffs: dict[int, float]


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


# enumeration stops with WalkEnumerationOverflow past this many prefixes;
# both reference ensembles stay below it at depth 16
DEFAULT_PREFIX_CAP = 1 << 24
# the longest walk the enumeration accepts; rows are at most this wide
MAX_WALK_LEN = 512
_BLOCK = 4096  # prefixes per array step; bounds the temporaries
_CHUNK = 256  # walks per chord step; bounds the temporaries
_TABLE_CELLS = 1 << 16  # (walks x width^2) per table-compile step
_CELLS = 1 << 18  # (start edges x edges) per prefix-count step


@functools.lru_cache(maxsize=8)
def _pair_positions(width: int):
    """Per row width: each position's parity, and the same-side position
    pairs ``p1 < p2`` in (p1, p2) order, all ``np.intp``.  Read-only."""
    parity = np.arange(width, dtype=np.intp) % 2
    p1, p2 = np.nonzero(np.triu(parity[:, None] == parity, 1))
    for a in (parity, p1, p2):
        a.flags.writeable = False
    return parity, p1, p2


def _visits(proto: Protograph, width: int):
    """Each position's offset into the raveled ``node_of`` (its parity's
    plane) and that table: ``nodes.take(at + rows)`` is the node visited
    before each position of edge rows, the padding node on the padding."""
    node_of = proto.node_arrays[0]
    return _pair_positions(width)[0] * node_of.shape[1], node_of.ravel()


def _edge_dtype(n_edges: int):
    """The integer type of edge-id arrays, padded with ``n_edges``."""
    return np.int16 if n_edges < np.iinfo(np.int16).max else np.int32


class WalkTable(Sequence):
    """Closed walks as arrays; indexing builds one :class:`CycleRecord`.

    ``rows[i]`` holds the edge ids of walk i padded with the edge count,
    beside its ``length``, ``ace`` and ``simple_minimal`` flag.  The edge at
    position p is traversed check-to-variable for even p (sign +1) and
    variable-to-check for odd p (sign -1); the node visited before it, visit
    p, is its check for even p and its variable for odd p.

    Everything a lift depends on is read from the per-walk prefix sums of
    per-edge values (:meth:`prefix_sums`), position-major: ``P[p, i]`` is
    the signed sum over the positions before p of walk i.  Applied to
    shifts, ``P[p, i]`` is the copy index of visit p relative to visit 0, so

    * ``P[-1]`` holds the total shifts, and over label exponents the
      alternating label sums (padding adds 0);
    * pair k, two visits ``p1[k] < p2[k]`` of one base node by walk
      ``pair_walk[k]``, lands on one copy when ``P[p2, w] - P[p1, w]``
      (:func:`span_sums`) is 0 modulo the lift's gcd;
    * a chord (:meth:`chords`) joins two visits of the lift when
      ``P[b, w] - P[a, w]`` equals its edge's shift there.

    Pairs are in walk order, and an enumerated table's walks in (length,
    edge_seq) order, so the table up to a depth (:meth:`upto`) is a leading
    slice.  A list of records with the same walks compares equal.
    """

    def __init__(self, proto: Protograph, rows, length):
        """Compile padded check-start edge rows of ``proto``.

        ACE sums (deg(v) - 2) over the visited variables.  A walk is simple
        when it has length >= 4 and no pair (no node visited twice), and a
        simple walk is minimal (chordless) when its support induces only
        its own ``length`` edges, parallel copies counted: a twin of a walk
        edge is a chord.
        """
        self.rows = rows = np.asarray(rows, _edge_dtype(proto.n_edges))
        self.length = length = np.asarray(length, np.int32)
        n, width = rows.shape
        _, p1, p2 = _pair_positions(width)
        at, node_of = _visits(proto, width)
        _, ace_of, cells, *_ = proto.node_arrays
        cells, stride = cells.ravel(), cells.shape[1]
        # a simple walk visits at most this many checks and variables
        most = min(proto.n_checks, proto.n_vars)
        self.ace = np.empty(n, np.int32)
        self.simple_minimal = np.zeros(n, bool)
        pairs = ([np.empty(0, np.int32)], [np.empty(0, np.int16)],
                 [np.empty(0, np.int16)])
        step = max(1, _TABLE_CELLS // width**2)  # walks per block
        for lo in range(0, n, step):
            block, k = rows[lo:lo + step], length[lo:lo + step]
            # nodes[p, i]: the node walk i visits before position p,
            # position-major, so a position's nodes are one contiguous row
            nodes = node_of.take(at[:, None] + block.T)
            checks, vars_ = nodes[0::2], nodes[1::2]
            self.ace[lo:lo + step] = ace_of.take(vars_).sum(axis=0)
            same = nodes.take(p1, axis=0) == nodes.take(p2, axis=0)
            i, j = np.divmod(np.flatnonzero(same.T), len(p1))
            real = p1.take(j) < k.take(i)  # not two visits of the padding
            i, j = i[real], j[real]
            _extend(pairs, (i + lo, p1.take(j), p2.take(j)))
            simple = k >= 4
            simple[i] = False  # a pair is a node visited twice
            simple = np.flatnonzero(simple)
            cell = (checks[:most].take(simple, axis=1)[:, None] * stride
                    + vars_[:most].take(simple, axis=1))
            induced = cells.take(cell).sum(axis=(0, 1))
            self.simple_minimal[lo + simple] = induced == k[simple]
        self.pair_walk, self.p1, self.p2 = _joined(pairs)

    def __len__(self) -> int:
        return len(self.length)

    def __getitem__(self, i: int) -> CycleRecord:
        return CycleRecord(tuple(self.rows[i, :self.length[i]].tolist()),
                           int(self.ace[i]), bool(self.simple_minimal[i]))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def prefix_sums(self, values: np.ndarray, ids=slice(None)) -> np.ndarray:
        """``P[p, k]``: per-edge ``values`` summed with each position's sign
        over the positions before p of walk ``ids[k]`` (every walk by
        default), shape ``(width + 1, walks)``, position-major as
        :func:`signed_sums` lays it out; ``P[-1]`` holds the totals and
        :func:`span_sums` reads the rest.

        Values are integers below 2^22 in magnitude (shifts below
        ``gf.MAX_Z``, label exponents), so every sum fits int32.
        """
        ext = np.append(np.asarray(values, np.int32), np.int32(0))
        return signed_sums(ext.take(self.rows[ids]), np.int32)

    def chords(self, proto: Protograph, ids: np.ndarray):
        """The chords of the lifts of walks ``ids``, as ``(k, a, b, edge)``
        with k the walk's index in ``ids``, in order of k; compiled for
        these walks alone, a block of walks at a time.

        A chord joins check visit a to variable visit b by a base edge
        other than the walk's own two at a, and is present in the lift when
        ``P[b] - P[a]`` equals the edge's shift modulo the lift's gcd.  (An
        own edge of a reaches another visit of its variable only where that
        visit and the edge's own one land on one copy, which a realized
        lift rules out.)  A simple minimal walk has no chords.
        """
        ids = np.asarray(ids, np.int64)
        cell_edges = proto.node_arrays[3]
        stride = cell_edges.shape[1]
        cell_edges = cell_edges.reshape(-1, cell_edges.shape[2])
        rows, width = self.rows.ravel(), self.rows.shape[1]
        at, node_of = _visits(proto, width)
        found = ([np.empty(0, np.int64)], [np.empty(0, np.int16)],
                 [np.empty(0, np.int16)], [np.empty(0, self.rows.dtype)])
        asked = np.flatnonzero(~self.simple_minimal.take(ids))
        for lo in range(0, len(asked), _CHUNK):
            k = asked[lo:lo + _CHUNK]
            walks = ids.take(k)
            length = self.length.take(walks)[:, None]
            longest = length.max()  # the block reaches the longest walk
            block = self.rows.take(walks, axis=0)[:, :longest]
            nodes = node_of.take(at[:longest] + block)
            # edges[w, i, j]: the base edges from check visit 2i to variable
            # visit 2j + 1, less the walk's edges at positions 2i and 2i - 1
            edges = cell_edges.take(nodes[:, 0::2, None] * stride
                                    + nodes[:, None, 1::2], axis=0)
            even = np.arange(0, longest, 2)
            before = rows.take(walks[:, None] * width + (even - 1) % length)
            for own in (block[:, 0::2], before):
                edges[edges == own[:, :, None, None]] = -1
            hit = np.flatnonzero(edges >= 0)
            w, i, j, _ = np.unravel_index(hit, edges.shape)
            _extend(found, (k[w], 2 * i, 2 * j + 1, edges.ravel().take(hit)))
        return tuple(_joined(found))

    def _part(self, walks, pairs, pair_walk) -> "WalkTable":
        """The table of the walks and pairs that ``walks`` and ``pairs``
        index, the pairs' walks renumbered as ``pair_walk``."""
        sub = WalkTable.__new__(WalkTable)
        for name in ("rows", "length", "ace", "simple_minimal"):
            setattr(sub, name, getattr(self, name)[walks])
        sub.pair_walk, sub.p1, sub.p2 = pair_walk, self.p1[pairs], self.p2[pairs]
        return sub

    def subset(self, keep: np.ndarray) -> "WalkTable":
        """The walks selected by a boolean mask, in table order; pairs keep
        their positions under the new walk ids."""
        kept = keep[self.pair_walk]
        renumbered = np.cumsum(keep, dtype=np.int32) - 1
        return self._part(keep, kept, renumbered[self.pair_walk[kept]])

    def upto(self, depth: int) -> "WalkTable":
        """The walks of length at most ``depth``: views of the leading
        walks and pairs, as walks are ordered by length and pairs by walk."""
        n = int(np.searchsorted(self.length, depth, side="right"))
        m = int(np.searchsorted(self.pair_walk, n))
        return self._part(slice(n), slice(m), self.pair_walk[:m])


def signed_sums(terms: np.ndarray, dtype) -> np.ndarray:
    """``P[p, k]``: the per-position ``terms[k, p]`` of row k summed over
    the positions before p, + at even positions and - at odd ones (a
    walk's traversal signs), as ``dtype`` (wrapping as it would), shape
    ``(width + 1, rows)``.

    Position-major, so the scan is one add of two contiguous rows per
    position and the totals ``P[-1]`` are one contiguous row.  Read it
    elsewhere through :func:`span_sums`.
    """
    sums = np.empty((terms.shape[1] + 1, len(terms)), dtype)
    sums[0] = 0
    for p, column in enumerate(terms.T):
        (np.subtract if p % 2 else np.add)(sums[p], column, out=sums[p + 1])
    return sums


def span_sums(sums: np.ndarray, walk, lo, hi) -> np.ndarray:
    """``P[hi, w] - P[lo, w]`` for each walk w of ``walk`` and positions
    ``lo``, ``hi`` beside it: the signed sum over positions lo to hi - 1,
    read from prefix sums ``P`` (:func:`signed_sums`) by flat offsets.

    The offsets are formed in ``np.intp``: positions come as int16, which
    times the walk count would wrap silently.
    """
    flat, n = sums.ravel(), sums.shape[1]
    walk = np.asarray(walk, np.intp)
    return (flat.take(np.asarray(hi, np.intp) * n + walk)
            - flat.take(np.asarray(lo, np.intp) * n + walk))


def _extend(columns, blocks) -> None:
    """Append each block to its column's list, in the column's dtype."""
    for column, block in zip(columns, blocks):
        column.append(block.astype(column[0].dtype))


def _joined(columns) -> list[np.ndarray]:
    """Each column's blocks joined, one column at a time, so the blocks of
    a column are freed before the next column is joined."""
    joined = []
    for column in columns:
        joined.append(np.concatenate(column))
        column.clear()
    return joined


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.arange(s, s + c)`` for each start s and count c, concatenated."""
    ends = np.cumsum(counts)
    return (np.arange(ends[-1] if len(ends) else 0)
            + np.repeat(starts - ends + counts, counts))


def _padded(lists, dtype) -> np.ndarray:
    table = np.full((len(lists), max(map(len, lists), default=0)), -1, dtype)
    for i, items in enumerate(lists):
        table[i, :len(items)] = items
    return table


def _least_of_class(words: np.ndarray) -> np.ndarray:
    """Which closed words are the canonical representative of their class.

    Every word starts with its least edge e0.  A word is kept when it is
    <= every even rotation of itself and of its reversal, and differs from
    each of its proper even rotations (it is primitive: an odd period does
    not split a bipartite walk into closed sub-walks, so only even periods
    count).  Only a rotation that starts with the word's own e0 can tie or
    win.  Read from an even position p the word turns forward, and from an
    odd p it is an even rotation of the reversal, read backward from p.
    Each such rotation is read whole, ``_BLOCK`` rotations at a time, by one
    take from the raveled words, and decides at its first position that
    differs from the word; one that differs nowhere ties to the end, a
    proper even rotation equal to the word (a reversal cannot tie, as that
    needs two equal adjacent edges).
    """
    n = words.shape[1]
    flat = words.ravel()
    w, p = divmod(np.flatnonzero(words[:, 1:] == words[:, :1]), n - 1)
    keep = np.ones(len(words), bool)
    t = np.arange(n)
    for lo in range(0, len(w), _BLOCK):
        wb, pb = w[lo:lo + _BLOCK], p[lo:lo + _BLOCK, None] + 1
        turn = 1 - 2 * (pb % 2)
        mine = words.take(wb, axis=0)
        theirs = flat.take(wb[:, None] * n + (pb + turn * t) % n)
        first = (theirs != mine).argmax(axis=1)  # 0 on a tie to the end
        first += np.arange(len(wb)) * n
        keep[wb[theirs.ravel().take(first) <= mine.ravel().take(first)]] = False
    return keep


def _check_prefixes(proto: Protograph, max_len: int, cap: int) -> None:
    """Raise before an enumeration that would create more than ``cap`` prefixes.

    Counts the prefixes the enumeration would grow without its closing prune
    (at the last open level it keeps only the prefixes the last level can
    close), an upper bound on what it grows, so the cap decides the same
    with or without the prune.  The count runs level by level for a block
    of start edges at a time: ``counts[i, e]`` is the number from the block's
    i-th start edge e0 ending in edge e.  A level moves each count on to the
    other edges at the node its edge turns at (its variable after an even
    position, its check after an odd one) through per-node sums, restricted
    to edges >= e0 and, at the last level, to edges that close the word.
    The total only grows, so raising once it passes the cap decides as the
    whole count would.  The first level is counted from node degrees first:
    the pairs of edges at one variable, or in one cell when words close there.
    """
    overflow = WalkEnumerationOverflow(f"closed-walk enumeration up to length "
                                       f"{max_len} needs more than {cap} prefixes")
    degrees = (proto.base_matrix() if max_len == 2
               else [list(map(len, proto.var_edges))])
    if sum(m * (m - 1) // 2 for row in degrees for m in row) > cap:
        raise overflow
    if max_len == 2:  # the first level is the whole count
        return
    n = proto.n_edges
    ids = np.arange(n)
    edge_check = np.array(proto.edge_check)
    # per parity: the node each edge turns at, the edges in node order and
    # where each node's edges begin there (every node has an edge)
    sides = []
    for at in (np.array(proto.edge_var), edge_check):
        order = np.argsort(at, kind="stable")
        sides.append((at, order, np.flatnonzero(np.diff(at[order], prepend=-1))))
    total, step = 0, max(1, _CELLS // n)
    for lo in range(0, n, step):
        e0 = ids[lo:lo + step, None]
        counts = (ids == e0).astype(np.int64)
        for k in range(1, max_len):
            at, order, begin = sides[(k - 1) % 2]
            # the counts summed per node, less the edge's own: no step back
            moved = np.add.reduceat(counts[:, order], begin, axis=1)[:, at]
            moved -= counts
            moved *= ids >= e0
            if k + 1 == max_len:
                moved *= (edge_check == edge_check[e0]) & (ids != e0)
            counts = moved
            total += int(counts.sum())
            if total > cap:
                raise overflow


def enumerate_closed_walks(
    proto: Protograph, max_len: int, max_prefixes: int = DEFAULT_PREFIX_CAP
) -> WalkTable:
    """All primitive non-backtracking closed walks of even length <= max_len.

    One canonical representative per class under rotation and reversal, in
    deterministic (length, edge_seq) order.  The non-backtracking prefixes
    of every start edge e0 grow over edges >= e0 in one loop that reads e0
    per row, a level at a time, as ``(prefixes, k)`` arrays in blocks of at
    most ``_BLOCK`` rows, depth first, so the memory held does not grow with
    the depth.  A block's prefixes are in edge_seq order, and so are the
    ones it grows (successors come in increasing id); each level's blocks
    are pushed in reverse and so popped first to last, so every length's
    words come out in edge_seq order with no sort.  The last open level
    (position ``max_len - 2``) keeps only the prefixes whose variable has
    an edge f > e0, other than the prefix's last, to e0's check: the others
    could not close at the last level.  The closed words of each level are
    kept when they are the least even rotation of themselves and their
    reversal and primitive (:func:`_least_of_class`), so no set of seen
    words is needed.  Raises :class:`WalkEnumerationOverflow`, before any
    prefix grows, when the unpruned enumeration would create more than
    ``max_prefixes`` prefixes (the pruned one never creates more, and
    classes never outnumber prefixes), or when ``max_len`` exceeds
    :data:`MAX_WALK_LEN`; the result is never silently truncated.
    """
    checked_depth(max_len, "max_len")
    if max_len > MAX_WALK_LEN:
        raise WalkEnumerationOverflow(
            f"walk length {max_len} exceeds the enumeration limit {MAX_WALK_LEN}"
        )
    _check_prefixes(proto, max_len, max_prefixes)
    n_edges = proto.n_edges
    dtype = _edge_dtype(n_edges)
    node_of, *_, top_two = proto.node_arrays
    # per edge id (-1 reads the padding): its check, its variable, and the
    # flat offset of its check's row of cells in the raveled top_two planes
    edge_check, edge_var = node_of
    check_row = edge_check * top_two.shape[2]
    top1, top2 = (plane.ravel() for plane in top_two)
    # follow[p % 2][e]: the edges that may come after e at position p of a
    # walk (from e's variable after an even p, from its check after an odd
    # one), e itself left out, padded with -1; a 2-walk reads no check side
    follow = [_padded([[f for f in proto.var_edges[v] if f != e]
                       for e, v in enumerate(proto.edge_var)], dtype)]
    if max_len > 2:
        follow.append(_padded([[f for f in proto.check_edges[c] if f != e]
                               for e, c in enumerate(proto.edge_check)], dtype))
    found: dict[int, list[np.ndarray]] = {}  # length -> canonical words
    starts = np.arange(n_edges, dtype=dtype)[:, None]
    stack = _blocks(starts)
    while stack:
        prefixes = stack.pop()
        k = prefixes.shape[1]  # the position of the edge added now
        e0 = prefixes[:, :1]
        nxt = follow[(k - 1) % 2].take(prefixes[:, -1], axis=0)
        grow = nxt >= e0
        if k % 2:  # back at a check: a word closes on e0's check, not via e0
            closes = (edge_check.take(nxt) == edge_check.take(e0)) & (nxt != e0)
            if k + 1 == max_len:
                grow &= closes
        elif k + 2 == max_len:
            # the last level closes only by an edge f > e0, f != nxt, of the
            # cell (e0's check, nxt's variable); its two largest ids decide
            # at any multiplicity
            cell = check_row.take(e0) + edge_var.take(nxt)
            first = top1.take(cell)
            grow &= ((first > e0) & (first != nxt)) | (top2.take(cell) > e0)
        flat = np.flatnonzero(grow)
        grown = np.empty((len(flat), k + 1), dtype)
        grown[:, :k] = prefixes.take(flat // grow.shape[1], axis=0)
        grown[:, k] = nxt.ravel().take(flat)
        if k % 2:
            words = grown[closes.ravel().take(flat)]
            words = words[_least_of_class(words)]
            if len(words):
                found.setdefault(k + 1, []).append(words)
        if k + 1 < max_len:
            stack += _blocks(grown)

    return WalkTable(proto, *_ordered_rows(found, n_edges, dtype))


def _blocks(prefixes: np.ndarray) -> list[np.ndarray]:
    """``prefixes`` in blocks of ``_BLOCK`` rows, last block first, so a
    stack pops them first to last."""
    return [prefixes[lo:lo + _BLOCK]
            for lo in reversed(range(0, len(prefixes), _BLOCK))]


def _ordered_rows(found: dict, n_edges: int, dtype):
    """Padded rows and lengths of the words ``found`` per length.

    (length, edge_seq) order: by length, then each length's word blocks in
    the order found, which the enumeration's first-to-last block order
    makes edge_seq order.  ``found`` is emptied as the rows fill, so no
    word array outlives the call and none is joined first.
    """
    lengths = sorted(found)
    length = np.repeat(np.array(lengths, np.int32),
                       [sum(map(len, found[n])) for n in lengths])
    rows = np.full((len(length), max(lengths, default=2)), n_edges, dtype)
    hi = 0
    for n in lengths:
        for words in found.pop(n):
            rows[hi:hi + len(words), :n] = words
            hi += len(words)
    return rows, length


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
