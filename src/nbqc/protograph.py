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

The enumeration joins half paths (:func:`enumerate_closed_walks`), capped
before any path grows, and reads one edge grouping, the edge runs
(:attr:`Protograph.edge_runs`).  Walks take one form up to the optimizer's
trackers, a :class:`WalkTable`.  Each multi-index gather is one ``take`` on
a flat contiguous table with offsets formed in ``np.intp``.
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
    """Base graph with parallel-edge support: each edge's check and
    variable by edge id (``edge_check``, ``edge_var``, read-only
    ``np.intp``), grouped only by :attr:`edge_runs`."""

    def __init__(self, n_checks: int, n_vars: int, edges):
        if n_checks < 1 or n_vars < 1:
            raise ValueError("protograph needs at least one check and one variable")
        ends = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if ends.size and ends.dtype.kind not in "iu":
            raise TypeError("edge ends and ids must be integers")
        check, var, ids = ends.reshape(len(ends), 3).T.astype(np.intp)
        if not np.array_equal(np.sort(ids), np.arange(len(ids))):
            raise ValueError("edge ids must be unique and dense in [0, |E|-1]")
        out = (check < 0) | (check >= n_checks) | (var < 0) | (var >= n_vars)
        if out.any():  # the first in input order
            c, v, e = ends[out.argmax()].tolist()
            raise ValueError(f"edge {e} endpoints ({c}, {v}) out of range")
        self.n_checks = n_checks
        self.n_vars = n_vars
        at = np.empty((2, len(ids)), np.intp)
        at[:, ids] = check, var
        at.flags.writeable = False
        self.edge_check, self.edge_var = at
        for node, n, kind in ((self.edge_check, n_checks, "check"),
                              (self.edge_var, n_vars, "variable")):
            degree = np.bincount(node, minlength=n)
            if not degree.all():
                raise ValueError(f"{kind} node {degree.argmin()} has degree 0")
        # (depth, closed-walk table) kept by lift.walk_table, and the lift
        # of its leading walks under one Z and shifts, kept by lift.lift_walks
        self._walks = (0, None)
        self._lifted = None

    def __getstate__(self):
        # derived data stays out of pickles (simulation workers)
        state = {**self.__dict__, "_walks": (0, None), "_lifted": None}
        state.pop("edge_runs", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.edge_check.flags.writeable = self.edge_var.flags.writeable = False

    @property
    def n_edges(self) -> int:
        return len(self.edge_check)

    def check_degree(self, c: int) -> int:
        return int(self.edge_runs[1][3][c])

    def var_degree(self, v: int) -> int:
        return int(self.edge_runs[0][3][v])

    def base_matrix(self) -> list[list[int]]:
        cells = self.edge_runs[2][3].reshape(self.n_checks + 1, -1)
        return cells[:-1, :-1].tolist()

    @functools.cached_property
    def edge_runs(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """The one grouping of the edges, built once, read-only: per side,
        variables (read after an even position), checks, then cells, the
        node or cell of each edge (``edge_var`` and ``edge_check`` themselves
        on the node sides), the edge ids by node or cell in id order, and
        each one's first index there and its count (a node's degree, a
        cell's base matrix entry).  Cell (c, v) is ``c * (n_vars + 1) + v``,
        so the padding check ``n_checks`` and padding variable ``n_vars``
        have empty cells."""
        cell = self.edge_check * (self.n_vars + 1) + self.edge_var
        runs = []
        for at, n in ((self.edge_var, self.n_vars),
                      (self.edge_check, self.n_checks),
                      (cell, (self.n_checks + 1) * (self.n_vars + 1))):
            degree = np.bincount(at, minlength=n)
            runs.append((at, np.argsort(at, kind="stable"),
                         np.cumsum(degree) - degree, degree))
            for a in runs[-1]:
                a.flags.writeable = False
        return tuple(runs)

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
    cell = np.repeat(np.arange(len(rows) * n_vars), np.ravel(rows))
    return Protograph(len(rows), n_vars, np.column_stack(
        (*np.divmod(cell, n_vars), np.arange(len(cell)))))


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
    var_degree, check_degree = (side[3] for side in proto.edge_runs[:2])
    for dv, dc in zip(var_degree.take(proto.edge_var).tolist(),
                      check_degree.take(proto.edge_check).tolist()):
        lam[dv] = lam.get(dv, 0.0) + 1.0 / ne
        gam[dc] = gam.get(dc, 0.0) + 1.0 / ne
    return DegreeProfile(lam, gam)


# enumeration stops with WalkEnumerationOverflow past this many prefixes;
# both reference ensembles stay below it at depth 16
DEFAULT_PREFIX_CAP = 1 << 24
# the longest walk the enumeration accepts; rows are at most this wide
MAX_WALK_LEN = 512
_BLOCK = 8192  # word pairs or rotations per array step; bounds temporaries
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
    """Each position's offset into a table of each edge's check then each
    edge's variable, each with the padding node for the padding id, and
    that table: ``nodes.take(at + rows)`` is the node visited before each
    position of edge rows, the padding node on the padding."""
    node_of = np.concatenate((proto.edge_check, [proto.n_checks],
                              proto.edge_var, [proto.n_vars]))
    return _pair_positions(width)[0] * (proto.n_edges + 1), node_of


def _edge_dtype(n_edges: int):
    """The integer type of edge-id arrays, padded with ``n_edges``."""
    return np.int16 if n_edges < np.iinfo(np.int16).max else np.int32


class WalkTable(Sequence):
    """Closed walks as arrays; indexing builds one :class:`CycleRecord`.

    ``rows[i]`` holds the edge ids of walk i padded with the edge count,
    beside its ``length`` and ``ace``.  The edge at position p is traversed
    check-to-variable for even p (sign +1) and variable-to-check for odd p
    (sign -1); the node visited before it, visit p, is its check for even
    p and its variable for odd p.

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

    A table of rows is a ``root``: it compiles a walk's pairs and
    ``simple_minimal`` flag when first asked (:meth:`pairs`, :meth:`chords`
    or a whole column) and keeps them.  :meth:`subset` and :meth:`upto` are
    views with the ``root_ids`` of their walks (None for leading walks).
    Pairs are in (walk, p1, p2) order and an enumerated table's walks in
    (length, edge_seq) order, so a head is a leading slice.  A list of
    records with the same walks compares equal.
    """

    def __init__(self, proto: Protograph, rows, length):
        """Padded check-start edge rows of ``proto``; ACE sums (deg(v) - 2)
        over the variables of the edges at odd positions."""
        self.rows = rows = np.asarray(rows, _edge_dtype(proto.n_edges))
        self.length = np.asarray(length, np.int32)
        self.root_ids, self._memo = None, None
        (_, _, _, degree), _, (_, _, _, cells) = proto.edge_runs
        ace_of = np.append(degree.take(proto.edge_var) - 2, 0)
        self.ace = np.empty(len(rows), np.int32)
        step = max(1, _TABLE_CELLS // rows.shape[1])
        for lo in range(0, len(rows), step):  # summed position-major
            odd = rows[lo:lo + step, 1::2].T
            self.ace[lo:lo + step] = ace_of.take(odd).sum(0)
        # what a compile reads; a simple walk visits at most `most` checks
        self._reads = (*_visits(proto, rows.shape[1]), cells, proto.n_vars + 1,
                       min(proto.n_checks, proto.n_vars))

    def _compiled(self, ids):
        """Root ids of walks ``ids``, compiled, and the root's memo: per walk
        its first pair in the pool ``[p1, p2]``, count (-1 until compiled)
        and flag."""
        root, ids = self.root, np.asarray(ids, np.intp)
        ids = ids if self.root_ids is None else self.root_ids.take(ids)
        if root._memo is None:
            n = len(root)
            root._memo = (np.zeros(n, np.intp), np.full(n, -1, np.int32),
                          np.zeros(n, bool), [np.empty(0, np.int16)] * 2)
        if len(new := _unasked(root._memo[1], ids)):
            root._compile(new)
        return ids, root._memo

    def _compile(self, new):
        """Compile root walks ``new``, blocks sized from the row width.  A
        walk is simple when it has length >= 4 and no pair, and minimal
        (chordless) when its support induces only its own ``length`` edges,
        parallel copies counted: a twin of a walk edge is a chord."""
        at, node_of, cells, stride, most = self._reads
        first, count, flag, pool = self._memo
        _, p1, p2 = _pair_positions(self.rows.shape[1])
        pairs = ([np.empty(0, np.intp)], [np.empty(0, np.int16)],
                 [np.empty(0, np.int16)])
        step = max(1, _TABLE_CELLS // self.rows.shape[1]**2)  # walks per block
        for lo in range(0, len(new), step):
            walks = new[lo:lo + step]
            block, k = self.rows.take(walks, axis=0), self.length.take(walks)
            # nodes[p, i]: the node walk i visits before position p,
            # position-major, so a position's nodes are one contiguous row
            nodes = node_of.take(at[:, None] + block.T)
            checks, vars_ = nodes[0::2], nodes[1::2]
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
            flag[new[lo + simple]] = induced == k[simple]
        walk, *found = _joined(pairs)
        counts = np.bincount(walk, minlength=len(new))
        first[new] = len(pool[0]) + np.cumsum(counts) - counts
        count[new] = counts
        pool[:] = (np.concatenate(parts) for parts in zip(pool, found))

    def pairs(self, ids):
        """Pairs of walks ``ids`` as ``(k, p1, p2)``, k the index in ids."""
        rid, (first, count, _, (p1, p2)) = self._compiled(ids)
        per = count.take(rid)
        at = _ranges(first.take(rid), per)
        return (np.repeat(np.arange(len(rid), dtype=np.int32), per),
                p1.take(at), p2.take(at))

    @functools.cached_property
    def _columns(self):
        ids = np.arange(len(self))
        rid, memo = self._compiled(ids)
        return (*self.pairs(ids), memo[2].take(rid))

    pair_walk, p1, p2, simple_minimal = (
        property(lambda self, c=c: self._columns[c]) for c in range(4))
    # a view's root; a root is its own without referring to itself, so
    # refcounting frees it (a cycle would wait for the garbage collector)
    root = property(lambda self: self.__dict__.get("_root", self))

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

        A cell's base edges are read from its run into as many slots as
        the largest cell has edges, those past its count masked (a gather
        of the exact runs measured 1.6 times slower).
        """
        ids = np.asarray(ids, np.int64)
        _, by_cell, begin, count = proto.edge_runs[2]
        by_cell = by_cell.astype(self.rows.dtype)  # compared with rows
        stride, slot = proto.n_vars + 1, np.arange(count.max())
        rows, width = self.rows.ravel(), self.rows.shape[1]
        at, node_of = _visits(proto, width)
        found = ([np.empty(0, np.int64)], [np.empty(0, np.int16)],
                 [np.empty(0, np.int16)], [np.empty(0, self.rows.dtype)])
        rid, memo = self._compiled(ids)
        asked = np.flatnonzero(~memo[2].take(rid))
        for lo in range(0, len(asked), _CHUNK):
            k = asked[lo:lo + _CHUNK]
            walks = ids.take(k)
            length = self.length.take(walks)[:, None]
            longest = length.max()  # the block reaches the longest walk
            block = self.rows.take(walks, axis=0)[:, :longest]
            nodes = node_of.take(at[:longest] + block)
            # edges[w, i, j]: the base edges from check visit 2i to variable
            # visit 2j + 1, read from the cell's run; a hit is a slot within
            # the cell's count that holds neither of the walk's edges at
            # positions 2i and 2i - 1
            cell = (nodes[:, 0::2, None, None] * stride
                    + nodes[:, None, 1::2, None])
            edges = by_cell.take(begin.take(cell) + slot, mode="clip")
            hit = slot < count.take(cell)
            even = np.arange(0, longest, 2)
            before = rows.take(walks[:, None] * width + (even - 1) % length)
            for own in (block[:, 0::2], before):
                hit &= edges != own[:, :, None, None]
            hit = np.flatnonzero(hit)
            w, i, j, _ = np.unravel_index(hit, edges.shape)
            _extend(found, (k[w], 2 * i, 2 * j + 1, edges.ravel().take(hit)))
        return tuple(_joined(found))

    def _view(self, walks, root_ids) -> "WalkTable":
        sub = WalkTable.__new__(WalkTable)
        for name in ("rows", "length", "ace"):
            setattr(sub, name, getattr(self, name)[walks])
        sub._root, sub.root_ids = self.root, root_ids
        return sub

    def subset(self, keep: np.ndarray) -> "WalkTable":
        """The walks selected by a boolean mask, in table order; pairs keep
        their positions under the new walk ids."""
        ids = np.flatnonzero(keep)
        return self._view(keep, ids if self.root_ids is None
                          else self.root_ids.take(ids))

    def upto(self, depth: int) -> "WalkTable":
        """The walks of length at most ``depth``: views of the leading
        walks, as walks are ordered by length."""
        n = int(np.searchsorted(self.length, depth, side="right"))
        return self._view(slice(n), None if self.root_ids is None
                          else self.root_ids[:n])


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


def _unasked(memo: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The ids of ``ids`` whose ``memo`` entry is -1, once each, in order."""
    new = ids[memo.take(ids) < 0]
    if len(new):  # a mark, not a sort
        mark = np.zeros(len(memo), bool)
        mark[new] = True
        new = np.flatnonzero(mark)
    return new


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

    Counts the prefixes a level-wise enumeration of the words would grow
    (at the last level only those that close), so the cap does not depend
    on how the words are found.  The count runs level by level for a block
    of start edges at a time: ``counts[i, e]`` is the number from the
    block's i-th start edge e0 ending in edge e.  A level moves each count
    on to the other edges at the node its edge turns at (its variable after
    an even position, its check after an odd one) through per-node sums
    over the edge runs (:attr:`Protograph.edge_runs`), restricted to edges
    >= e0 and, at the last level, to edges that close the word.
    The total only grows, so raising once it passes the cap decides as the
    whole count would.  The first level is counted from the runs first:
    the pairs of edges at one variable, or in one cell (the cell runs'
    counts) when words close there.
    It stays because it decides before any path grows (a cap on the join's
    own work was dropped, see ROADMAP's Closed items).
    """
    overflow = WalkEnumerationOverflow(f"closed-walk enumeration up to length "
                                       f"{max_len} needs more than {cap} prefixes")
    runs = proto.edge_runs
    (_, _, _, degree), (check_of, _, _, _), (_, _, _, cells) = runs
    if max_len == 2:  # words close in the cell of their first two edges
        degree = cells
    if int((degree * (degree - 1) // 2).sum()) > cap:
        raise overflow
    if max_len == 2:  # the first level is the whole count
        return
    n = proto.n_edges
    ids = np.arange(n)
    total, step = 0, max(1, _CELLS // n)
    for lo in range(0, n, step):
        e0 = ids[lo:lo + step, None]
        counts = (ids == e0).astype(np.int64)
        for k in range(1, max_len):
            at, order, begin, _ = runs[(k - 1) % 2]
            # the counts summed per node, less the edge's own: no step back
            moved = np.add.reduceat(counts[:, order], begin, axis=1)[:, at]
            moved -= counts
            moved *= ids >= e0
            if k + 1 == max_len:
                moved *= (check_of == check_of[e0]) & (ids != e0)
            counts = moved
            total += int(counts.sum())
            if total > cap:
                raise overflow


def enumerate_closed_walks(
    proto: Protograph, max_len: int, max_prefixes: int = DEFAULT_PREFIX_CAP
) -> WalkTable:
    """All primitive non-backtracking closed walks of even length <= max_len.

    One canonical representative per class under rotation and reversal, in
    deterministic (length, edge_seq) order.  A closed word w of length 2m
    from start edge e0 (non-backtracking over edges >= e0, closing on e0's
    check by an edge other than e0) is exactly a pair of half paths from
    e0's check that end at one node by different last edges: F = w[:m],
    whose least edge is its first, e0, and B = w[m:] reversed, whose first
    edge is not e0 and whose edges are all >= e0.  Each F is joined with
    the B of its (start check, end node), sorted by that key and then by
    reversed sequence, so the words come out in edge_seq order, a block of
    about ``_BLOCK`` candidate pairs at a time.  A word is kept when it is
    the least even rotation of itself and its reversal and primitive
    (:func:`_least_of_class`).  Raises :class:`WalkEnumerationOverflow`,
    before any path grows, when a level-wise enumeration of these words
    would create more than ``max_prefixes`` prefixes (classes never
    outnumber them), or when ``max_len`` exceeds :data:`MAX_WALK_LEN`; the
    result is never silently truncated.
    """
    checked_depth(max_len, "max_len")
    if max_len > MAX_WALK_LEN:
        raise WalkEnumerationOverflow(
            f"walk length {max_len} exceeds the enumeration limit {MAX_WALK_LEN}"
        )
    _check_prefixes(proto, max_len, max_prefixes)
    dtype = _edge_dtype(proto.n_edges)
    blocks = _closed_words(proto, max_len, dtype)
    length = np.repeat(np.array([w.shape[1] for w in blocks], np.int32),
                       np.array([len(w) for w in blocks], np.intp))
    rows = np.full((len(length), length.max(initial=2)), proto.n_edges, dtype)
    hi, blocks = 0, blocks[::-1]
    while blocks:  # each block freed once copied
        words = blocks.pop()
        rows[hi:hi + len(words), :words.shape[1]] = words
        hi += len(words)
    return WalkTable(proto, rows, length)


def _closed_words(proto: Protograph, max_len: int, dtype) -> list:
    """The canonical words as blocks in (length, edge_seq) order."""
    runs = proto.edge_runs
    check_of, by_check, begin, _ = runs[1]
    # per edge, the least edge at its check: no edge of a word is below it
    floor = by_check.take(begin.take(check_of))
    found = []
    half = _half_paths(runs, max_len // 2, floor, dtype)
    for m, (paths, least) in enumerate(half, 1):
        first, last = paths[:, 0], paths[:, -1]
        # the end node is the variable of the last edge for odd m, its
        # check for even m
        key = (check_of.take(first) * proto.n_edges
               + runs[(m - 1) % 2][0].take(last))
        # B pairs with an F of first edge e0 <= top: e0 <= its least edge,
        # and e0 < its first edge when that is its least
        top = least - (least == first)
        usable = np.flatnonzero(top >= floor.take(first))
        # by key, then by the edges from the last back to the first:
        # lexsort sorts by its last key first
        order = usable.take(np.lexsort((*paths.take(usable, axis=0).T,
                                        key.take(usable))))
        bkey, btop, blast = key.take(order), top.take(order), last.take(order)
        f = np.flatnonzero(least == first)  # the F side, in edge_seq order
        fkey = key.take(f)
        lo = np.searchsorted(bkey, fkey, "left")
        count = np.searchsorted(bkey, fkey, "right") - lo
        block = (np.cumsum(count) - count) // _BLOCK
        bounds = np.flatnonzero(np.diff(block)) + 1
        for fb, lb, cb in zip(*(np.split(a, bounds) for a in (f, lo, count))):
            fi, b = np.repeat(fb, cb), _ranges(lb, cb)
            ok = ((btop.take(b) >= first.take(fi))
                  & (blast.take(b) != last.take(fi)))
            fi, b = fi[ok], order.take(b[ok])
            words = np.empty((len(fi), 2 * m), dtype)
            words[:, :m] = paths.take(fi, axis=0)
            words[:, m:] = paths.take(b, axis=0)[:, ::-1]
            words = words[_least_of_class(words)]
            if len(words):
                found.append(words)
    return found


def _half_paths(runs, half: int, floor: np.ndarray, dtype):
    """Yields ``(paths, least)`` for 1 to ``half`` edges: the check-start
    non-backtracking paths, in edge_seq order, whose edges are all >=
    ``floor`` of their first, and each path's least edge.  A level appends
    the run at the node each last edge turns at, less that edge and the
    edges below the floor; runs are in id order, so the order holds.
    """
    paths = np.arange(len(floor), dtype=dtype)[:, None]
    least = paths[:, 0]
    yield paths, least
    for k in range(1, half):
        at, order, begin, degree = runs[(k - 1) % 2]
        node = at.take(paths[:, -1])
        count = degree.take(node)
        parent = np.repeat(np.arange(len(paths)), count)
        nxt = order.take(_ranges(begin.take(node), count))
        grow = ((nxt != paths[:, -1].repeat(count))
                & (nxt >= floor.take(paths[:, 0]).repeat(count)))
        parent, nxt = parent[grow], nxt[grow]
        paths = np.hstack([paths.take(parent, axis=0),
                           nxt.astype(dtype)[:, None]])
        least = np.minimum(least.take(parent), paths[:, k])
        yield paths, least
