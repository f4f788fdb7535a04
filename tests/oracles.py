"""Independent reference implementations used to validate the package.

Everything here deliberately avoids the production code paths it checks:
dense elimination instead of sparse, node-sequence DFS on the expanded
graph instead of base-walk projection, exhaustive codeword search instead
of message passing.  The closed-walk enumerator is kept here in its first
form, a recursive edge DFS that reduces every closed word to its least
rotation and keeps a set of them.  The decoder kernels are kept here in their first,
node-major form (stacked butterflies, ``(nodes, slots, q)`` scans and the
loop that used them) so the production kernels can be compared with them
bit for bit.  The optimizer's sweep is kept in its first form too: a
tracker that re-evaluates every walk an edge moves, at every candidate
value, each time the sweep visits the edge, over coefficient rows counted
position by position (:func:`coefficient_rows`).  The minimality of a
realized lift is kept in its first form as well, a walk around one lifted
cycle's copies that counts the edge copies its support induces
(:func:`lift_chordless`), and so is the chord compile it was replaced by:
every walk's chords compiled up front and read back per walk
(:func:`chords_of_every_walk`, :func:`picked_chords`).  The systematic
encoder is kept in its first form, a dense coefficient matrix and one
multiplication-table gather per message (:class:`DenseEncoder`).  The
matrix and profile helpers only tests read live here too: :func:`to_dense`,
:func:`mul_vec`, :func:`nnz`, :func:`support` and
:func:`profile_deviation`.  The oracles group a protograph's edges by node
themselves (:func:`adjacency`), from each edge's check and variable, so
none reads the grouping it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from nbqc.codec import (DecodeResult, RankDeficiencyError, SparseGfMatrix,
                        _echelon)
from nbqc.gf import Field
from nbqc.lift import (AceConstraint, QcCode, lift_shifts, lift_walks,
                       lifts_minimal, realized_lifts)
from nbqc.optimize import (OptimizeResult, OptimizerConfig, _divisors,
                           _order_violations, _violates,
                           find_problematic_binary)
from nbqc.protograph import (CycleRecord, DegreeProfile, Protograph, WalkTable,
                             span_sums)


def ring_protograph(half: int) -> Protograph:
    """Cycle of length 2*half: check i joins var i and var i+1 (mod half)."""
    edges = []
    for i in range(half):
        edges.append((i, i, 2 * i))
        edges.append((i, (i + 1) % half, 2 * i + 1))
    return Protograph(half, half, edges)


def decorated_ring(half: int, extra_per_var, rng) -> Protograph:
    """Ring plus degree-1 pendant checks, raising variable degrees (ACE)."""
    edges = []
    for i in range(half):
        edges.append((i, i, 2 * i))
        edges.append((i, (i + 1) % half, 2 * i + 1))
    eid = 2 * half
    check_id = half
    for v in range(half):
        for _ in range(int(extra_per_var[v])):
            edges.append((check_id, v, eid))
            eid += 1
            check_id += 1
    return Protograph(check_id, half, edges)


def adjacency(proto: Protograph):
    """``(check_of, var_of, by_check, by_var)``: each edge's check and
    variable, and each check's and each variable's edge ids in id order,
    as lists, grouped here from ``edge_check`` and ``edge_var`` alone
    rather than read from the grouping under test
    (``Protograph.edge_runs``)."""
    check_of, var_of = proto.edge_check.tolist(), proto.edge_var.tolist()
    by_check = [[] for _ in range(proto.n_checks)]
    by_var = [[] for _ in range(proto.n_vars)]
    for e, (c, v) in enumerate(zip(check_of, var_of)):
        by_check[c].append(e)
        by_var[v].append(e)
    return check_of, var_of, by_check, by_var


def permuted_protograph(rows, seed: int) -> Protograph:
    """The protograph of base matrix ``rows`` with its row-major edge ids
    permuted by ``default_rng(seed)``, so a cell's or a node's edge ids are
    neither consecutive nor in cell order."""
    ends = [(c, v) for c, row in enumerate(rows) for v, mult in enumerate(row)
            for _ in range(mult)]
    perm = np.random.default_rng(seed).permutation(len(ends)).tolist()
    return Protograph(len(rows), len(rows[0]),
                      [(c, v, perm[e]) for e, (c, v) in enumerate(ends)])


def lifted_cycle_matrix(half, Z, field: Field, lam, shifts, rhos) -> SparseGfMatrix:
    """Banded block matrix of a length-2*half cycle, built directly.

    Block row i holds the blocks of edges 2i (column i) and 2i+1 (column
    i+1 mod half); each block is the circulant with row r holding
    alpha^(rho + r*lam) at column (r + d) mod Z.
    """
    qm1 = field.q - 1
    entries = []
    for i in range(half):
        for k, col in ((2 * i, i), (2 * i + 1, (i + 1) % half)):
            d, rho = shifts[k], rhos[k]
            for row in range(Z):
                entries.append(
                    (
                        i * Z + row,
                        col * Z + (row + d) % Z,
                        field.pow_alpha((rho + row * lam) % qm1),
                    )
                )
    return SparseGfMatrix(half * Z, half * Z, entries, field)


def clmul_mod(a: int, b: int, poly: int, r: int) -> int:
    """Carry-less multiply then polynomial reduction, no tables."""
    prod = 0
    aa = a
    while b:
        if b & 1:
            prod ^= aa
        aa <<= 1
        b >>= 1
    for bit in range(prod.bit_length() - 1, r - 1, -1):
        if prod >> bit & 1:
            prod ^= poly << (bit - r)
    return prod


def dense_rank(mat, field: Field) -> int:
    """Gaussian elimination on a dense list-of-lists copy."""
    m = [list(row) for row in mat]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = None
        for i in range(row, n_rows):
            if m[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = field.inv(m[row][col])
        for i in range(n_rows):
            if i != row and m[i][col]:
                factor = field.mul(m[i][col], inv)
                for j in range(n_cols):
                    m[i][j] ^= _mul(field, factor, m[row][j])
        row += 1
        rank += 1
        if row == n_rows:
            break
    return rank


def _mul(field: Field, a: int, b: int) -> int:
    return field.mul(a, b)


def nnz(H: SparseGfMatrix) -> int:
    return len(H.value)


def to_dense(H: SparseGfMatrix) -> np.ndarray:
    d = np.zeros((H.n_rows, H.n_cols), dtype=np.int64)
    for i, c, v in zip(H.row.tolist(), H.col.tolist(), H.value.tolist()):
        d[i, c] = v
    return d


def mul_vec(H: SparseGfMatrix, vec) -> np.ndarray:
    """Syndrome H * vec over GF(q)."""
    out = np.zeros(H.n_rows, dtype=np.int64)
    for i, c, v in zip(H.row.tolist(), H.col.tolist(), H.value.tolist()):
        out[i] ^= _mul(H.field, v, int(vec[c]))
    return out


def support(H: SparseGfMatrix) -> set[tuple[int, int]]:
    return set(zip(H.row.tolist(), H.col.tolist()))


def profile_deviation(mine: DegreeProfile, target: DegreeProfile) -> float:
    """Max absolute coefficient difference against a target profile."""
    dev = 0.0
    for a, b in ((mine.lambda_coeffs, target.lambda_coeffs),
                 (mine.gamma_coeffs, target.gamma_coeffs)):
        for d in set(a) | set(b):
            dev = max(dev, abs(a.get(d, 0.0) - b.get(d, 0.0)))
    return dev


def count_closed_walks_by_node_dfs(n_checks: int, n_vars: int, max_len: int):
    """Closed-walk class counts on the complete bipartite graph K_{m,n}.

    Walks are enumerated as node sequences (simple complete graph, so node
    sequences determine edges), made non-backtracking including the wrap,
    primitive, and deduplicated under rotation and reversal.  Returns
    {length: class count}.
    """
    classes: set[tuple] = set()

    def canon(seq: tuple) -> tuple:
        n = len(seq)
        cands = []
        for base in (seq, tuple(reversed(seq))):
            start = 0 if base[0][0] == "c" else 1
            for i in range(start, n, 2):
                cands.append(base[i:] + base[:i])
        return min(cands)

    def periodic(seq: tuple) -> bool:
        n = len(seq)
        for p in range(2, n, 2):
            if n % p == 0 and all(seq[i] == seq[(i + p) % n] for i in range(n)):
                return True
        return False

    def dfs(path: list, start):
        L = len(path)
        if L >= 4 and L % 2 == 0 and path[-1][0] == "v":
            # wrap edge (path[-1], start): non-backtracking at both ends
            if path[1] != path[-1] and path[-2] != start:
                word = tuple(path)
                if not periodic(word):
                    classes.add(canon(word))
        if L == max_len:
            return
        kind, _ = path[-1]
        nxt_kind = "v" if kind == "c" else "c"
        span = n_vars if nxt_kind == "v" else n_checks
        for i in range(span):
            node = (nxt_kind, i)
            if L >= 2 and node == path[-2]:
                continue
            path.append(node)
            dfs(path, start)
            path.pop()

    for c in range(n_checks):
        dfs([("c", c)], ("c", c))
    counts: dict[int, int] = {}
    for word in classes:
        counts[len(word)] = counts.get(len(word), 0) + 1
    return counts


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


def _support_is_chordless(adj, checks, vars_) -> bool:
    """Every support node has exactly two edge endpoints inside the support,
    read from :func:`adjacency` ``adj``.

    Counts parallel copies individually, so a cycle running along one edge
    of a parallel pair is not minimal (the twin is a chord).
    """
    check_of, var_of, by_check, by_var = adj
    cset, vset = set(checks), set(vars_)
    for c in cset:
        if sum(1 for e in by_check[c] if var_of[e] in vset) != 2:
            return False
    for v in vset:
        if sum(1 for e in by_var[v] if check_of[e] in cset) != 2:
            return False
    return True


def _build_record(adj, canon: tuple[int, ...]) -> CycleRecord:
    check_of, var_of, _, by_var = adj
    # the even (check-to-variable) edges meet every visited node once
    checks = [check_of[e] for e in canon[0::2]]
    vars_ = [var_of[e] for e in canon[0::2]]
    ace = sum(len(by_var[v]) - 2 for v in vars_)
    simple = (
        len(canon) >= 4
        and len(set(checks)) == len(checks)
        and len(set(vars_)) == len(vars_)
    )
    minimal = simple and _support_is_chordless(adj, checks, vars_)
    return CycleRecord(edge_seq=canon, ace=ace, is_simple_minimal=minimal)


def least_of_class_by_position_loop(words: np.ndarray) -> np.ndarray:
    """``protograph._least_of_class`` by comparing each word with each of
    its candidate rotations one position at a time, for as long as they
    tie: a rotation from a position p that repeats the first edge, forward
    from an even p and backward (the reversal) from an odd one, rejects
    the word when it is smaller at the first position they differ or ties
    to the end."""
    n = words.shape[1]
    w, p = divmod(np.flatnonzero(words[:, 1:] == words[:, :1]), n - 1)
    p += 1
    step = 1 - 2 * (p % 2)
    keep = np.ones(len(words), bool)
    for t in range(1, n):
        mine, theirs = words[w, t], words[w, (p + step * t) % n]
        keep[w[theirs < mine]] = False
        tie = (theirs == mine) & keep[w]
        w, p, step = w[tie], p[tie], step[tie]
        if not len(w):
            break
    keep[w] = False
    return keep


def closed_walks_by_edge_dfs(proto: Protograph, max_len: int) -> list[CycleRecord]:
    """Primitive non-backtracking closed walks by recursive edge DFS.

    The first form of the package's enumerator: each start edge e0 grows
    every non-backtracking prefix over edges >= e0 one edge per call, and
    every closed word is reduced to the least of its even rotations and
    reversals and kept in a set.  Records are in (length, edge_seq) order.
    """
    seen: set[tuple[int, ...]] = set()
    path: list[int] = []
    adj = check_of, var_of, by_check, by_var = adjacency(proto)

    def dfs(node: int, at_var: bool, prev_edge: int, e0: int, c_start: int):
        incident = by_var[node] if at_var else by_check[node]
        room = len(path) + 1 < max_len
        for e in incident:
            if e < e0 or e == prev_edge:
                continue
            nxt = check_of[e] if at_var else var_of[e]
            path.append(e)
            if at_var and nxt == c_start and e != e0:
                word = tuple(path)
                if not _is_periodic(word):
                    seen.add(_canonical(word))
            if room:
                dfs(nxt, not at_var, e, e0, c_start)
            path.pop()

    for e0 in range(proto.n_edges):
        path.append(e0)
        dfs(var_of[e0], True, e0, e0, check_of[e0])
        path.pop()

    records = [_build_record(adj, word) for word in seen]
    records.sort(key=lambda rec: (rec.length, rec.edge_seq))
    return records


def count_prefixes_by_edge_dfs(proto: Protograph, max_len: int) -> int:
    """Prefixes a level-wise closed-walk enumeration grows, counted by DFS.

    Every non-backtracking edge sequence of length 2..max_len from a start
    edge e0 over edges >= e0 counts, except that at length max_len only
    the sequences that close on e0's check through an edge other than e0
    count.
    """
    count = 0
    check_of, var_of, by_check, by_var = adjacency(proto)

    def dfs(e: int, k: int, e0: int):
        nonlocal count
        at_var = k % 2 == 1  # the edge at position k - 1 ended at a variable
        node = var_of[e] if at_var else check_of[e]
        for f in (by_var if at_var else by_check)[node]:
            if f == e or f < e0:
                continue
            if k + 1 == max_len and (
                    check_of[f] != check_of[e0] or f == e0):
                continue
            count += 1
            if k + 1 < max_len:
                dfs(f, k + 1, e0)

    for e0 in range(proto.n_edges):
        dfs(e0, 1, e0)
    return count


def prefix_totals_by_edge_matrices(proto: Protograph, max_len: int) -> list[int]:
    """The running total of the prefixes a level-wise closed-walk
    enumeration grows, after each level, from dense int64 successor
    matrices (the first form of the enumeration's prefix cap).

    ``counts[e0, e]`` is the number of prefixes from start edge e0 ending
    in edge e; ``moves[p][e, f]`` is 1 when f may follow e at a position of
    parity p (another edge at e's variable for even p, at its check for odd
    p).  Only edges >= e0 count, and at length max_len only edges that
    close on e0's check.
    """
    n = proto.n_edges
    ids = np.arange(n)
    edge_check, edge_var = proto.edge_check, proto.edge_var
    allowed = ids >= ids[:, None]
    other = ids != ids[:, None]
    closing = (edge_check == edge_check[:, None]) & other
    moves = [((edge_var == edge_var[:, None]) & other).astype(np.int64),
             closing.astype(np.int64)]
    counts = np.eye(n, dtype=np.int64)
    totals = [0]
    for k in range(1, max_len):
        counts = (counts @ moves[(k - 1) % 2]) * allowed
        if k + 1 == max_len:
            counts *= closing
        totals.append(totals[-1] + int(counts.sum()))
    return totals[1:]


def walk_major_signed_sums(terms: np.ndarray, dtype) -> np.ndarray:
    """``P[k, p]``: the per-position ``terms`` of row k summed over the
    positions before p, + at even positions and - at odd ones, as
    ``dtype``, shape ``(rows, width + 1)``: the walk-major reference for
    the position-major ``protograph.signed_sums``, by a cumulative sum
    along each row."""
    sums = np.zeros((len(terms), terms.shape[1] + 1), dtype)
    sums[:, 1:] = terms
    sums[:, 2::2] *= -1
    np.cumsum(sums[:, 1:], axis=1, dtype=dtype, out=sums[:, 1:])
    return sums


def walk_major_prefix_sums(table: WalkTable, values, ids=slice(None)):
    """``P[k, p]``: per-edge ``values`` signed-summed over the positions
    before p of walk ``ids[k]``, walk-major, in int64."""
    ext = np.append(np.asarray(values, np.int64), 0)
    return walk_major_signed_sums(ext[table.rows[ids]], np.int64)


def coefficient_rows(table: WalkTable):
    """Signed edge counts per walk and per pair of visits, position by
    position.

    ``coef[i, p]`` counts the edge at position p of walk i with each
    position's sign (+1 even, -1 odd) over the whole walk, and
    ``pair_coef[k, p]`` over the positions ``p1[k]`` to ``p2[k] - 1`` of
    walk ``pair_walk[k]``; each count sits at the edge's first position.
    """
    coef = np.zeros(table.rows.shape, np.int64)
    pair_coef = np.zeros((len(table.pair_walk), table.rows.shape[1]), np.int64)

    def count(i: int, lo: int, hi: int, out: np.ndarray) -> None:
        edges = table.rows[i].tolist()
        for p in range(lo, hi):
            out[edges.index(edges[p])] += 1 if p % 2 == 0 else -1

    for i in range(len(table)):
        count(i, 0, int(table.length[i]), coef[i])
    for k, (i, p1, p2) in enumerate(zip(table.pair_walk.tolist(),
                                        table.p1.tolist(), table.p2.tolist())):
        count(i, p1, p2, pair_coef[k])
    return coef, pair_coef


def chords_of_every_walk(table: WalkTable, proto: Protograph):
    """``(start, a, b, edge)``: the chords of every walk of ``table``, one
    walk at a time at the table's full row width, walk i's at ``start[i]``
    to ``start[i + 1]`` (the first form of ``WalkTable.chords``, which
    compiled every walk and kept the result), from its own dense tables:
    each edge id's check and variable, the padding nodes for the padding id,
    and each cell's edge ids in id order, padded with -1.
    """
    width = table.rows.shape[1]
    parity = np.arange(width) % 2
    check_of, var_of, _, _ = adjacency(proto)
    node_of = np.array([check_of + [proto.n_checks], var_of + [proto.n_vars]])
    cells = [[[] for _ in range(proto.n_vars + 1)]
             for _ in range(proto.n_checks + 1)]
    for e, (c, v) in enumerate(zip(check_of, var_of)):
        cells[c][v].append(e)
    most = max(len(edges) for row in cells for edges in row)
    cell_edges = np.array([[edges + [-1] * (most - len(edges))
                            for edges in row] for row in cells])
    start = np.zeros(len(table) + 1, np.int64)
    found = ([], [], [])
    for i in np.flatnonzero(~table.simple_minimal):
        block, k = table.rows[i:i + 1], table.length[i]
        nodes = node_of[parity, block]
        # edges[0, i, j]: the base edges from check visit 2i to variable
        # visit 2j + 1, less the walk's edges at positions 2i and 2i - 1
        edges = cell_edges[nodes[:, 0::2, None], nodes[:, None, 1::2]]
        before = block[:, (np.arange(0, width, 2) - 1) % k]
        for own in (block[:, 0::2], before):
            edges[edges == own[:, :, None, None]] = -1
        hit = np.flatnonzero(edges >= 0)
        _, ci, cj, _ = np.unravel_index(hit, edges.shape)
        start[i + 1] = len(hit)
        for column, block_column in zip(found, (2 * ci, 2 * cj + 1,
                                                edges.ravel()[hit])):
            column.append(block_column)
    np.cumsum(start, out=start)
    return (start, *(np.concatenate(c) if c else np.empty(0, np.int64)
                     for c in found))


def picked_chords(compiled, ids):
    """``(k, a, b, edge)`` of walks ``ids`` from :func:`chords_of_every_walk`,
    with k the walk's index in ``ids``."""
    start, *columns = compiled
    k, picked = [], []
    for n, i in enumerate(np.asarray(ids, np.int64).tolist()):
        picked.extend(range(start[i], start[i + 1]))
        k.extend([n] * int(start[i + 1] - start[i]))
    picked = np.array(picked, np.int64)
    return (np.array(k, np.int64), *(c[picked] for c in columns))


def lift_chordless(record: CycleRecord, code: QcCode, d: int) -> bool:
    """Minimality of the realized lifted cycles in the lifted graph.

    Follows one lifted cycle's copy index around its vertex support and
    counts the edge copies induced inside it.  Exactly two per check copy
    means the induced subgraph is the cycle itself: the check-side count
    already accounts for every induced copy, so the variable side needs no
    separate pass.
    """
    Z, shifts = code.Z, code.shifts.tolist()
    check_of, var_of, by_check, _ = adjacency(code.proto)
    check_copies: set[tuple[int, int]] = set()
    var_copies: set[tuple[int, int]] = set()
    copy = 0
    for _ in range(Z // math.gcd(Z, d)):
        for p, e in enumerate(record.edge_seq):
            if p % 2 == 0:
                check_copies.add((check_of[e], copy))
                copy = (copy + shifts[e]) % Z
            else:
                var_copies.add((var_of[e], copy))
                copy = (copy - shifts[e]) % Z
    for c, i in check_copies:
        cnt = 0
        for e in by_check[c]:
            if (var_of[e], (i + shifts[e]) % Z) in var_copies:
                cnt += 1
                if cnt > 2:
                    return False
        if cnt != 2:
            return False
    return True


def _incidence(table: WalkTable, depends: np.ndarray, coef_rows: np.ndarray):
    """Edge -> (functional ids, coefficients, walk count, pair owners).

    Functional f is walk f's total, then len(table) + k is pair k, for as
    many rows as ``depends`` marks, with coefficients ``coef_rows``.  Per
    edge the walks come first, and a pair's owner is its walk's index
    among them.
    """
    owner = np.concatenate([np.arange(len(table)), table.pair_walk])
    f, pos = np.nonzero(depends)
    edges = table.rows[owner[f], pos]
    coefs = coef_rows[f, pos]
    by_edge = {}
    for e in np.flatnonzero(np.bincount(edges)):
        ids = f[edges == e]
        walks = int(np.searchsorted(ids, len(table)))
        by_edge[int(e)] = (ids, coefs[edges == e], walks,
                           np.searchsorted(ids[:walks], owner[ids[walks:]]))
    return by_edge


class EdgeTracker:
    """Violation counts re-evaluated edge by edge, at every visit.

    Functional f carries ``cur[f]`` modulo ``mod[f]``; ``by_edge[e]`` holds
    the functionals edge e can move, and ``eval_edge`` moves them all to
    every candidate value to count the violating walks.
    """

    n_permanent = 0

    def __init__(self, table: WalkTable, mod: np.ndarray, depends: np.ndarray,
                 n_values: int, coef_rows: np.ndarray):
        self.table = table
        self.n = len(table)
        self.mod = mod
        self.n_values = n_values
        self.by_edge = _incidence(table, depends, coef_rows)
        self.total = 0

    def eval_edge(self, e: int):
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
        i = ids[np.lexsort(np.vstack([t.rows[ids].T[::-1], t.ace[ids],
                                      t.length[ids]]))[0]]
        return {"length": int(t.length[i]), "ace": int(t.ace[i]),
                "total_shift": int(self.total_shift[i])}


class EdgeShiftTracker(EdgeTracker):
    def __init__(self, table: WalkTable, Z: int, constraint: AceConstraint):
        coef, pair_coef = coefficient_rows(table)
        depends = coef != 0
        np.logical_or.at(depends, table.pair_walk, pair_coef != 0)
        super().__init__(table, np.full(len(table) + len(table.pair_walk), Z),
                         np.concatenate([depends, depends[table.pair_walk]]), Z,
                         np.concatenate([coef, pair_coef]))
        self.Z = Z
        self.divisors = _divisors(Z)
        self.column = np.searchsorted(self.divisors, np.gcd(np.arange(Z), Z))
        self.viol_by_order = _order_violations(table, Z // self.divisors, constraint)

    def reset(self, shifts: np.ndarray) -> None:
        self.values = shifts
        d, realized = lift_shifts(self.table, shifts, self.Z)
        t = self.table
        pairs = span_sums(t.prefix_sums(shifts), t.pair_walk, t.p1, t.p2) % self.Z
        self.cur = np.concatenate([d, pairs])
        self.total_shift = self.cur[:self.n]
        self.violated = self.viol_by_order[np.arange(self.n), self.column[d]] & realized
        self.total = int(self.violated.sum())

    def _violates(self, hit, cur) -> np.ndarray:
        ids, _, walks, owner = hit
        column = self.column[cur[:walks]]
        return (self.viol_by_order[ids[:walks, None], column]
                & realized_lifts(self.divisors[column], owner, cur[walks:]))


class EdgeLabelTracker(EdgeTracker):
    def __init__(self, code: QcCode, constraint: AceConstraint):
        table, d, order, realized = lift_walks(code, constraint.depth)
        problem = realized & _violates(table.length * order,
                                       table.ace * order, constraint)
        ids = np.flatnonzero(problem)
        q = code.field.q
        m = (q - 1) // np.gcd(q - 1, order[ids])
        minimal = lifts_minimal(table, code, ids, d)
        table = table.subset(problem)
        self.coef, _ = coefficient_rows(table)
        # m divides the sum under every labeling when it divides q-1 and
        # every coefficient: such a lift is never canceled
        g = np.gcd.reduce(np.column_stack([self.coef,
                                           np.full(len(ids), q - 1)]), axis=1)
        cancelable = minimal & (m > 1) & (g % m != 0)
        super().__init__(table, np.where(cancelable, m, 1),
                         (self.coef != 0) & cancelable[:, None], q - 1,
                         self.coef)
        self.n_permanent = int((~cancelable).sum())
        self.total_shift = d[ids]

    def reset(self, labels: np.ndarray) -> None:
        self.values = labels
        sums = (self.coef * np.append(labels, 0)[self.table.rows]).sum(axis=1)
        self.cur = sums % self.mod
        self.violated = self.cur == 0
        self.total = int(self.violated.sum())

    def _violates(self, hit, cur) -> np.ndarray:
        return cur == 0


def _sweep_by_edge(tracker, order, max_sweeps: int, history) -> int:
    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        changed = False
        for e in order:
            e = int(e)
            ev = tracker.eval_edge(e)
            if ev is not None:
                x, counts = ev
                best_y = int(np.argmin(counts))
                if best_y != x:
                    tracker.apply(e, best_y)
                    changed = True
            if history is not None:
                history.append(tracker.total)
        if tracker.total == 0 or not changed:
            break
    return sweeps


def _optimize_by_edge(tracker: EdgeTracker, n_edges: int,
                      cfg: OptimizerConfig, history) -> OptimizeResult:
    """Seeded restarts: initial values, then the edge order, per restart."""
    rng = np.random.default_rng(cfg.rng_seed)
    restarts = 1 if tracker.n_permanent > 0 else cfg.max_restarts
    best = None
    sweeps_total = 0
    for restart in range(1, restarts + 1):
        values = rng.integers(0, tracker.n_values, size=n_edges, dtype=np.int64)
        order = (rng.permutation(n_edges)
                 if cfg.edge_order_policy == "shuffled" else np.arange(n_edges))
        tracker.reset(values)
        if tracker.total > 0 and tracker.n_permanent < tracker.n:
            sweeps_total += _sweep_by_edge(tracker, order, cfg.max_sweeps,
                                           history)
        if tracker.total == 0:
            return OptimizeResult(True, values, 0,
                                  sweeps_total, restart, None)
        if best is None or tracker.total < best[0]:
            best = (tracker.total, values.copy(), tracker.worst_violated())
    residual, values, worst = best
    return OptimizeResult(False, values, residual,
                          sweeps_total, restarts, worst)


def assign_shifts_by_edge(proto: Protograph, Z: int, constraint: AceConstraint,
                          cfg: OptimizerConfig, history=None) -> OptimizeResult:
    """``optimize.assign_shifts`` on the per-edge evaluating tracker."""
    problem = find_problematic_binary(proto, Z, constraint)
    return _optimize_by_edge(EdgeShiftTracker(problem.cycles, Z, constraint),
                             proto.n_edges, cfg, history)


def assign_labels_by_edge(code: QcCode, constraint: AceConstraint,
                          cfg: OptimizerConfig, history=None) -> OptimizeResult:
    """``optimize.assign_labels`` on the per-edge evaluating tracker."""
    return _optimize_by_edge(EdgeLabelTracker(code, constraint),
                             code.proto.n_edges, cfg, history)


class LiftedGraph:
    """Explicit expansion of a QC code as a labeled bipartite multigraph.

    Vertices are (check block, copy) and (var block, copy); edge copies are
    (base edge id, row index) with the row's GF label attached.
    """

    def __init__(self, code: QcCode):
        self.code = code
        proto, Z = code.proto, code.Z
        f = code.field
        lam = code.lambda_mult
        qm1 = max(f.q - 1, 1)
        self.Z = Z
        self.n_check_nodes = proto.n_checks * Z
        self.n_var_nodes = proto.n_vars * Z
        # adjacency: per check node and var node, list of (edge_copy_id)
        self.check_adj: list[list[int]] = [[] for _ in range(self.n_check_nodes)]
        self.var_adj: list[list[int]] = [[] for _ in range(self.n_var_nodes)]
        self.copy_check: list[int] = []
        self.copy_var: list[int] = []
        self.copy_base: list[int] = []
        self.copy_label: list[int] = []
        shifts = code.shifts.tolist()
        labels = ([0] * proto.n_edges if code.labels is None
                  else code.labels.tolist())
        check_of, var_of, _, _ = adjacency(proto)
        for e, (c, v, d, rho) in enumerate(zip(check_of, var_of, shifts,
                                               labels)):
            for i in range(Z):
                cid = len(self.copy_base)
                self.copy_check.append(c * Z + i)
                self.copy_var.append(v * Z + (i + d) % Z)
                self.copy_base.append(e)
                self.copy_label.append(f.pow_alpha((rho + i * lam) % qm1))
                self.check_adj[c * Z + i].append(cid)
                self.var_adj[v * Z + (i + d) % Z].append(cid)
        self.var_block = [vn // Z for vn in range(self.n_var_nodes)]

    def var_degree(self, var_node: int) -> int:
        return len(self.var_adj[var_node])

    def simple_cycles(self, max_len: int):
        """All vertex-simple cycles up to max_len, as edge-copy tuples.

        DFS from each check node (ascending), restricted to vertices not
        less than the start, deduplicated by frozen edge-copy set.
        """
        seen: set[frozenset] = set()
        cycles: list[tuple[int, ...]] = []

        def dfs(start_check, node, at_var, prev_copy, path, visited_c, visited_v):
            adj = self.var_adj[node] if at_var else self.check_adj[node]
            for cid in adj:
                if cid == prev_copy:
                    continue
                nxt = self.copy_check[cid] if at_var else self.copy_var[cid]
                if at_var:
                    if nxt == start_check and len(path) >= 3:
                        key = frozenset(path + [cid])
                        if len(key) == len(path) + 1 and key not in seen:
                            seen.add(key)
                            cycles.append(tuple(path + [cid]))
                        continue
                    if nxt <= start_check or nxt in visited_c:
                        continue
                else:
                    if nxt in visited_v:
                        continue
                if len(path) + 1 >= max_len:
                    continue
                (visited_c if at_var else visited_v).add(nxt)
                path.append(cid)
                dfs(start_check, nxt, not at_var, cid, path, visited_c,
                    visited_v)
                path.pop()
                (visited_c if at_var else visited_v).remove(nxt)

        for start in range(self.n_check_nodes):
            for cid in self.check_adj[start]:
                v = self.copy_var[cid]
                dfs(start, v, True, cid, [cid], {start}, {v})
        return cycles

    def cycle_ace(self, cycle: tuple[int, ...]) -> int:
        ace = 0
        for i in range(0, len(cycle), 2):
            ace += self.var_degree(self.copy_var[cycle[i]]) - 2
        return ace

    def cycle_canceled(self, cycle: tuple[int, ...]) -> bool:
        """Cancellation read off the expanded graph itself.

        A cycle is canceled when it is minimal in the lifted graph (its
        vertex support induces exactly the cycle's own edge copies) and the
        submatrix of the expanded H on its support has full rank; chorded
        cycles are never canceled.
        """
        if self.code.labels is None:
            raise ValueError("unlabeled code")
        rows = sorted({self.copy_check[cid] for cid in cycle})
        cols = sorted({self.copy_var[cid] for cid in cycle})
        induced = [
            cid
            for cid in range(len(self.copy_base))
            if self.copy_check[cid] in set(rows) and self.copy_var[cid] in set(cols)
        ]
        if len(induced) != len(cycle):
            return False
        ri = {r: i for i, r in enumerate(rows)}
        cj = {c: j for j, c in enumerate(cols)}
        f = self.code.field
        sub = [[0] * len(cols) for _ in rows]
        for cid in induced:
            sub[ri[self.copy_check[cid]]][cj[self.copy_var[cid]]] ^= (
                self.copy_label[cid]
            )
        return dense_rank(sub, f) == len(rows)

    def spectrum(self, depth: int, skip_canceled: bool) -> dict[int, float]:
        spec = {i: float("inf") for i in range(2, depth + 1, 2)}
        for cyc in self.simple_cycles(depth):
            if skip_canceled and self.cycle_canceled(cyc):
                continue
            L = len(cyc)
            spec[L] = min(spec[L], self.cycle_ace(cyc))
        return spec


def map_decode(H_dense, field: Field, priors: np.ndarray) -> np.ndarray:
    """Exhaustive MAP block decoding over every vector with zero syndrome."""
    n = H_dense.shape[1]
    best, best_p = None, -1.0
    for word in itertools.product(range(field.q), repeat=n):
        syndrome_ok = True
        for row in H_dense:
            s = 0
            for h, x in zip(row, word):
                if h and x:
                    s ^= field.mul(int(h), int(x))
            if s:
                syndrome_ok = False
                break
        if not syndrome_ok:
            continue
        p = 1.0
        for i, x in enumerate(word):
            p *= priors[i, x]
        if p > best_p:
            best_p, best = p, word
    return np.array(best, dtype=np.int64)


def traverse_lifted_cycle_set(code: QcCode, base_edges: list[int]):
    """Explicit traversal of the lifted copies of one simple base cycle.

    Follows the circulant index maps copy by copy and returns the list of
    distinct lifted cycles as (length, ace) pairs.
    """
    Z, shifts = code.Z, code.shifts.tolist()
    _, var_of, _, by_var = adjacency(code.proto)
    # orient the base cycle: edge list alternates check->var, var->check
    cycles = []
    visited_states = set()
    for z0 in range(Z):
        if (0, z0) in visited_states:
            continue
        # walk until back at (position 0, copy z0)
        pos, copy = 0, z0
        length = 0
        ace = 0
        states = []
        while True:
            e = base_edges[pos]
            states.append((pos, copy))
            if pos % 2 == 0:
                # check side -> var side through edge e
                copy = (copy + shifts[e]) % Z
                ace += len(by_var[var_of[e]]) - 2
            else:
                copy = (copy - shifts[e]) % Z
            pos = (pos + 1) % len(base_edges)
            length += 1
            if pos == 0 and copy == z0:
                break
        for st in states:
            visited_states.add(st)
        cycles.append((length, ace))
    return cycles


def lifted_walk_is_simple(code: QcCode, edge_seq) -> bool:
    """Whether every lifted cycle of one base closed walk is vertex-simple.

    Follows the circulant index maps copy by copy, as
    ``traverse_lifted_cycle_set`` does, around each lifted cycle and reports
    whether some (node, copy) repeats within one of them.
    """
    Z, shifts = code.Z, code.shifts.tolist()
    check_of, var_of, _, _ = adjacency(code.proto)
    started = set()
    for z0 in range(Z):
        if z0 in started:
            continue
        pos, copy = 0, z0
        seen = set()
        while True:
            e = edge_seq[pos]
            if pos % 2 == 0:
                state = ("check", check_of[e], copy)
                copy = (copy + shifts[e]) % Z
            else:
                state = ("var", var_of[e], copy)
                copy = (copy - shifts[e]) % Z
            if state in seen:
                return False
            seen.add(state)
            pos = (pos + 1) % len(edge_seq)
            if pos == 0:
                if copy == z0:
                    break
                started.add(copy)
    return True


def stacked_fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis, one stacked butterfly
    stage at a time on ``(..., q // 2h, 2, h)`` views."""
    q = a.shape[-1]
    out = np.array(a, dtype=np.float64, copy=True)
    h = 1
    while h < q:
        shaped = out.reshape(a.shape[:-1] + (q // (2 * h), 2, h))
        top = shaped[..., 0, :] + shaped[..., 1, :]
        bot = shaped[..., 0, :] - shaped[..., 1, :]
        out = np.stack([top, bot], axis=-2).reshape(a.shape)
        h *= 2
    return out


def node_major_leave_one_out(stack: np.ndarray, head=None) -> np.ndarray:
    """Products over axis 1 of a ``(nodes, slots, q)`` stack omitting each
    slot, times ``head`` ``(nodes, 1, q)`` when given."""
    g, deg, q = stack.shape
    pref = np.ones((g, deg, q))
    suf = np.ones((g, deg, q))
    for i in range(1, deg):
        pref[:, i] = pref[:, i - 1] * stack[:, i - 1]
        suf[:, deg - 1 - i] = suf[:, deg - i] * stack[:, deg - i]
    out = pref * suf
    if head is not None:
        out = out * head
    return out


def _reference_normalize(msgs: np.ndarray) -> np.ndarray:
    np.clip(msgs, 0.0, None, out=msgs)
    totals = msgs.sum(axis=-1, keepdims=True)
    dead = totals <= 0.0
    if np.any(dead):
        np.copyto(msgs, 1.0, where=dead)
        totals = msgs.sum(axis=-1, keepdims=True)
    msgs /= totals
    return msgs


def _node_major_slots(owner: np.ndarray, n_nodes: int, spare: int) -> np.ndarray:
    order = np.argsort(owner, kind="stable")
    deg = np.bincount(owner, minlength=n_nodes)
    first = np.cumsum(deg) - deg
    slots = np.full((n_nodes, deg.max()), spare, dtype=np.int64)
    slots[owner[order], np.arange(len(owner)) - first[owner[order]]] = order
    return slots


def node_major_qspa(H: SparseGfMatrix, priors: np.ndarray, max_iters: int,
                    normalized: list | None = None) -> DecodeResult:
    """Flooding QSPA on ``(nodes, max degree)`` slot tables, edge-major
    messages and the kernels above.

    Every normalized array (variable-to-check messages, posterior,
    check-to-variable messages, in that order per iteration) is appended
    to ``normalized`` as a copy when a list is given.
    """
    field, q = H.field, H.field.q
    edges = np.stack([H.row, H.col, H.value], axis=1)
    spare = len(edges)
    e_check, e_var, e_label = edges.T
    from_check_idx = field.mul_table[np.append(e_label, 1)]
    to_check_idx = np.argsort(from_check_idx, axis=1)
    var_slots = _node_major_slots(e_var, H.n_cols, spare)
    check_slots = _node_major_slots(e_check, H.n_rows, spare)
    syn_label = np.append(e_label, 0)[check_slots]
    syn_var = np.append(e_var, 0)[check_slots]

    def normalize(msgs):
        out = _reference_normalize(msgs)
        if normalized is not None:
            normalized.append(out.copy())
        return out

    m_cv = np.full((spare + 1, q), 1.0 / q)
    m_cv[spare] = 1.0
    m_vc = np.empty((spare + 1, q))
    conv = np.zeros((spare + 1, q))
    for it in range(1, max_iters + 1):
        inc = m_cv[var_slots]
        m_vc[var_slots] = node_major_leave_one_out(inc, priors[:, None, :])
        normalize(m_vc[:spare])
        m_vc[spare] = np.arange(q) == 0
        posterior = normalize(priors * inc.prod(axis=1))
        hard = posterior.argmax(axis=1).astype(np.int64)
        syndrome = np.bitwise_xor.reduce(
            field.mul_table[syn_label, hard[syn_var]], axis=1)
        if not syndrome.any():
            return DecodeResult(hard, True, it)
        if it == max_iters:
            return DecodeResult(hard, False, it)
        spec = stacked_fwht(np.take_along_axis(m_vc, to_check_idx, axis=1))
        conv[check_slots] = node_major_leave_one_out(spec[check_slots])
        m_cv = np.take_along_axis(stacked_fwht(conv) / q, from_check_idx,
                                  axis=1)
        normalize(m_cv[:spare])
        m_cv[spare] = 1.0
    raise AssertionError("unreachable")


class DenseEncoder:
    """Systematic encoder on the production echelon form, through a dense
    ``(parity, info)`` int64 coefficient matrix: each parity symbol is the
    XOR of one multiplication-table gather over its row."""

    def __init__(self, H: SparseGfMatrix):
        pivots = _echelon(H)
        if len(pivots) < H.n_rows:
            raise RankDeficiencyError(len(pivots), H.n_rows)
        self.field = H.field
        self.n = H.n_cols
        self.m = H.n_rows
        self.parity_positions = sorted(pivots)
        self.info_positions = [
            c for c in range(H.n_cols) if c not in pivots
        ]
        dense = np.zeros((self.m, self.n), dtype=np.int64)
        for p, c in enumerate(self.parity_positions):
            dense[p, list(pivots[c])] = list(pivots[c].values())
        # reduced pivot rows hold info columns only
        self._coef = dense[:, self.info_positions]

    @property
    def message_length(self) -> int:
        return self.n - self.m

    def encode(self, message) -> np.ndarray:
        msg = np.asarray(message, dtype=np.int64)
        word = np.zeros(self.n, dtype=np.int64)
        word[self.info_positions] = msg
        word[self.parity_positions] = np.bitwise_xor.reduce(
            self.field.mul_table[self._coef, msg], axis=1)
        return word
