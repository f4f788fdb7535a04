"""Sparse linear algebra over GF(q): rank, systematic encoding, QSPA decoding.

The rank routine is the ground-truth oracle for the full-rank cancellation
condition; the decoder is a probability-domain q-ary sum-product (flooding
schedule) whose check-node updates run through the Walsh-Hadamard transform
over the additive group of GF(2^r).

Both work on tables built once per matrix.  The decoder numbers its edges
variable-slot-major, so the variable update reads and writes contiguous
blocks, keeps a padded ``(max degree, checks)`` slot table for the check
update, and owns every message, scan and transform buffer an iteration
uses (see :class:`QspaDecoder`).  The encoder works on a dense
``(parity, info)`` coefficient matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import Field, checked_int


class RankDeficiencyError(ValueError):
    """Encoding requested on a parity-check matrix without full row rank."""

    def __init__(self, rank: int, n_rows: int):
        super().__init__(
            f"parity-check matrix has rank {rank} < {n_rows} rows; "
            "actual code rate is higher than the design rate"
        )
        self.rank = rank
        self.n_rows = n_rows


class SparseGfMatrix:
    """Row-major sparse matrix over GF(q); no stored zeros, no duplicates."""

    def __init__(self, n_rows: int, n_cols: int, rows, field: Field):
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.field = field
        self.rows: list[list[tuple[int, int]]] = [sorted(r) for r in rows]
        if len(self.rows) != n_rows:
            raise ValueError("row count mismatch")
        for r in self.rows:
            cols = [c for c, _ in r]
            if len(set(cols)) != len(cols):
                raise ValueError("duplicate column in row")
            for c, v in r:
                if not 0 <= c < n_cols:
                    raise ValueError("column index out of range")
                if not 0 < v < field.q:
                    raise ValueError("stored values must be nonzero field elements")

    @classmethod
    def from_entries(cls, n_rows, n_cols, entries, field: Field) -> "SparseGfMatrix":
        """Accumulate (row, col, value) triplets with GF addition."""
        acc: list[dict[int, int]] = [dict() for _ in range(n_rows)]
        for r, c, v in entries:
            acc[r][c] = field.add(acc[r].get(c, 0), v)
        rows = [[(c, v) for c, v in sorted(d.items()) if v != 0] for d in acc]
        return cls(n_rows, n_cols, rows, field)

    @property
    def nnz(self) -> int:
        return sum(len(r) for r in self.rows)

    def entries(self):
        for i, row in enumerate(self.rows):
            for c, v in row:
                yield i, c, v

    def to_dense(self) -> np.ndarray:
        d = np.zeros((self.n_rows, self.n_cols), dtype=np.int64)
        for i, c, v in self.entries():
            d[i, c] = v
        return d

    def mul_vec(self, vec) -> np.ndarray:
        """Syndrome H * vec over GF(q)."""
        f = self.field
        out = np.zeros(self.n_rows, dtype=np.int64)
        for i, row in enumerate(self.rows):
            s = 0
            for c, v in row:
                s ^= f.mul(v, int(vec[c]))
            out[i] = s
        return out

    def support(self) -> set[tuple[int, int]]:
        return {(i, c) for i, c, _ in self.entries()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseGfMatrix)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.field == other.field
            and self.rows == other.rows
        )


def _echelon(H: SparseGfMatrix) -> dict[int, dict[int, int]]:
    """Reduced row echelon form over GF(q): pivot column -> reduced row.

    Rows are taken in order; each is cleared of the known pivots and
    normalized on its first surviving column, which then leaves every
    earlier pivot row.  The pivot's own coefficient (1) is not stored.
    """
    f = H.field
    pivots: dict[int, dict[int, int]] = {}
    for r in (dict(row) for row in H.rows):
        # eliminate known pivots, then normalize on the first survivor
        for c in sorted(set(r) & set(pivots)):
            factor = r.pop(c)
            for pc, pv in pivots[c].items():
                nv = f.add(r.get(pc, 0), f.mul(factor, pv))
                if nv:
                    r[pc] = nv
                else:
                    r.pop(pc, None)
        if not r:
            continue
        lead = min(r)
        inv = f.inv(r.pop(lead))
        reduced = {c: f.mul(inv, v) for c, v in r.items()}
        for c, prow in pivots.items():
            if lead in prow:
                factor = prow.pop(lead)
                for rc, rv in reduced.items():
                    nv = f.add(prow.get(rc, 0), f.mul(factor, rv))
                    if nv:
                        prow[rc] = nv
                    else:
                        prow.pop(rc, None)
        pivots[lead] = reduced
    return pivots


def rank(matrix: SparseGfMatrix) -> int:
    """Rank over GF(q): the pivot count of the reduced echelon form."""
    return len(_echelon(matrix))


def is_full_rank(matrix: SparseGfMatrix) -> bool:
    return rank(matrix) == min(matrix.n_rows, matrix.n_cols)


class Encoder:
    """Systematic encoder from the reduced row echelon form of H.

    Pivot columns hold parity symbols, the remaining columns carry the
    message; ``info_positions`` records the induced permutation so the
    mapping can be written into a code descriptor.
    """

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
        if len(message) != self.message_length:
            raise ValueError(
                f"message length {len(message)} != {self.message_length}"
            )
        msg = np.asarray(message, dtype=np.int64)
        if np.any((msg < 0) | (msg >= self.field.q)):
            raise ValueError("message symbol out of field range")
        word = np.zeros(self.n, dtype=np.int64)
        word[self.info_positions] = msg
        # char-2 field: c[pivot] = sum of row coefficients times info symbols
        word[self.parity_positions] = np.bitwise_xor.reduce(
            self.field.mul_table[self._coef, msg], axis=1
        )
        return word


def encode(H: SparseGfMatrix, message) -> np.ndarray:
    """One-shot systematic encoding; builds the echelon form each call."""
    return Encoder(H).encode(message)


@dataclass
class DecodeResult:
    hard_decision: np.ndarray
    converged: bool
    iterations_used: int


def _fwht_stages(a: np.ndarray, bufs) -> tuple[list, np.ndarray]:
    """The butterfly stages of :func:`fwht` on ``a``, and its result.

    ``a`` is the transpose of a C-ordered ``(q, ...)`` array.  Stage k
    reads the previous stage's output (``a`` first) and writes
    ``bufs[k % 2]``, two arrays of ``a``'s transposed shape; it is four
    views, ``(top, bottom, out top, out bottom)``, of whole symbol rows.
    The result is a view of the last buffer written, shaped like ``a``.
    """
    src = a.T
    q = src.shape[0]
    rows = src.reshape(q, src.size // q)
    stages = []
    h = 1
    while h < q:
        pairs = rows.reshape(q // (2 * h), 2, -1)
        rows = bufs[len(stages) % 2].reshape(rows.shape)
        out = rows.reshape(pairs.shape)
        stages.append((pairs[:, 0], pairs[:, 1], out[:, 0], out[:, 1]))
        h *= 2
    return stages, rows.reshape(src.shape).T


def fwht(a: np.ndarray, stages=None) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of 2).

    Self-inverse up to a factor of q; diagonalizes convolution over the
    XOR group, which is exactly GF(2^r) addition.

    The butterflies run symbol-major: the symbol axis goes first, the rest
    is flattened, and each stage adds and subtracts whole rows, so every
    numpy call runs over ``h x (size / q)`` contiguous values.  The stages
    alternate between two buffers.  The result is a view with the symbol
    axis last again; an input that is the transpose of a C-ordered
    ``(q, ...)`` array is read without a copy.

    ``stages`` is a ``(butterflies, result)`` pair that
    :func:`_fwht_stages` built once for ``a``'s buffer and two fixed
    buffers, which may include that one; nothing is then allocated.
    """
    if stages is None:
        a = np.asarray(a, dtype=np.float64)
        if a.shape[-1] == 1:
            return a.copy()
        stages = _fwht_stages(a, [np.empty(a.T.shape), np.empty(a.T.shape)])
    butterflies, result = stages
    for top, bottom, out_top, out_bottom in butterflies:
        np.add(top, bottom, out=out_top)
        np.subtract(top, bottom, out=out_bottom)
    return result


def _normalize(msgs: np.ndarray) -> np.ndarray:
    """Scale message rows to sum 1 in place; underflowed rows become uniform."""
    np.maximum(msgs, 0.0, out=msgs)
    totals = msgs.sum(axis=-1, keepdims=True)
    if not totals.min() > 0.0:  # one reduction when no row is dead
        np.copyto(msgs, 1.0, where=totals <= 0.0)
        totals = msgs.sum(axis=-1, keepdims=True)
    msgs /= totals
    return msgs


def _leave_one_out(stack: np.ndarray, pref: np.ndarray,
                   suf: np.ndarray) -> np.ndarray:
    """Products over axis 0 omitting each slot, via prefix/suffix scans.

    ``stack`` has shape (slots, nodes, q), so each scan step multiplies
    two contiguous (nodes, q) planes; ``pref`` and ``suf`` are buffers of
    that shape whose boundary planes, ``pref[0]`` and ``suf[-1]``, hold
    1.0 and are never written.  Avoids dividing by zeros.  The products
    overwrite ``stack``, which is returned.
    """
    deg = len(stack)
    for i in range(1, deg):
        np.multiply(pref[i - 1], stack[i - 1], out=pref[i])
        np.multiply(suf[deg - i], stack[deg - i], out=suf[deg - 1 - i])
    return np.multiply(pref, suf, out=stack)


def _slots(owner: np.ndarray, n_nodes: int, spare: int) -> np.ndarray:
    """(max degree, n_nodes) table of each node's edge ids, ascending down
    each column, padded with ``spare``."""
    order = np.argsort(owner, kind="stable")
    deg = np.bincount(owner, minlength=n_nodes)
    first = np.cumsum(deg) - deg
    slots = np.full((deg.max(), n_nodes), spare, dtype=np.int64)
    slots[np.arange(len(owner)) - first[owner[order]], owner[order]] = order
    return slots


class QspaDecoder:
    """Flooding q-ary sum-product decoder over a fixed parity-check matrix.

    Edge labels act by index permutation: variable-to-check messages are
    re-indexed from x to h*x so every check sees a plain XOR-convolution
    constraint, and the inverse permutation is applied on the way back.
    Messages stay in the probability domain and are renormalized after
    every update.

    Messages are stored edge-major, one row per edge, with edges numbered
    variable-slot-major: variables are sorted by degree (descending,
    stable; ``var_order[k]`` is the variable at sorted position k), and
    slot i (the i-th edge of a variable, in ``H.entries()`` order) of every
    variable of degree > i is one contiguous block of rows, in sorted
    order.  ``edge_order[k]`` is the ``H.entries()`` index of edge k.  The
    variable half-iteration therefore reads and writes whole blocks: its
    prefix and suffix scans multiply shrinking row prefixes of consecutive
    blocks, with no gather, no scatter and no padding, and the posterior
    of the variables of degree d is the last prefix of slot d - 1 times
    that slot.

    The check side keeps a padded ``(max degree, checks)`` slot table of
    edge ids, gathered into ``(slots, checks, q)`` for one leave-one-out
    product over contiguous planes and scattered back.  Pads point at a
    spare column that holds the Hadamard spectrum of the point mass at 0
    (all 1.0), so they only append exact factors of 1.0.  Work there
    scales with the slot overhead, checks x max degree / edges: 1.03 on
    the GF(16)/Z=9 reference code, 1.17 on GF(8)/Z=21.

    The check side runs symbol-major, ``(q, edges + 1)``: each label
    permutation is one flat ``take`` whose indices also renumber and
    transpose between the two orders, and the Hadamard butterflies of
    :func:`fwht` add whole rows of edges.  Normalization and the posterior
    stay edge-major.

    ``__init__`` builds every buffer and view an iteration uses, once:
    messages, scan buffers, the two FWHT buffers and each butterfly stage.
    They belong to the decoder, so :meth:`decode` is not reentrant: one
    decoder decodes one frame at a time, and each simulation worker builds
    its own.
    """

    def __init__(self, H: SparseGfMatrix):
        self.H = H
        self.field = H.field
        self.q = q = H.field.q
        edges = np.array(list(H.entries()), dtype=np.int64).reshape(-1, 3)
        if not len(edges):
            raise ValueError("cannot decode an all-zero parity-check matrix")
        self.n_edges = spare = len(edges)
        n_rows = spare + 1
        # variable-slot-major numbering; blocks[i] counts the variables of
        # degree > i, the rows of slot i
        var_slots = _slots(edges[:, 1], H.n_cols, spare)
        deg = np.bincount(edges[:, 1], minlength=H.n_cols)
        self.var_order = np.argsort(-deg, kind="stable")
        self.var_rank = np.argsort(self.var_order)
        blocks = (deg[:, None] > np.arange(len(var_slots))).sum(axis=0)
        self.edge_order = np.concatenate(
            [var_slots[i, self.var_order[:b]] for i, b in enumerate(blocks)])
        renumber = np.empty(n_rows, dtype=np.int64)
        renumber[np.append(self.edge_order, spare)] = np.arange(n_rows)
        self.e_check, self.e_var, self.e_label = edges[self.edge_order].T
        # from-check gather msg_x[x] = conv[h * x]; the to-check gather
        # msg_y[y] = msg_x[h^-1 * y] is its inverse; the spare row has label 1
        from_check = self.field.mul_table[np.append(self.e_label, 1)]
        to_check = np.argsort(from_check, axis=1)
        row = np.arange(n_rows)[:, None]
        # flat indices: edge-major (edges + 1, q) -> symbol-major (q, edges + 1)
        # on the way to the checks, and back on the way from them
        self.to_check_flat = np.ascontiguousarray((row * q + to_check).T)
        self.from_check_flat = (from_check * n_rows + row)[:spare]
        self.check_slots = renumber[_slots(edges[:, 0], H.n_rows, spare)]
        # syndrome terms per check slot; pads multiply by label 0
        self.syn_label = np.append(self.e_label, 0)[self.check_slots]
        self.syn_var = np.append(self.e_var, 0)[self.check_slots]

        # variable side: block i of the (edges, q) arrays is slot i; the
        # scan buffers' boundary rows (prefix block 0, and each suffix row
        # past its variable's last slot) hold 1.0 and are never written
        self._m_cv = m_cv = np.empty((spare, q))
        self._m_vc = np.empty((n_rows, q))
        self._m_vc[spare] = np.arange(q) == 0  # the point mass, never written
        self._pref, self._suf = pref, suf = np.ones((spare, q)), np.ones((spare, q))
        # degree-0 variables keep a product of 1.0
        self._total = np.ones((H.n_cols, q))
        ends = np.cumsum(blocks)
        blk = [slice(e - b, e) for e, b in zip(ends, blocks)]
        # (a, b, out) products, in order: the prefix scan up the slots, the
        # suffix scan down them, and for the variables of degree d the
        # product of all slots, prefix d - 1 times slot d - 1
        last = np.append(blocks[1:], 0)  # degree > d + 1 ends degree d + 1
        self._var_steps = (
            [(pref[blk[i - 1]][:b], m_cv[blk[i - 1]][:b], pref[blk[i]])
             for i, b in enumerate(blocks) if i]
            + [(suf[blk[i + 1]], m_cv[blk[i + 1]], suf[blk[i]][:b])
               for i, b in reversed(list(enumerate(blocks[1:])))]
            + [(pref[s][lo:], m_cv[s][lo:], self._total[lo:b])
               for s, lo, b in zip(blk, last, blocks) if lo < b])
        self._posterior = np.empty((H.n_cols, q))
        self._prior_edge = np.empty((spare, q))
        self._prior_var = np.empty((H.n_cols, q))

        # check side: two symbol-major FWHT buffers and the scan buffers;
        # the label take fills ``sym``, its transform ends in one buffer and
        # the check products go to the other, ``conv``
        sym, other = np.zeros((q, n_rows)), np.zeros((q, n_rows))
        self._sym = sym
        self._fwd = _fwht_stages(sym.T, [other, sym])
        spec, conv = (sym, other) if len(self._fwd[0]) % 2 == 0 else (other, sym)
        self._conv = conv.T
        self._back = _fwht_stages(self._conv, [spec, conv])
        stack_shape = self.check_slots.shape + (q,)
        self._stack = np.empty(stack_shape)
        self._cpref = np.ones(stack_shape)
        self._csuf = np.ones(stack_shape)

    def syndrome_is_zero(self, hard: np.ndarray) -> bool:
        prods = self.field.mul_table[self.syn_label, hard[self.syn_var]]
        return not np.bitwise_xor.reduce(prods, axis=0).any()

    def decode(self, priors: np.ndarray, max_iters: int = 80) -> DecodeResult:
        priors = np.asarray(priors, dtype=np.float64)
        n, q = self.H.n_cols, self.q
        if priors.shape != (n, q):
            raise ValueError(f"priors must have shape ({n}, {q})")
        if (not np.all(np.isfinite(priors)) or np.any(priors < 0)
                or np.any(np.abs(priors.sum(axis=1) - 1.0) > 1e-6)):
            raise ValueError("priors must be normalized probability vectors")
        checked_int(max_iters, "max_iters", 1)

        spare = self.n_edges
        m_cv, m_vc, posterior = self._m_cv, self._m_vc[:spare], self._posterior
        np.take(priors, self.e_var, axis=0, out=self._prior_edge)
        np.take(priors, self.var_order, axis=0, out=self._prior_var)
        m_cv.fill(1.0 / q)
        for it in range(1, max_iters + 1):
            for a, b, out in self._var_steps:
                np.multiply(a, b, out=out)
            np.multiply(self._pref, self._suf, out=m_vc)
            m_vc *= self._prior_edge
            _normalize(m_vc)
            _normalize(np.multiply(self._prior_var, self._total, out=posterior))
            hard = posterior.argmax(axis=1)[self.var_rank]
            converged = self.syndrome_is_zero(hard)
            if converged or it == max_iters:
                break

            np.take(self._m_vc, self.to_check_flat, out=self._sym, mode="clip")
            spec = fwht(self._sym.T, self._fwd)
            np.take(spec, self.check_slots, axis=0, out=self._stack, mode="clip")
            self._conv[self.check_slots] = _leave_one_out(
                self._stack, self._cpref, self._csuf)
            np.take(fwht(self._conv, self._back).T, self.from_check_flat,
                    out=m_cv, mode="clip")
            m_cv /= q
            _normalize(m_cv)
        return DecodeResult(hard, converged, it)


def qspa_decode(
    H: SparseGfMatrix, priors: np.ndarray, max_iters: int = 80
) -> DecodeResult:
    """Decode one frame; builds the decoder structure each call."""
    return QspaDecoder(H).decode(priors, max_iters)
