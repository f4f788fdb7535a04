"""Sparse linear algebra over GF(q): rank, systematic encoding, QSPA decoding.

The rank routine is the ground-truth oracle for the full-rank cancellation
condition; the decoder is a probability-domain q-ary sum-product (flooding
schedule) whose check-node updates run through the Walsh-Hadamard transform
over the additive group of GF(2^r).

Both work on tables built once per matrix.  The decoder numbers its edges
variable-slot-major, so the variable update reads and writes contiguous
blocks, runs the check update symbol-major in padded check-slot order, and
owns every message, scan and transform buffer an iteration uses (see
:class:`QspaDecoder`).  The encoder keeps one row of parity symbols per
message bit and XORs the rows of the bits a message sets (see
:class:`Encoder`).
"""

from __future__ import annotations

import itertools
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

    def entries(self):
        for i, row in enumerate(self.rows):
            for c, v in row:
                yield i, c, v

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


class Encoder:
    """Systematic encoder from the reduced row echelon form of H.

    Pivot columns hold parity symbols, the remaining columns carry the
    message; ``info_positions`` records the induced permutation so the
    mapping can be written into a code descriptor.

    Parity symbol p is the GF(2^r) sum of ``C[p, j] * u[j]`` over the info
    symbols u, with C the reduced pivot rows.  Multiplication by a
    coefficient is GF(2)-linear in the bits of u[j], so the encoder keeps
    one uint8 row per (info position j, bit b), the m parity symbols
    ``C[:, j] * 2^b``, padded to whole 64-bit words, and a message's parity
    is the XOR of the rows of the bits it sets.  The table takes about
    k * r * m bytes.
    """

    def __init__(self, H: SparseGfMatrix):
        pivots = _echelon(H)
        if len(pivots) < H.n_rows:
            raise RankDeficiencyError(len(pivots), H.n_rows)
        self.field = f = H.field
        self.n = H.n_cols
        self.m = m = H.n_rows
        self.parity_positions = sorted(pivots)
        self.info_positions = [
            c for c in range(H.n_cols) if c not in pivots
        ]
        self._parity = np.array(self.parity_positions, dtype=np.intp)
        self._info = np.array(self.info_positions, dtype=np.intp)
        # reduced pivot rows hold info columns only: (parity, info, value)
        rows = [pivots[c] for c in self.parity_positions]
        lengths = [len(row) for row in rows]
        nnz = sum(lengths)
        parity = np.repeat(np.arange(m), lengths)
        info_index = np.zeros(self.n, dtype=np.intp)
        info_index[self._info] = np.arange(self.message_length)
        info = info_index[np.fromiter(
            itertools.chain.from_iterable(rows), np.intp, nnz)]
        coef = np.fromiter(itertools.chain.from_iterable(
            row.values() for row in rows), np.intp, nnz)
        planes = np.zeros((self.message_length, f.r, -(-m // 8) * 8), np.uint8)
        for b in range(f.r):
            planes[info, b, parity] = f.mul_table[coef, 1 << b]
        self._planes = planes.reshape(-1, planes.shape[2]).view(np.uint64)

    @property
    def message_length(self) -> int:
        return self.n - self.m

    def encode(self, message) -> np.ndarray:
        if len(message) != self.message_length:
            raise ValueError(
                f"message length {len(message)} != {self.message_length}"
            )
        msg = np.asarray(message)
        if msg.dtype.kind not in "iu" or msg.ndim != 1:
            raise ValueError(f"message: need integer symbols, not a "
                             f"{msg.dtype} array of shape {msg.shape}")
        if np.any((msg < 0) | (msg >= self.field.q)):
            raise ValueError("message symbol out of field range")
        # table row j * r + b joins the XOR when bit b of symbol j is set
        bits = np.unpackbits(msg.astype(np.uint8)[:, None], axis=1,
                             count=self.field.r, bitorder="little")
        parity = np.bitwise_xor.reduce(
            self._planes.take(np.flatnonzero(bits), axis=0), axis=0)
        word = np.zeros(self.n, dtype=np.int64)
        word[self._info] = msg
        word[self._parity] = parity.view(np.uint8)[:self.m]
        return word


@dataclass
class DecodeResult:
    """One frame's decision; ``dead_row_resets`` counts the message and
    posterior rows, over all iterations, that summed to zero and were
    reset to uniform."""

    hard_decision: np.ndarray
    converged: bool
    iterations_used: int
    dead_row_resets: int = 0


def _fwht_stages(bufs) -> tuple[list, np.ndarray]:
    """The butterfly stages of :func:`fwht` through ``bufs``, and its result.

    ``bufs`` holds log2(q) + 1 arrays of one shape, symbol axis first, and
    stage k reads ``bufs[k]`` and writes ``bufs[k + 1]``.  A stage is four
    views, ``(top, bottom, out top, out bottom)``, of whole symbol rows:
    splitting the symbol axis keeps every view on its buffer's memory,
    whatever the other axes' strides.  The result is ``bufs[-1]`` with the
    symbol axis last.
    """
    q = bufs[0].shape[0]
    stages = []
    for k, (src, dst) in enumerate(zip(bufs, bufs[1:])):
        h = 1 << k
        shape = (q // (2 * h), 2, h) + src.shape[1:]
        pairs, out = src.reshape(shape), dst.reshape(shape)
        stages.append((pairs[:, 0], pairs[:, 1], out[:, 0], out[:, 1]))
    return stages, bufs[-1].T


def fwht(a: np.ndarray, stages=None) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of 2).

    Self-inverse up to a factor of q; diagonalizes convolution over the
    XOR group, which is exactly GF(2^r) addition.

    The butterflies run symbol-major: the symbol axis goes first and each
    stage adds and subtracts whole rows, so on a C-ordered ``(q, ...)``
    buffer every numpy call runs over ``h x (size / q)`` contiguous
    values.  The stages alternate between two buffers.  The result is a
    view with the symbol axis last again; the input is read in place.

    ``stages`` is a ``(butterflies, result)`` pair that
    :func:`_fwht_stages` built once for fixed buffers, one of them
    holding ``a``; nothing is then allocated.
    """
    if stages is None:
        a = np.asarray(a, dtype=np.float64)
        q = a.shape[-1]
        if q == 1:
            return a.copy()
        bufs = [np.empty(a.T.shape), np.empty(a.T.shape)]
        stages = _fwht_stages(
            [a.T] + [bufs[k % 2] for k in range(q.bit_length() - 1)])
    butterflies, result = stages
    for top, bottom, out_top, out_bottom in butterflies:
        np.add(top, bottom, out=out_top)
        np.subtract(top, bottom, out=out_bottom)
    return result


def _normalize(msgs: np.ndarray) -> int:
    """Scale message rows to sum 1 in place; underflowed rows become
    uniform.  Returns the number of rows reset that way.

    Entries must be non-negative and free of -0.0, which would survive the
    division; :class:`QspaDecoder` clamps what can break that.
    """
    totals = msgs.sum(axis=-1, keepdims=True)
    dead = 0
    if not totals.min() > 0.0:  # one reduction when no row is dead
        zero = totals <= 0.0
        dead = int(np.count_nonzero(zero))
        np.copyto(msgs, 1.0, where=zero)
        totals = msgs.sum(axis=-1, keepdims=True)
    msgs /= totals
    return dead


def _leave_one_out(stack: np.ndarray, pref: np.ndarray,
                   suf: np.ndarray) -> np.ndarray:
    """Products over axis 0 omitting each slot, via prefix/suffix scans.

    ``stack`` has shape (slots, ...), so each scan step multiplies two
    planes, contiguous ones when ``stack`` is C-ordered; ``pref`` and
    ``suf`` are buffers of that shape whose boundary planes, ``pref[0]``
    and ``suf[-1]``, hold 1.0 and are never written.  Avoids dividing by
    zeros.  The products overwrite ``stack``, which is returned.
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

    The check side runs in padded check-slot order on two symbol-major
    ``(q, max check degree x checks)`` buffers: column ``i * checks + c``
    holds slot i (the i-th edge, in ``H.entries()`` order) of check c.
    Pads read the spare point-mass row, whose spectrum is all 1.0, so they
    only append exact factors of 1.0.  Work there scales with the slot
    overhead, checks x max degree / edges: 1.03 on the GF(16)/Z=9
    reference code, 1.17 on GF(8)/Z=21.  The to-check label permutation
    is one flat ``take`` from the edge-major messages whose indices also
    transpose and place each edge in its slot, and the butterflies of
    :func:`fwht` add whole rows.  The forward transform's last stage
    writes slot-major, ``(slots, q, checks)``, so each scan step of
    :func:`_leave_one_out` multiplies two contiguous planes, in place on
    the spectrum; the back transform's first stage reads the products
    from there, and one flat ``take`` returns edge-major messages.
    (Scanning ``(slots, checks, q)`` views of a symbol-major buffer is the
    same arithmetic, but each of its 2 x (max degree - 1) steps then pays
    numpy's strided-loop set-up, which costs more than the two strided
    butterfly stages.)  Normalization and the posterior stay edge-major.

    Only the transform makes negative values (round-off) or -0.0, so the
    check-to-variable messages are clamped at 0.0, and the priors once
    per frame; every other product is then non-negative without -0.0, and
    the other normalizations need no clamp.

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
        _, self.e_var, self.e_label = edges[self.edge_order].T
        # from-check gather msg_x[x] = conv[h * x]; the to-check gather
        # msg_y[y] = msg_x[h^-1 * y] is its inverse; the spare row has label 1
        from_check = self.field.mul_table[np.append(self.e_label, 1)]
        to_check = np.argsort(from_check, axis=1)
        self.check_slots = renumber[_slots(edges[:, 0], H.n_rows, spare)]
        # flat indices: edge-major (edges + 1, q) -> symbol-major
        # (q, slots x checks) on the way to the checks, and back on the way
        # from them; col[k] is the column of edge k
        cols = self.check_slots.ravel()
        width = len(cols)
        self.to_check_flat = np.ascontiguousarray(cols * q + to_check[cols].T)
        col = np.empty(spare, dtype=np.int64)
        real = cols < spare
        col[cols[real]] = np.flatnonzero(real)
        self.from_check_flat = from_check[:spare] * width + col[:, None]
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

        # check side: two (q, slots x checks) buffers.  The label take
        # fills bufs[0]; the forward transform alternates between them and
        # its last stage writes the other buffer's memory slot-major,
        # (slots, q, checks), where the scans multiply contiguous planes
        # and leave the check products; the back transform's first stage
        # reads them from there, and its last stage ends in bufs[0]
        r = q.bit_length() - 1
        bufs = [np.zeros((q, width)), np.zeros((q, width))]
        self._sym = bufs[0]
        rows = [b.reshape((q,) + self.check_slots.shape) for b in bufs]
        self._slot = bufs[r % 2].reshape(len(self.check_slots), q, -1)
        self._spec = self._slot.transpose(1, 0, 2)
        self._fwd = _fwht_stages([rows[k % 2] for k in range(r)] + [self._spec])
        self._back = _fwht_stages(
            [self._spec] + [rows[(r + 1 + k) % 2] for k in range(r)])
        self._cpref = np.ones(self._slot.shape)
        self._csuf = np.ones(self._slot.shape)

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
        # -0.0 passes validation; as +0.0 it keeps -0.0 out of every product
        np.maximum(self._prior_edge, 0.0, out=self._prior_edge)
        np.maximum(self._prior_var, 0.0, out=self._prior_var)
        m_cv.fill(1.0 / q)
        dead = 0
        for it in range(1, max_iters + 1):
            for a, b, out in self._var_steps:
                np.multiply(a, b, out=out)
            np.multiply(self._pref, self._suf, out=m_vc)
            m_vc *= self._prior_edge
            dead += _normalize(m_vc)
            dead += _normalize(
                np.multiply(self._prior_var, self._total, out=posterior))
            hard = posterior.argmax(axis=1)[self.var_rank]
            converged = self.syndrome_is_zero(hard)
            if converged or it == max_iters:
                break

            np.take(self._m_vc, self.to_check_flat, out=self._sym, mode="clip")
            fwht(self._sym.T, self._fwd)
            _leave_one_out(self._slot, self._cpref, self._csuf)
            np.take(fwht(self._spec.T, self._back).T, self.from_check_flat,
                    out=m_cv, mode="clip")
            # no 1/q after the inverse transform: _normalize scales each row
            # to sum 1, and dividing first by a power of two changes no
            # normalized value (only where x/q is subnormal, and loses bits)
            np.maximum(m_cv, 0.0, out=m_cv)
            dead += _normalize(m_cv)
        return DecodeResult(hard, converged, it, dead)

