"""Sparse linear algebra over GF(q): rank, systematic encoding, QSPA decoding.

The rank routine is the ground-truth oracle for the full-rank cancellation
condition; the decoder is a probability-domain q-ary sum-product (flooding
schedule) whose check-node updates run through the Walsh-Hadamard transform
over the additive group of GF(2^r).

Both work on tables built once per matrix.  The decoder numbers its edges
variable-slot-major, so the variable update reads and writes contiguous
blocks, runs the check update symbol-major in padded check-slot order, and
owns every message, scan and transform buffer an iteration uses.  It
decodes a stream of frames in lanes, the copies of one block-diagonal
graph, and refills a lane as soon as its frame stops; each lane is
bit-identical to decoding its frame alone (see :class:`QspaDecoder`).
The encoder keeps one row of parity symbols per message bit and XORs the
rows of the bits a message sets (see :class:`Encoder`).
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
    """Sparse matrix over GF(q) as its sorted nonzero entries.

    ``row``, ``col`` and ``value`` are read-only int64 arrays in row-major
    order, with no zero value and no cell twice; row i is the span
    ``row_ptr[i]:row_ptr[i + 1]``.  ``entries`` is an integer array or
    sequence of ``(row, col, value)`` triplets; triplets of one cell are
    summed with GF addition (XOR), and a cell that sums to 0 is dropped.
    """

    def __init__(self, n_rows: int, n_cols: int, entries, field: Field):
        self.n_rows, self.n_cols, self.field = n_rows, n_cols, field
        t = np.asarray(entries)
        if t.size and (t.ndim != 2 or t.shape[1] != 3
                       or t.dtype.kind not in "iu"):
            raise ValueError("entries must be integer (row, col, value) "
                             "triplets")
        t = t.astype(np.int64).reshape(-1, 3)
        for a, hi, name in zip(t.T, (n_rows, n_cols, field.q),
                               ("row", "column", "value")):
            if len(a) and (a.min() < 0 or a.max() >= hi):
                bad = a[(a < 0) | (a >= hi)][0]
                raise ValueError(f"{name} {bad} out of range [0, {hi})")
        # cells in row-major order, each the XOR of its triplets' values
        cell, at = np.unique(t[:, 0] * n_cols + t[:, 1], return_inverse=True)
        value = np.zeros(len(cell), np.int64)
        np.bitwise_xor.at(value, at, t[:, 2])
        keep = value != 0
        self.row, self.col = np.divmod(cell[keep], n_cols)
        self.value = value[keep]
        self.row_ptr = np.searchsorted(self.row, np.arange(n_rows + 1))
        for a in (self.row, self.col, self.value, self.row_ptr):
            a.flags.writeable = False

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseGfMatrix)
            and (self.n_rows, self.n_cols, self.field)
            == (other.n_rows, other.n_cols, other.field)
            and all(np.array_equal(a, b) for a, b in zip(
                (self.row, self.col, self.value),
                (other.row, other.col, other.value)))
        )


def _echelon(H: SparseGfMatrix) -> dict[int, dict[int, int]]:
    """Reduced row echelon form over GF(q): pivot column -> reduced row.

    Rows are taken in order; each is cleared of the known pivots and
    normalized on its first surviving column, which then leaves every
    earlier pivot row.  The pivot's own coefficient (1) is not stored.
    """
    f = H.field
    pivots: dict[int, dict[int, int]] = {}
    cols, values, ptr = H.col.tolist(), H.value.tolist(), H.row_ptr.tolist()
    for lo, hi in zip(ptr, ptr[1:]):
        r = dict(zip(cols[lo:hi], values[lo:hi]))
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


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1, keepdims=True)``, added in numpy's own order.

    Along a contiguous last axis numpy sums a row of 8 to 128 values into
    8 running sums joined as ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) +
    (r6 + r7))``.  For q = 8 the same adds run here as three adds of
    column views, in place of one short reduction per row; that is the
    one row length where the views were measured faster end to end
    (GF(8) decoding), so every other q calls numpy's reduce.  The sums
    are numpy's bit for bit, except that a row of only -0.0 sums to -0.0
    here and to +0.0 in numpy, which starts from its identity;
    :func:`_normalize` resets such a row either way.
    """
    if a.shape[-1] != 8:
        return a.sum(axis=-1, keepdims=True)
    a = a[..., 0::2] + a[..., 1::2]
    a = a[..., 0::2] + a[..., 1::2]
    return a[..., 0::2] + a[..., 1::2]


def _normalize(msgs: np.ndarray):
    """Scale message rows to sum 1 in place; underflowed rows become
    uniform.  ``msgs`` is a ``(rows, lanes, q)`` view, row r of lane b
    being row ``r * lanes + b`` of its buffer.  Returns 0 when no row
    summed to zero, else the rows reset per lane.  Row sums follow numpy's
    pairwise order (:func:`_row_sums`), so they equal ``msgs.sum(-1)``.

    Entries must be non-negative and free of -0.0, which would survive the
    division; :class:`QspaDecoder` clamps what can break that.
    """
    totals = _row_sums(msgs)
    if totals.min() > 0.0:  # one reduction when no row is dead
        msgs /= totals
        return 0
    zero = totals <= 0.0
    np.copyto(msgs, 1.0, where=zero)
    msgs /= _row_sums(msgs)
    return np.count_nonzero(zero, axis=(0, 2))


def _leave_one_out(stack: np.ndarray, pref: np.ndarray,
                   suf: np.ndarray) -> np.ndarray:
    """Products over axis 0 omitting each slot, via prefix/suffix scans.

    ``stack`` has shape (slots, ...), so each scan step multiplies two
    planes, contiguous ones when ``stack`` is C-ordered; ``pref`` and
    ``suf`` are buffers of that shape, and the caller sets their boundary
    planes, ``pref[0]`` and ``suf[-1]``, to 1.0 before each call (this
    function reads them and never writes them).  Avoids dividing by zeros.
    The products overwrite ``stack``, which is returned.
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
    slot i (the i-th edge of a variable, in H's entry order) of every
    variable of degree > i is one contiguous block of rows, in sorted
    order.  ``edge_order[k]`` is the H entry index of edge k.  The
    variable half-iteration therefore reads and writes whole blocks: its
    prefix and suffix scans multiply shrinking row prefixes of consecutive
    blocks, with no gather, no scatter and no padding, and the posterior
    of the variables of degree d is the last prefix of slot d - 1 times
    that slot.

    The check side runs in padded check-slot order on two symbol-major
    ``(q, max check degree x checks)`` buffers: column ``i * checks + c``
    holds slot i (the i-th edge, in H's entry order) of check c.
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

    A decoder has ``lanes`` lanes and decodes one frame in each: it is the
    decoder above built on the block-diagonal matrix of ``lanes`` copies of
    H, numbered lane-minor (copy b of variable v is variable
    ``v * lanes + b``, copy b of check c is check ``c * lanes + b``).  The
    stable degree sort then puts edge k of lane b on row
    ``k * lanes + b``, so every buffer keeps its 2-D shape and a lane's
    state is a strided view, such as ``m_cv.reshape(-1, lanes, q)[:, b]``.
    Each row sees the operands of its serial decode in the same order, and
    every reduction runs over one row's contiguous q symbols or one check
    column's slots, so each lane is bit-identical to a one-lane decode of
    its frame.  :meth:`stream` refills a lane with the next frame as soon
    as its frame stops; :meth:`decode` is the one-frame stream.

    ``__init__`` builds every buffer and view an iteration uses, once:
    messages, scan buffers, the two FWHT buffers and each butterfly stage.
    The scans of both half-iterations borrow the memory of buffers that
    are idle while they run, and their boundary rows are set to 1.0
    before each scan: on the GF(8)/Z=21 reference code a one-lane decoder
    holds 0.53 MiB and a four-lane one 2.03 MiB (tracemalloc).  The
    buffers belong to the decoder, so one decoder runs one stream at a
    time, and each simulation worker builds its own.
    """

    def __init__(self, H: SparseGfMatrix, lanes: int = 1):
        self.H = H
        self.field = H.field
        self.q = q = H.field.q
        self.lanes = B = checked_int(lanes, "lanes", 1)
        edges = np.stack([H.row, H.col, H.value], axis=1)
        if not len(edges):
            raise ValueError("cannot decode an all-zero parity-check matrix")
        # the block-diagonal matrix's entries: check, then copy, then H's
        # order within the check
        copies = edges[:, None].repeat(B, axis=1)
        copies[..., :2] = copies[..., :2] * B + np.arange(B)[:, None]
        edges = copies.reshape(-1, 3)[
            np.argsort(copies[..., 0].ravel(), kind="stable")]
        n_checks, n_vars = H.n_rows * B, H.n_cols * B
        self.n_edges = spare = len(edges)
        n_rows = spare + 1
        # variable-slot-major numbering; blocks[i] counts the variables of
        # degree > i, the rows of slot i
        var_slots = _slots(edges[:, 1], n_vars, spare)
        deg = np.bincount(edges[:, 1], minlength=n_vars)
        self.var_order = np.argsort(-deg, kind="stable")
        self.var_rank = np.argsort(self.var_order)
        blocks = (deg[:, None] > np.arange(len(var_slots))).sum(axis=0)
        self.edge_order = np.concatenate(
            [var_slots[i, self.var_order[:b]] for i, b in enumerate(blocks)])
        renumber = np.empty(n_rows, dtype=np.int64)
        renumber[np.append(self.edge_order, spare)] = np.arange(n_rows)
        self.e_var = edges[self.edge_order, 1]
        e_label = edges[self.edge_order, 2]
        check_slots = renumber[_slots(edges[:, 0], n_checks, spare)]
        # per label h, the from-check gather msg_x[x] = conv[h * x] and its
        # inverse, the to-check gather msg_y[y] = msg_x[h^-1 * y]; the spare
        # row has label 1
        from_check = self.field.mul_table
        to_check = np.argsort(from_check, axis=1)
        # flat indices: edge-major (edges + 1, q) -> symbol-major
        # (q, slots x checks) on the way to the checks, and back on the way
        # from them; col[k] is the column of edge k
        cols = check_slots.ravel()
        width = len(cols)
        self.to_check_flat = np.ascontiguousarray(
            cols * q + to_check[np.append(e_label, 1)[cols]].T)
        col = np.empty(spare, dtype=np.int64)
        real = cols < spare
        col[cols[real]] = np.flatnonzero(real)
        self.from_check_flat = from_check[e_label] * width + col[:, None]
        # syndrome terms per check slot; pads multiply by label 0
        self.syn_label = np.append(e_label, 0)[check_slots]
        self.syn_var = np.append(self.e_var, 0)[check_slots]
        # the build tables go before the buffers exist, off the peak
        del edges, copies, var_slots, renumber, col, real

        # buffers whose live ranges do not overlap share memory.  The two
        # transform buffers are free in the variable half-iteration and
        # hold its prefix and suffix scans; m_cv is free from the variable
        # update to the from-check take and holds the check scans' suffix
        # products, and the transform buffer the forward transform does not
        # end in holds their prefix products (q x slots x checks >= q x
        # edges).  The boundary rows and planes that a scan reads as 1.0
        # are set before it.
        r = q.bit_length() - 1
        bufs = [np.empty((q, width)), np.empty((q, width))]
        scratch = np.empty(q * width)
        self._m_cv = m_cv = scratch[:spare * q].reshape(spare, q)
        pref, suf = (b.reshape(-1)[:spare * q].reshape(spare, q) for b in bufs)
        self._pref, self._suf = pref, suf
        self._m_vc = np.empty((n_rows, q))
        self._m_vc[spare] = np.arange(q) == 0  # the point mass, never written
        # degree-0 variables keep a product of 1.0
        self._total = np.ones((n_vars, q))

        # variable side: block i of the (edges, q) arrays is slot i; the
        # scans' boundary rows are prefix block 0 and each suffix row past
        # its variable's last slot
        ends = np.cumsum(blocks)
        blk = [slice(e - b, e) for e, b in zip(ends, blocks)]
        last = np.append(blocks[1:], 0)  # degree > d + 1 ends degree d + 1
        self._var_ones = [pref[blk[0]]] + [
            suf[s][lo:] for s, lo, b in zip(blk, last, blocks) if lo < b]
        # (a, b, out) products, in order: the prefix scan up the slots, the
        # suffix scan down them, and for the variables of degree d the
        # product of all slots, prefix d - 1 times slot d - 1
        self._var_steps = (
            [(pref[blk[i - 1]][:b], m_cv[blk[i - 1]][:b], pref[blk[i]])
             for i, b in enumerate(blocks) if i]
            + [(suf[blk[i + 1]], m_cv[blk[i + 1]], suf[blk[i]][:b])
               for i, b in reversed(list(enumerate(blocks[1:])))]
            + [(pref[s][lo:], m_cv[s][lo:], self._total[lo:b])
               for s, lo, b in zip(blk, last, blocks) if lo < b])
        self._posterior = np.empty((n_vars, q))
        # a lane that never holds a frame decodes uniform priors
        self._prior_edge = np.full((spare, q), 1.0 / q)
        self._prior_var = np.full((n_vars, q), 1.0 / q)
        # in H's numbering, the variable of each edge and of each sorted
        # position of a lane: where a frame's priors go
        self._frame_var = self.e_var[::B] // B
        self._frame_order = self.var_order[::B] // B

        # check side: two (q, slots x checks) buffers.  The label take
        # fills bufs[0]; the forward transform alternates between them and
        # its last stage writes the other buffer's memory slot-major,
        # (slots, q, checks), where the scans multiply contiguous planes
        # and leave the check products; the back transform's first stage
        # reads them from there, and its last stage ends in bufs[0]
        self._sym = bufs[0]
        rows = [b.reshape((q,) + check_slots.shape) for b in bufs]
        self._slot = bufs[r % 2].reshape(len(check_slots), q, -1)
        self._spec = self._slot.transpose(1, 0, 2)
        self._fwd = _fwht_stages([rows[k % 2] for k in range(r)] + [self._spec])
        self._back = _fwht_stages(
            [self._spec] + [rows[(r + 1 + k) % 2] for k in range(r)])
        self._cpref = bufs[(r + 1) % 2].reshape(self._slot.shape)
        self._csuf = scratch.reshape(self._slot.shape)

    def syndrome_is_zero(self, hard: np.ndarray) -> np.ndarray:
        """Per lane, whether its word has a zero syndrome; ``hard`` holds
        every lane's symbols, lane-minor."""
        prods = self.field.mul_table[self.syn_label, hard[self.syn_var]]
        return ~np.bitwise_xor.reduce(prods, axis=0).reshape(
            -1, self.lanes).any(axis=0)

    def decode(self, priors: np.ndarray, max_iters: int = 80) -> DecodeResult:
        """One frame's decision: the stream of that frame alone."""
        [(_, result)] = self.stream([(None, priors)], max_iters)
        return result

    def _load(self, lane: int, priors) -> None:
        """Validate one frame's ``(variables, q)`` priors and place them in
        ``lane``."""
        priors = np.asarray(priors, dtype=np.float64)
        n, B, q = self.H.n_cols, self.lanes, self.q
        if priors.shape != (n, q):
            raise ValueError(f"priors must have shape ({n}, {q})")
        if (not np.all(np.isfinite(priors)) or np.any(priors < 0)
                or np.any(np.abs(priors.sum(axis=1) - 1.0) > 1e-6)):
            raise ValueError("priors must be normalized probability vectors")
        # -0.0 passes validation; as +0.0 it keeps -0.0 out of every product
        priors = np.maximum(priors, 0.0)
        self._prior_edge.reshape(-1, B, q)[:, lane] = priors[self._frame_var]
        self._prior_var.reshape(-1, B, q)[:, lane] = priors[self._frame_order]

    def stream(self, frames, max_iters: int = 80):
        """Decode ``(tag, priors)`` pairs; yield ``(tag, DecodeResult)`` as
        each frame stops, which need not be the order they came in.

        A frame takes the first free lane and frees it at the first
        iteration where its syndrome is zero, or after ``max_iters``.  A
        lane with no frame left keeps computing, and its results are
        ignored.
        """
        checked_int(max_iters, "max_iters", 1)
        B, q, spare = self.lanes, self.q, self.n_edges
        m_cv, m_vc, posterior = self._m_cv, self._m_vc[:spare], self._posterior
        lane_cv, lane_vc, lane_posterior = (
            a.reshape(-1, B, q) for a in (m_cv, m_vc, posterior))
        frames = iter(frames)
        tags, live = [None] * B, [False] * B
        first = [0] * B  # the iteration each lane's frame started in
        dead = np.zeros(B, dtype=np.int64)
        stopped = list(range(B))
        for it in itertools.count():
            if stopped:
                for b in stopped:
                    frame = next(frames, None)
                    live[b] = frame is not None
                    if live[b]:
                        tags[b], priors = frame
                        self._load(b, priors)
                        first[b] = it
                if not any(live):
                    return
                # the next iteration at which a lane reaches max_iters
                cap = min(first[b] for b in range(B) if live[b]) + max_iters - 1
            if it:  # the first pass starts every lane: no check update
                np.take(self._m_vc, self.to_check_flat, out=self._sym,
                        mode="clip")
                fwht(self._sym.T, self._fwd)
                self._cpref[0] = self._csuf[-1] = 1.0
                _leave_one_out(self._slot, self._cpref, self._csuf)
                np.take(fwht(self._spec.T, self._back).T,
                        self.from_check_flat, out=m_cv, mode="clip")
                # no 1/q after the inverse transform: _normalize scales each
                # row to sum 1, and dividing first by a power of two changes
                # no normalized value (only where x/q is subnormal, and
                # loses bits)
                np.maximum(m_cv, 0.0, out=m_cv)
                dead += _normalize(lane_cv)
            if stopped:  # a refilled lane starts from uniform messages
                lane_cv[:, stopped] = 1.0 / q
                dead[stopped] = 0

            for ones in self._var_ones:
                ones.fill(1.0)
            for a, b, out in self._var_steps:
                np.multiply(a, b, out=out)
            np.multiply(self._pref, self._suf, out=m_vc)
            m_vc *= self._prior_edge
            dead += _normalize(lane_vc)
            np.multiply(self._prior_var, self._total, out=posterior)
            dead += _normalize(lane_posterior)
            hard = posterior.argmax(axis=1)[self.var_rank]
            converged = self.syndrome_is_zero(hard)
            stopped = []
            if it == cap or converged.any():  # some lane may stop
                stopped = [b for b in range(B) if live[b] and (
                    converged[b] or it - first[b] + 1 == max_iters)]
            for b in stopped:
                yield tags[b], DecodeResult(hard[b::B].copy(),
                                            bool(converged[b]),
                                            it - first[b] + 1, int(dead[b]))
