"""Sparse linear algebra over GF(q): rank, systematic encoding, QSPA decoding.

The rank routine is the ground-truth oracle for the full-rank cancellation
condition; the decoder is a probability-domain q-ary sum-product (flooding
schedule) whose check-node updates run through the Walsh-Hadamard transform
over the additive group of GF(2^r).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf import Field


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
        self._pivot_rows = [pivots[c] for c in self.parity_positions]

    @property
    def message_length(self) -> int:
        return self.n - self.m

    def encode(self, message) -> np.ndarray:
        if len(message) != self.message_length:
            raise ValueError(
                f"message length {len(message)} != {self.message_length}"
            )
        f = self.field
        word = np.zeros(self.n, dtype=np.int64)
        for pos, sym in zip(self.info_positions, message):
            sym = int(sym)
            if not 0 <= sym < f.q:
                raise ValueError("message symbol out of field range")
            word[pos] = sym
        # char-2 field: c[pivot] = sum of row coefficients times info symbols
        for pos, row in zip(self.parity_positions, self._pivot_rows):
            s = 0
            for c, v in row.items():
                if word[c]:
                    s ^= f.mul(v, int(word[c]))
            word[pos] = s
        return word


def encode(H: SparseGfMatrix, message) -> np.ndarray:
    """One-shot systematic encoding; builds the echelon form each call."""
    return Encoder(H).encode(message)


@dataclass
class DecodeResult:
    hard_decision: np.ndarray
    converged: bool
    iterations_used: int


def fwht(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis (length a power of 2).

    Self-inverse up to a factor of q; diagonalizes convolution over the
    XOR group, which is exactly GF(2^r) addition.
    """
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


def _normalize(msgs: np.ndarray) -> np.ndarray:
    """Scale message rows to sum 1; underflowed rows fall back to uniform."""
    np.clip(msgs, 0.0, None, out=msgs)
    totals = msgs.sum(axis=-1, keepdims=True)
    dead = totals <= 0.0
    if np.any(dead):
        msgs = np.where(dead, 1.0, msgs)
        totals = msgs.sum(axis=-1, keepdims=True)
    return msgs / totals


def _leave_one_out(stack: np.ndarray, head: np.ndarray | None = None) -> np.ndarray:
    """Products over axis 1 omitting each position, via prefix/suffix scans.

    ``stack`` has shape (groups, deg, q); ``head`` (groups, 1, q) multiplies
    every output (used for channel priors).  Avoids dividing by zeros.
    """
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


class QspaDecoder:
    """Flooding q-ary sum-product decoder over a fixed parity-check matrix.

    Edge labels act by index permutation: variable-to-check messages are
    re-indexed from x to h*x so every check sees a plain XOR-convolution
    constraint, and the inverse permutation is applied on the way back.
    Messages stay in the probability domain and are renormalized after
    every update.
    """

    def __init__(self, H: SparseGfMatrix):
        self.H = H
        f = H.field
        self.field = f
        self.q = f.q
        edges = [(i, c, v) for i, c, v in H.entries()]
        if not edges:
            raise ValueError("cannot decode an all-zero parity-check matrix")
        self.n_edges = len(edges)
        self.e_check = np.array([e[0] for e in edges], dtype=np.int64)
        self.e_var = np.array([e[1] for e in edges], dtype=np.int64)
        self.e_label = np.array([e[2] for e in edges], dtype=np.int64)

        mul = f.mul_table
        sym = np.arange(self.q, dtype=np.int64)
        inv_labels = np.array([f.inv(int(h)) for h in self.e_label], dtype=np.int64)
        # to-check gather: msg_y[y] = msg_x[h^-1 * y]
        self.to_check_idx = mul[inv_labels[:, None], sym[None, :]]
        # from-check gather: msg_x[x] = conv[h * x]
        self.from_check_idx = mul[self.e_label[:, None], sym[None, :]]

        self.var_groups = self._group(self.e_var, H.n_cols)
        self.check_groups = self._group(self.e_check, H.n_rows)
        order = np.lexsort((np.arange(self.n_edges), self.e_check))
        self.syn_order = order
        sorted_checks = self.e_check[order]
        # reduceat boundaries over nonempty checks only; empty rows are
        # trivially satisfied and must not shift the segment starts
        self.syn_starts = np.flatnonzero(
            np.r_[True, sorted_checks[1:] != sorted_checks[:-1]]
        )

    @staticmethod
    def _group(owner: np.ndarray, n_nodes: int):
        """Bucket edge ids by node degree: list of (node_ids, (g, deg) edges)."""
        by_node: list[list[int]] = [[] for _ in range(n_nodes)]
        for e, node in enumerate(owner):
            by_node[node].append(e)
        by_deg: dict[int, list[int]] = {}
        for node, es in enumerate(by_node):
            by_deg.setdefault(len(es), []).append(node)
        groups = []
        for deg in sorted(by_deg):
            nodes = np.array(by_deg[deg], dtype=np.int64)
            eids = np.array([by_node[n] for n in by_deg[deg]], dtype=np.int64)
            groups.append((nodes, eids))
        return groups

    def syndrome_is_zero(self, hard: np.ndarray) -> bool:
        prods = self.field.mul_table[self.e_label, hard[self.e_var]]
        acc = np.bitwise_xor.reduceat(prods[self.syn_order], self.syn_starts)
        return not np.any(acc)

    def decode(self, priors: np.ndarray, max_iters: int = 80) -> DecodeResult:
        priors = np.asarray(priors, dtype=np.float64)
        n, q = self.H.n_cols, self.q
        if priors.shape != (n, q):
            raise ValueError(f"priors must have shape ({n}, {q})")
        if (not np.all(np.isfinite(priors)) or np.any(priors < 0)
                or np.any(np.abs(priors.sum(axis=1) - 1.0) > 1e-6)):
            raise ValueError("priors must be normalized probability vectors")
        if max_iters < 1:
            raise ValueError("max_iters must be >= 1")

        m_cv = np.full((self.n_edges, q), 1.0 / q)
        m_vc = np.empty((self.n_edges, q))
        posterior = np.empty((n, q))
        for it in range(1, max_iters + 1):
            for nodes, eids in self.var_groups:
                inc = m_cv[eids]
                head = priors[nodes][:, None, :]
                m_vc[eids] = _normalize(_leave_one_out(inc, head))
                posterior[nodes] = _normalize(head[:, 0, :] * inc.prod(axis=1))
            hard = posterior.argmax(axis=1).astype(np.int64)
            if self.syndrome_is_zero(hard):
                return DecodeResult(hard, True, it)
            if it == max_iters:
                return DecodeResult(hard, False, it)

            shifted = np.take_along_axis(m_vc, self.to_check_idx, axis=1)
            conv = np.empty_like(shifted)
            for _, eids in self.check_groups:
                spec = fwht(shifted[eids])
                conv[eids] = fwht(_leave_one_out(spec)) / q
            m_cv = _normalize(np.take_along_axis(conv, self.from_check_idx, axis=1))
        raise AssertionError("unreachable")


def qspa_decode(
    H: SparseGfMatrix, priors: np.ndarray, max_iters: int = 80
) -> DecodeResult:
    """Decode one frame; builds the decoder structure each call."""
    return QspaDecoder(H).decode(priors, max_iters)
