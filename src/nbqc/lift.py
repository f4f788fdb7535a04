"""Quasi-cyclic lifting of a protograph over GF(2^r).

Each base edge carries a cyclic shift d in [0, Z-1] (its Z copies form a
circulant permutation block) and, once labeled, an exponent rho in
[0, q-2]; the expanded block is then the alpha-multiplied circulant whose
row i holds alpha^(rho + i*lambda).  A single global multiplier lambda with
(q-1) | lambda*Z is shared by all blocks.

A base closed walk of length l with total (alternating) shift d lifts to
gcd(Z, d) closed walks of length l * O, O = Z / gcd(Z, d).  For a simple
base cycle these are always vertex-simple cycles; for a walk that revisits
nodes they are cycles only when no two visits of the same node land on the
same copy, which this module tests exactly.  ACE spectra of the lifted
graph are computed from base walks through that projection.

Cancellation: the full-rank condition applies to every cycle of the lifted
graph that is simple and minimal there (no repeated vertices, no chords
through its support).  Around any such cycle the row-dependent lambda terms
cancel within each check copy, so the condition is always
O * (alternating sum of label exponents) != 0 mod (q-1); for cycles induced
by simple minimal protograph cycles this is the classical statement, and
lifts of simple minimal base cycles are chordless automatically.  Cycles
with chorded supports are conservatively never canceled.

All of this walk algebra runs on one compiled form of a walk list,
:class:`WalkTable`: a padded edge-id row per walk with its length, ACE,
simple-minimal flag and signed edge coefficients.  The total shift and the
alternating label sum are the same linear functional of per-edge values;
one vectorised kernel turns a shift vector into total shifts, cycle orders
and realizability for many walks at once, and spectra are a group-by-min
over lifted lengths.  Only the chordless test for realized walks that
revisit a node still runs walk by walk.  A protograph has one walk table,
:func:`walk_table`, enumerated once at the deepest depth asked for.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .codec import SparseGfMatrix
from .gf import Field, min_lambda
from .protograph import (
    CycleRecord,
    Protograph,
    enumerate_closed_walks,
    from_base_matrix,
)

INF = math.inf
# the shift optimizer keeps a (walks, Z) residue table and expansion
# writes Z entries per base edge; codes from files and the CLI stay below
MAX_Z = 1 << 16


class ShiftCollisionError(ValueError):
    """Two parallel edges with equal shift would overlap in the expansion."""


class UnsupportedStructureError(ValueError):
    """Algebraic cancellation requested for a walk outside its hypothesis."""


class AceSpectrum:
    """Minimum-ACE value per even cycle length, up to a depth.

    ``values[i]`` is the minimum ACE over cycles of length i (INF when no
    such cycle exists).  The same class serves as a constraint; a spectrum
    achieves a constraint when it is componentwise >= on every constraint
    index.
    """

    def __init__(self, depth: int, values=None):
        if depth < 2 or depth % 2 != 0:
            raise ValueError("depth must be an even integer >= 2")
        self.depth = depth
        self.values: dict[int, float] = {i: INF for i in range(2, depth + 1, 2)}
        if values is not None:
            for k, v in dict(values).items():
                if k not in self.values:
                    raise ValueError(f"invalid spectrum index {k}")
                self._check_value(v)
                self.values[k] = v

    @staticmethod
    def _check_value(v):
        if v == INF:
            return
        if not isinstance(v, (int, float)) or v != int(v) or v < 0:
            raise ValueError(f"spectrum values are nonnegative integers or inf: {v}")

    @classmethod
    def from_list(cls, vals) -> "AceSpectrum":
        vals = list(vals)
        if not vals:
            raise ValueError("empty spectrum")
        return cls(2 * len(vals), {2 * (i + 1): v for i, v in enumerate(vals)})

    @classmethod
    def parse(cls, text: str) -> "AceSpectrum":
        """Parse 'inf,inf,4' style text (optionally parenthesized)."""
        text = text.strip().strip("()")
        vals = []
        for tok in text.split(","):
            tok = tok.strip().lower()
            vals.append(INF if tok in ("inf", "infinity") else int(tok))
        return cls.from_list(vals)

    @classmethod
    def all_zero(cls, depth: int) -> "AceSpectrum":
        return cls(depth, {i: 0 for i in range(2, depth + 1, 2)})

    def __getitem__(self, length: int) -> float:
        return self.values[length]

    def lengths(self):
        return range(2, self.depth + 1, 2)

    def achieves(self, constraint: "AceSpectrum") -> bool:
        if self.depth < constraint.depth:
            raise ValueError(
                f"spectrum depth {self.depth} < constraint depth {constraint.depth}"
            )
        return all(self.values[i] >= constraint.values[i] for i in constraint.lengths())

    def dominates(self, other: "AceSpectrum") -> bool:
        """Componentwise >= on the other's indices with at least as much depth."""
        if self.depth < other.depth:
            return False
        return all(self.values[i] >= other.values[i] for i in other.lengths())

    def to_list(self) -> list:
        return [self.values[i] for i in self.lengths()]

    def to_json_list(self) -> list:
        return ["inf" if v == INF else int(v) for v in self.to_list()]

    @classmethod
    def from_json_list(cls, vals) -> "AceSpectrum":
        return cls.from_list([INF if v == "inf" else v for v in vals])

    def format(self) -> str:
        return "(" + ",".join(
            "inf" if v == INF else str(int(v)) for v in self.to_list()
        ) + ")"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AceSpectrum)
            and self.depth == other.depth
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"AceSpectrum(depth={self.depth}, {self.format()})"


AceConstraint = AceSpectrum


class QcCode:
    """A complete QC code: protograph, lifting order, shifts, labels, field.

    ``labels`` may be None during the binary construction stage; everything
    except NB spectra and NB expansion works without them.
    """

    def __init__(
        self,
        proto: Protograph,
        Z: int,
        field: Field,
        shifts: dict[int, int],
        labels: dict[int, int] | None = None,
        lambda_mult: int | None = None,
    ):
        if Z < 1:
            raise ValueError("lifting order Z must be >= 1")
        for v in range(proto.n_vars):
            if proto.var_degree(v) < 2:
                raise ValueError(
                    f"variable {v} has degree {proto.var_degree(v)} < 2; "
                    "degree-1 variables cannot be lifted meaningfully"
                )
        if lambda_mult is None:
            lambda_mult = min_lambda(field.q, Z)
        if lambda_mult < 1 or (lambda_mult * Z) % (field.q - 1) != 0:
            raise ValueError(
                f"lambda={lambda_mult} violates (q-1) | lambda*Z "
                f"(q={field.q}, Z={Z})"
            )
        if sorted(shifts) != list(range(proto.n_edges)):
            raise ValueError("every edge needs exactly one shift")
        for e, d in shifts.items():
            if not isinstance(d, (int, np.integer)) or not 0 <= d < Z:
                raise ValueError(f"shift {d} of edge {e} not an integer in [0, Z-1]")
        if labels is not None:
            if sorted(labels) != list(range(proto.n_edges)):
                raise ValueError("labels must cover every edge or be absent")
            for e, rho in labels.items():
                if not isinstance(rho, (int, np.integer)) or not 0 <= rho <= field.q - 2:
                    raise ValueError(f"label exponent {rho} of edge {e} out of range")
        self.proto = proto
        self.Z = Z
        self.field = field
        self.shifts = dict(shifts)
        self.labels = dict(labels) if labels is not None else None
        self.lambda_mult = lambda_mult

    def with_labels(self, labels: dict[int, int]) -> "QcCode":
        return QcCode(self.proto, self.Z, self.field, self.shifts, labels,
                      self.lambda_mult)

    @property
    def n_symbols(self) -> int:
        return self.proto.n_vars * self.Z

    def to_json_dict(self) -> dict:
        edges = []
        for e in range(self.proto.n_edges):
            entry = {
                "check": self.proto.edge_check[e],
                "var": self.proto.edge_var[e],
                "shift": self.shifts[e],
            }
            if self.labels is not None:
                entry["rho"] = self.labels[e]
            edges.append(entry)
        return {
            "field": {"r": self.field.r, "poly": self.field.primitive_poly},
            "Z": self.Z,
            "lambda": self.lambda_mult,
            "base_matrix": self.proto.base_matrix(),
            "edges": edges,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QcCode":
        field = Field(d["field"]["r"], d["field"].get("poly"))
        proto = from_base_matrix(d["base_matrix"])
        if not isinstance(d["Z"], int) or not 1 <= d["Z"] <= MAX_Z:
            raise ValueError(f"lifting order Z must be an integer in [1, {MAX_Z}]")
        edges = d["edges"]
        if len(edges) != proto.n_edges:
            raise ValueError("edge list length does not match base matrix")
        shifts = {}
        labels = {}
        has_labels = any("rho" in e for e in edges)
        for eid, entry in enumerate(edges):
            if (
                entry["check"] != proto.edge_check[eid]
                or entry["var"] != proto.edge_var[eid]
            ):
                raise ValueError(
                    f"edge {eid} endpoints do not match row-major base order"
                )
            shifts[eid] = entry["shift"]
            if has_labels:
                if "rho" not in entry:
                    raise ValueError("either all edges carry rho or none")
                labels[eid] = entry["rho"]
        return cls(proto, d["Z"], field, shifts, labels if has_labels else None,
                   d["lambda"])

    def digest(self) -> str:
        payload = json.dumps(self.to_json_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class LiftedCycleClass:
    """Lift-derived attributes of one base walk under fixed shifts.

    ``realized`` is True when the lift actually consists of vertex-simple
    cycles; only realized classes contribute to spectra.  ``canceled`` is
    None when the code has no labels, False for walks outside the
    simple-and-minimal hypothesis.
    """

    base: CycleRecord
    total_shift: int
    order: int
    count: int
    lifted_len: int
    lifted_ace: int
    realized: bool
    canceled: bool | None


_CHUNK = 256  # walks per kernel block; bounds the (block, width) temporaries


class WalkTable:
    """Compiled form of an enumerated walk list.

    ``rows[i]`` holds the edge ids of walk i padded with ``n_edges``.  The
    edge at position p is traversed check-to-variable for even p (sign +1)
    and variable-to-check for odd p (sign -1); the node visited before it is
    its check for even p and its variable for odd p, so node ids follow
    from the rows and are not stored.  ``coef[i, j]`` is the signed count
    of the edge at position j over the whole walk, kept at the edge's first
    position only: applied to shifts it gives the total shift, applied to
    label exponents the alternating label sum.
    """

    def __init__(self, proto: Protograph, records):
        self.proto = proto
        self.records = list(records)
        n, n_edges = len(self.records), proto.n_edges
        self.length = np.fromiter((r.length for r in self.records), np.int32, n)
        self.ace = np.fromiter((r.ace for r in self.records), np.int32, n)
        self.simple_minimal = np.fromiter(
            (r.is_simple_minimal for r in self.records), bool, n)
        width = int(self.length.max(initial=2))
        dtype = np.int16 if n_edges < np.iinfo(np.int16).max else np.int32
        self.rows = np.full((n, width), n_edges, dtype=dtype)
        self.rows[np.arange(width) < self.length[:, None]] = np.fromiter(
            itertools.chain.from_iterable(r.edge_seq for r in self.records),
            dtype, int(self.length.sum()))
        self._parity = np.arange(width) % 2
        self._sign = 1 - 2 * self._parity
        self._pairs = np.nonzero(np.triu(self._parity[:, None] == self._parity, 1))
        self._node_of = np.array([proto.edge_check + [-1],
                                  proto.edge_var + [-1]], dtype=dtype)
        self.coef = np.empty(self.rows.shape, np.int8)
        for sl in self._blocks():
            prefix, first = self._edge_prefix(self.rows[sl])
            self.coef[sl] = np.where(first, prefix[:, :, -1], 0)

    def __len__(self) -> int:
        return len(self.records)

    def _blocks(self):
        return (slice(lo, lo + _CHUNK) for lo in range(0, len(self), _CHUNK))

    def subset(self, keep: np.ndarray) -> "WalkTable":
        """The walks selected by a boolean mask, in table order."""
        sub = WalkTable.__new__(WalkTable)
        sub.__dict__.update(self.__dict__)
        sub.records = [rec for rec, k in zip(self.records, keep) if k]
        for name in ("rows", "length", "ace", "simple_minimal", "coef"):
            setattr(sub, name, getattr(self, name)[keep])
        return sub

    def upto(self, depth: int) -> "WalkTable":
        """The walks of length at most ``depth``."""
        keep = self.length <= depth
        return self if keep.all() else self.subset(keep)

    def _same_node(self, rows) -> np.ndarray:
        """Per position pair of equal parity: both visit one base node."""
        nodes = self._node_of[self._parity, rows]
        p1, p2 = self._pairs
        return (nodes[:, p1] == nodes[:, p2]) & (nodes[:, p1] >= 0)

    def _edge_prefix(self, rows):
        """Signed count of each position's edge before every position.

        ``prefix[i, j, p]`` counts the edge at position j over positions
        < p (p runs to the width, so the last entry is the whole walk);
        ``first[i, j]`` marks the edge's first position in the row.
        """
        sign = np.where(rows < self.proto.n_edges, self._sign, 0).astype(np.int8)
        same = rows[:, :, None] == rows[:, None, :]
        inclusive = np.cumsum(same * sign[:, None, :], axis=2, dtype=np.int8)
        prefix = np.concatenate(
            [np.zeros(inclusive.shape[:2] + (1,), np.int8), inclusive], axis=2)
        return prefix, ~np.tril(same, -1).any(axis=2)

    def shift_dependence(self):
        """Where the edge at its first position can change a walk's lift.

        ``depends`` is True where the edge moves the total shift or the
        partial-sum difference between two visits of one node, the
        quantities that decide cycle order and realizability;
        ``revisits`` marks the walks that visit some node twice.
        """
        depends = np.zeros(self.rows.shape, bool)
        revisits = np.zeros(len(self), bool)
        p1, p2 = self._pairs
        for sl in self._blocks():
            rows = self.rows[sl]
            prefix, first = self._edge_prefix(rows)
            same = self._same_node(rows)
            moved = ((prefix[:, :, p2] != prefix[:, :, p1])
                     & same[:, None, :]).any(axis=2)
            depends[sl] = first & ((prefix[:, :, -1] != 0) | moved)
            revisits[sl] = same.any(axis=1)
        return depends, revisits

    def totals(self, values: np.ndarray, ids=slice(None)) -> np.ndarray:
        """The signed sum of per-edge ``values`` around each walk."""
        return (self.coef[ids] * np.append(values, 0)[self.rows[ids]]).sum(axis=1)

    def partials(self, rows, shifts: np.ndarray):
        """Partial shift sums before each position, and the walk totals.

        ``shifts`` holds the shift at every position of ``rows`` (0 on
        padding).
        """
        signed = shifts * self._sign
        inclusive = np.cumsum(signed, axis=1)
        return inclusive - signed, inclusive[:, -1]

    def lift_rows(self, rows, shifts: np.ndarray, Z: int):
        """Total shift mod Z and realizability of walks given as rows.

        The lift of a walk with total shift d is realized when no two
        visits of one base node land on the same copy, i.e. their partial
        sums differ modulo gcd(Z, d).
        """
        partial, total = self.partials(rows, shifts)
        d = total % Z
        residue = partial % np.gcd(d, Z)[:, None]
        p1, p2 = self._pairs
        clash = self._same_node(rows) & (residue[:, p1] == residue[:, p2])
        return d, ~clash.any(axis=1)

    def lift(self, shifts: np.ndarray, Z: int):
        """Total shift mod Z and realizability of every walk."""
        d = np.empty(len(self), np.int64)
        realized = np.empty(len(self), bool)
        ext = np.append(shifts, 0)
        for sl in self._blocks():
            rows = self.rows[sl]
            d[sl], realized[sl] = self.lift_rows(rows, ext[rows], Z)
        return d, realized


def walk_table(proto: Protograph, depth: int) -> WalkTable:
    """The closed walks of ``proto`` up to at least ``depth``, as a table.

    A protograph never changes, so its table is enumerated at most once
    per instance, at the deepest depth asked for so far, and kept there.
    It may hold longer walks; callers filter by length or with ``upto``.
    """
    known, table = proto._walks
    if known < depth:
        table = WalkTable(proto, enumerate_closed_walks(proto, depth))
        proto._walks = (depth, table)
    return table


def _edge_vector(values: dict[int, int]) -> np.ndarray:
    return np.fromiter((values[e] for e in range(len(values))), np.int64,
                       len(values))


def lift_walks(table: WalkTable, code: QcCode):
    """Total shift, cycle order and realizability of every walk's lift."""
    d, realized = table.lift(_edge_vector(code.shifts), code.Z)
    return d, code.Z // np.gcd(d, code.Z), realized


def _lift_chordless(record: CycleRecord, code: QcCode, partials, d: int) -> bool:
    """Minimality of the realized lifted cycles in the lifted graph.

    Builds one lifted cycle's vertex support and counts the edge copies
    induced inside it.  Exactly two per check copy means the induced
    subgraph is the cycle itself: the check-side count already accounts for
    every induced copy, so the variable side needs no separate pass.
    """
    proto, Z = code.proto, code.Z
    order = Z // math.gcd(Z, d)
    check_copies: set[tuple[int, int]] = set()
    var_copies: set[tuple[int, int]] = set()
    for t in range(order):
        off = (t * d) % Z
        for p, e in enumerate(record.edge_seq):
            copy = (off + partials[p]) % Z
            if p % 2 == 0:
                check_copies.add((proto.edge_check[e], copy))
            else:
                var_copies.add((proto.edge_var[e], copy))
    for c, i in check_copies:
        cnt = 0
        for e in proto.check_edges[c]:
            if (proto.edge_var[e], (i + code.shifts[e]) % Z) in var_copies:
                cnt += 1
                if cnt > 2:
                    return False
        if cnt != 2:
            return False
    return True


def lifts_minimal(table: WalkTable, code: QcCode, ids, d) -> np.ndarray:
    """Whether the lifts of walks ``ids`` are chordless in the lift.

    ``d`` holds the total shifts of every walk in the table.  Lifts of
    simple minimal base cycles always are; the other walks take the
    explicit support check, one walk at a time.  Only meaningful for
    realized lifts.
    """
    ids = np.asarray(ids, dtype=np.int64)
    minimal = table.simple_minimal[ids]
    if minimal.all():
        return minimal
    shifts = np.append(_edge_vector(code.shifts), 0)
    for k in np.flatnonzero(~minimal):
        i = ids[k]
        rows = table.rows[i:i + 1]
        partial, _ = table.partials(rows, shifts[rows])
        minimal[k] = _lift_chordless(table.records[i], code,
                                     partial[0].tolist(), int(d[i]))
    return minimal


def lift_is_minimal(base: CycleRecord, code: QcCode) -> bool:
    """Whether the realized lifts of a base walk are chordless in the lift."""
    table = WalkTable(code.proto, [base])
    d, _order, _realized = lift_walks(table, code)
    return bool(lifts_minimal(table, code, [0], d)[0])


def _canceled(table: WalkTable, code: QcCode, ids, d) -> np.ndarray:
    """Cancellation of the lifts of realized walks ``ids``.

    A lift is canceled when it is chordless and O * (alternating label
    sum) is nonzero mod (q-1).
    """
    ids = np.asarray(ids, dtype=np.int64)
    order = code.Z // np.gcd(d[ids], code.Z)
    sums = table.totals(_edge_vector(code.labels), ids)
    canceled = (order * sums) % (code.field.q - 1) != 0
    canceled[canceled] = lifts_minimal(table, code, ids[canceled], d)
    return canceled


def lift_cycle(base: CycleRecord, code: QcCode) -> LiftedCycleClass:
    """Order, multiplicity, realizability and cancellation of a walk's lift."""
    table = WalkTable(code.proto, [base])
    d, order, realized = lift_walks(table, code)
    order = int(order[0])
    canceled = None
    if code.labels is not None:
        canceled = bool(_canceled(table, code, np.flatnonzero(realized), d).any())
    return LiftedCycleClass(
        base=base,
        total_shift=int(d[0]),
        order=order,
        count=code.Z // order,
        lifted_len=base.length * order,
        lifted_ace=base.ace * order,
        realized=bool(realized[0]),
        canceled=canceled,
    )


@dataclass(frozen=True)
class CanonicalCycleMatrix:
    """The banded cycle matrix of a simple minimal cycle, stored as labels.

    Row i of the l/2 x l/2 matrix holds beta_{2i} and beta_{2i+1} in
    columns i and i+1 (last row wraps: beta_{l-1} in column 0, beta_{l-2}
    in column l/2 - 1).
    """

    betas: tuple[int, ...]

    def __post_init__(self):
        if len(self.betas) < 4 or len(self.betas) % 2 != 0:
            raise ValueError("canonical cycle matrix needs an even length >= 4")
        if any(b == 0 for b in self.betas):
            raise ValueError("cycle labels must be nonzero")

    def to_sparse(self, field: Field) -> SparseGfMatrix:
        half = len(self.betas) // 2
        entries = []
        for i in range(half):
            entries.append((i, i, self.betas[2 * i]))
            entries.append((i, (i + 1) % half, self.betas[2 * i + 1]))
        return SparseGfMatrix.from_entries(half, half, entries, field)


def frc_canonical(betas, field: Field) -> bool:
    """Full-rank condition on a canonical cycle matrix.

    True (the cycle is canceled) exactly when the product of odd-position
    labels differs from the product of even-position labels.
    """
    betas = tuple(betas.betas if isinstance(betas, CanonicalCycleMatrix) else betas)
    if len(betas) < 4 or len(betas) % 2 != 0:
        raise ValueError("need an even number of labels, at least 4")
    if any(b == 0 for b in betas):
        raise ValueError("cycle labels must be nonzero")
    odd = 1
    even = 1
    for i, b in enumerate(betas):
        if i % 2:
            odd = field.mul(odd, b)
        else:
            even = field.mul(even, b)
    return odd != even


def frc_lifted(base: CycleRecord, code: QcCode) -> bool:
    """Cancellation of every lifted cycle induced by a simple minimal cycle.

    True exactly when O * (alternating sum of label exponents) is nonzero
    mod (q-1), i.e. the lifted cycle matrices have full rank.
    """
    if not base.is_simple_minimal:
        raise UnsupportedStructureError(
            "cancellation is defined only for simple minimal cycles; "
            f"walk of length {base.length} does not qualify"
        )
    if code.labels is None:
        raise ValueError("code has no label assignment")
    return lift_cycle(base, code).canceled


def _spectrum(code: QcCode, depth: int, skip_canceled: bool) -> AceSpectrum:
    """Group-by-min of lifted ACE over the realized lifts within ``depth``."""
    table = walk_table(code.proto, depth).upto(depth)
    d, order, realized = lift_walks(table, code)
    lifted_len = table.length * order
    ids = np.flatnonzero(realized & (lifted_len <= depth))
    if skip_canceled:
        ids = ids[~_canceled(table, code, ids, d)]
    best = np.full(depth // 2 + 1, INF)
    np.minimum.at(best, lifted_len[ids] // 2, table.ace[ids] * order[ids])
    return AceSpectrum(depth, {2 * i: int(v) for i, v in enumerate(best)
                               if i and v != INF})


def binary_ace_spectrum(code: QcCode, depth: int) -> AceSpectrum:
    """Minimum lifted-cycle ACE per even length, labels ignored."""
    return _spectrum(code, depth, skip_canceled=False)


def nb_ace_spectrum(code: QcCode, depth: int) -> AceSpectrum:
    """Like the binary spectrum, but canceled cycles leave the minimum."""
    if code.labels is None:
        raise ValueError("NB spectrum requires a label assignment")
    return _spectrum(code, depth, skip_canceled=True)


def _check_collisions(code: QcCode) -> None:
    by_cell: dict[tuple[int, int], dict[int, int]] = {}
    for e in range(code.proto.n_edges):
        cell = (code.proto.edge_check[e], code.proto.edge_var[e])
        seen = by_cell.setdefault(cell, {})
        d = code.shifts[e]
        if d in seen:
            raise ShiftCollisionError(
                f"edges {seen[d]} and {e} share cell {cell} with equal shift {d}"
            )
        seen[d] = e


def expand(code: QcCode) -> SparseGfMatrix:
    """Expanded mZ x nZ parity-check matrix over GF(q).

    Edge e becomes a Z x Z block: row i holds alpha^(rho_e + i*lambda) in
    column (i + d_e) mod Z of its cell.
    """
    if code.labels is None:
        raise ValueError("expansion over GF(q) requires labels; "
                         "use expand_binary for the mother matrix")
    _check_collisions(code)
    f, Z, lam = code.field, code.Z, code.lambda_mult
    qm1 = f.q - 1
    entries = []
    for e in range(code.proto.n_edges):
        c, v = code.proto.edge_check[e], code.proto.edge_var[e]
        d, rho = code.shifts[e], code.labels[e]
        for i in range(Z):
            entries.append(
                (c * Z + i, v * Z + (i + d) % Z, f.pow_alpha((rho + i * lam) % qm1))
            )
    return SparseGfMatrix.from_entries(
        code.proto.n_checks * Z, code.proto.n_vars * Z, entries, f
    )


def expand_binary(code: QcCode) -> SparseGfMatrix:
    """Binary mother matrix of the expansion (same support, all-ones).

    This is the expansion of the same shifts over GF(2), where every
    alpha power is 1.
    """
    zero = {e: 0 for e in range(code.proto.n_edges)}
    return expand(QcCode(code.proto, code.Z, Field(1), code.shifts, zero))
