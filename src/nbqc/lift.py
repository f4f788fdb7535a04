"""Quasi-cyclic lifting of a protograph over GF(2^r).

Each base edge carries a cyclic shift d in [0, Z-1] (its Z copies form a
circulant permutation block) and, once labeled, an exponent rho in
[0, q-2]; the expanded block is then the alpha-multiplied circulant whose
row i holds alpha^(rho + i*lambda).  A single global multiplier lambda with
(q-1) | lambda*Z is shared by all blocks.

A base closed walk of length l with total (alternating) shift d lifts to
gcd(Z, d) closed walks of length l * O, O = Z / gcd(Z, d).  For a simple
base cycle these are always vertex-simple cycles; for a walk that visits
a node twice they are cycles only when no two visits of one node land on
the same copy, i.e. when the shift sum between the visits is nonzero
modulo gcd(Z, d).  ACE spectra of the lifted graph are computed from base walks
through that projection.

Cancellation: the full-rank condition applies to every cycle of the lifted
graph that is simple and minimal there (no repeated vertices, no chords
through its support).  Around any such cycle the row-dependent lambda terms
cancel within each check copy, so the condition is always
O * (alternating sum of label exponents) != 0 mod (q-1); for cycles induced
by simple minimal protograph cycles this is the classical statement, and
lifts of simple minimal base cycles are chordless automatically.  Cycles
with chorded supports are conservatively never canceled.

This module only applies shifts and labels to the walk table that
closed-walk enumeration returns (:class:`~nbqc.protograph.WalkTable`).
Total shift, alternating label sum, the shift sum between two visits of one
node and the copy offset a chord would join are all differences of per-walk
prefix sums of the per-edge values, read at visit positions.  So one shift
vector gives total shifts, cycle orders, realizability and minimality for
many walks at once, each of the last two decided by one rule
(:func:`realized_lifts`), and spectra are a group-by-min over lifted
lengths.  A protograph has one walk table, :func:`walk_table`, enumerated
once at the deepest depth asked for.  Its walks are lifted once per shift
assignment: the protograph keeps the lift of its leading walks, and a
deeper head lifts only the walks it adds (:func:`lift_walks`); a code
never changes, so it computes each of its spectra once.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .codec import SparseGfMatrix
from .gf import MAX_Z, Field, checked_depth, checked_int, min_lambda
from .protograph import (
    CycleRecord,
    Protograph,
    WalkTable,
    enumerate_closed_walks,
    from_base_matrix,
    span_sums,
)

INF = math.inf
_BLOCK = 1024  # walks per shift-lifting step; bounds the temporaries


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
        self.depth = checked_depth(depth, "depth")
        self.values: dict[int, float] = {i: INF for i in range(2, depth + 1, 2)}
        if values is not None:
            for k, v in dict(values).items():
                if k not in self.values:
                    raise ValueError(f"invalid spectrum index {k}")
                if v != INF:
                    checked_int(v, "spectrum value", 0)
                self.values[k] = v

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
        return self.dominates(constraint)

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
        """Values as written: integers, and "inf" for no cycle (a JSON
        ``Infinity`` loads as a float and is rejected)."""
        return cls.from_list(
            [INF if v == "inf" else checked_int(v, "spectrum value", 0) for v in vals])

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

    ``shifts`` (in [0, Z-1]) and ``labels`` (exponents in [0, q-2]) are
    read-only int64 arrays indexed by edge id, checked in one pass each.
    ``labels`` may be None during the binary construction stage; everything
    except NB spectra and NB expansion works without them.  A code is not
    changed once built, so it keeps the spectra it has computed.
    """

    def __init__(
        self,
        proto: Protograph,
        Z: int,
        field: Field,
        shifts: np.ndarray | list[int],
        labels: np.ndarray | list[int] | None = None,
        lambda_mult: int | None = None,
    ):
        checked_int(Z, "lifting order Z", 1, MAX_Z)
        v = int(proto.edge_runs[0][3].argmin())
        if proto.var_degree(v) < 2:
            raise ValueError(
                f"variable {v} has degree {proto.var_degree(v)} < 2; "
                "degree-1 variables cannot be lifted meaningfully"
            )
        if lambda_mult is None:
            lambda_mult = min_lambda(field.q, Z)
        if (checked_int(lambda_mult, "lambda", 1) * Z) % (field.q - 1) != 0:
            raise ValueError(
                f"lambda={lambda_mult} violates (q-1) | lambda*Z "
                f"(q={field.q}, Z={Z})"
            )
        self.proto = proto
        self.Z = Z
        self.field = field
        self.shifts = _edge_values(shifts, proto.n_edges, "shift", Z - 1)
        self.labels = (None if labels is None else _edge_values(
            labels, proto.n_edges, "label exponent rho", field.q - 2))
        self.lambda_mult = lambda_mult
        # (depth, whether canceled cycles are skipped) -> the spectrum's
        # finite minima by lifted length, kept by _spectrum
        self._spectra: dict[tuple[int, bool], dict[int, int]] = {}

    def __getstate__(self):
        # derived data stays out of pickles, as the protograph's does
        return {**self.__dict__, "_spectra": {}}

    def with_labels(self, labels: np.ndarray | list[int]) -> "QcCode":
        return QcCode(self.proto, self.Z, self.field, self.shifts, labels,
                      self.lambda_mult)

    @property
    def n_symbols(self) -> int:
        return self.proto.n_vars * self.Z

    def to_json_dict(self) -> dict:
        edges = [{"check": c, "var": v, "shift": d} for c, v, d in zip(
            self.proto.edge_check.tolist(), self.proto.edge_var.tolist(),
            self.shifts.tolist())]
        if self.labels is not None:
            for entry, rho in zip(edges, self.labels.tolist()):
                entry["rho"] = rho
        return {
            "field": {"r": self.field.r, "poly": self.field.primitive_poly},
            "Z": self.Z,
            "lambda": self.lambda_mult,
            "base_matrix": self.proto.base_matrix(),
            "edges": edges,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QcCode":
        field = _member(d, "field", dict)
        field = Field(field["r"], field.get("poly"))
        rows = _member(d, "base_matrix", list)
        proto = from_base_matrix(_member(rows, i, list, f"base_matrix row {i}")
                                 for i in range(len(rows)))
        Z = checked_int(d["Z"], "lifting order Z", 1, MAX_Z)
        edges = _member(d, "edges", list)
        if len(edges) != proto.n_edges:
            raise ValueError("edge list length does not match base matrix")
        shifts, labels = [], []
        entries = [_member(edges, i, dict, f"edge {i}") for i in range(len(edges))]
        has_labels = any("rho" in e for e in entries)
        for eid, (entry, c, v) in enumerate(zip(
                entries, proto.edge_check.tolist(), proto.edge_var.tolist())):
            # the endpoints row-major base order gives this edge
            for key, node in (("check", c), ("var", v)):
                checked_int(entry[key], f"edge {eid} {key}", node, node)
            shifts.append(checked_int(entry["shift"], f"shift of edge {eid}",
                                      0, Z - 1))
            if has_labels:
                if "rho" not in entry:
                    raise ValueError("either all edges carry rho or none")
                labels.append(checked_int(
                    entry["rho"], f"label exponent rho of edge {eid}",
                    0, field.q - 2))
        return cls(proto, Z, field, shifts, labels if has_labels else None,
                   d["lambda"])

    def digest(self) -> str:
        payload = json.dumps(self.to_json_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


def _member(d, key, kind, name=None):
    """``d[key]``; a TypeError names the field unless it is a ``kind``."""
    if not isinstance(value := d[key], kind):
        name = name or repr(key)
        raise TypeError(f"{name} is {type(value).__name__}, not {kind.__name__}")
    return value


def _edge_values(values, n_edges: int, name: str, hi: int) -> np.ndarray:
    """``values`` as a read-only int64 copy, one integer in [0, hi] per edge;
    the first value out of range is named by its edge."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu" or values.shape != (n_edges,):
        raise ValueError(f"{name}: need one integer per edge ({n_edges}), "
                         f"not a {values.dtype} array of shape {values.shape}")
    if (bad := (values < 0) | (values > hi)).any():
        e = int(bad.argmax())
        checked_int(values[e].item(), f"{name} of edge {e}", 0, hi)
    values = values.astype(np.int64)
    values.flags.writeable = False
    return values


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


def realized_lifts(gcd: np.ndarray, owner: np.ndarray,
                   pair_values: np.ndarray) -> np.ndarray:
    """Whether the lifts of walks consist of vertex-simple cycles.

    ``gcd`` holds gcd(Z, total shift) per walk, along any further axes (one
    per candidate shift, say).  ``pair_values`` holds the partial-sum
    difference between two visits of one base node by walk ``owner[k]``,
    along the same axes.  The visits land on one copy, and the lift is not
    realized, when that difference is 0 modulo the gcd.  The same rule over
    chord values decides minimality (:func:`lifts_minimal`).
    """
    clash = np.nonzero(pair_values % gcd[owner] == 0)
    ok = np.ones(gcd.shape, bool)
    ok[(owner[clash[0]],) + clash[1:]] = False
    return ok


def walk_table(proto: Protograph, depth: int) -> WalkTable:
    """The closed walks of ``proto`` up to at least ``depth``, as a table.

    A protograph never changes, so its table is enumerated at most once
    per instance, at the deepest depth asked for so far, and kept there.
    It may hold longer walks; callers filter by length or with ``upto``.
    A deeper table leads with the same walks and pairs, in (length,
    edge_seq) order, so a lift of its leading walks (:func:`lift_walks`)
    stays valid.
    """
    known, table = proto._walks
    if known < depth:
        table = enumerate_closed_walks(proto, depth)
        proto._walks = (depth, table)
    return table


def lift_shifts(table: WalkTable, shifts: np.ndarray, Z: int, start: int = 0):
    """Total shift mod Z and realizability of the walks ``start`` onward."""
    d = np.empty(len(table) - start, np.int64)
    realized = np.empty(len(d), bool)
    # a block of walks at a time bounds the temporaries; bounds[b] is the
    # first pair of block b (keys in the pairs' dtype, so none is cast)
    starts = np.arange(start, len(table) + _BLOCK, _BLOCK,
                       table.pair_walk.dtype)
    bounds = np.searchsorted(table.pair_walk, starts).tolist()
    for b, lo in enumerate(starts[:-1].tolist()):
        walks = slice(lo - start, lo - start + _BLOCK)
        sums = table.prefix_sums(shifts, slice(lo, lo + _BLOCK))
        d[walks] = sums[-1] % Z
        k = slice(bounds[b], bounds[b + 1])
        w = table.pair_walk[k] - lo
        pairs = span_sums(sums, w, table.p1[k], table.p2[k]) % Z
        realized[walks] = realized_lifts(np.gcd(d[walks], Z), w, pairs)
    return d, realized


def lift_walks(code: QcCode, depth: int):
    """The protograph's walks up to ``depth`` (the ``upto`` head of
    :func:`walk_table`), with the total shift, cycle order and
    realizability of each one's lift.

    The protograph keeps one lift of its leading walks per Z and shift
    values, as read-only arrays: a head it covers is served as views of
    them, and a deeper head lifts only the walks it adds.
    """
    proto, Z, shifts = code.proto, code.Z, code.shifts
    table = walk_table(proto, depth).upto(depth)
    kept = proto._lifted
    if kept is None or kept[0] != Z or not np.array_equal(kept[1], shifts):
        kept = (Z, shifts, np.empty(0, np.int64), np.empty(0, bool))
    d, realized = kept[2:]
    if len(d) < len(table):
        more = lift_shifts(table, shifts, Z, start=len(d))
        d, realized = np.append(d, more[0]), np.append(realized, more[1])
    d.flags.writeable = realized.flags.writeable = False
    proto._lifted = (Z, shifts, d, realized)
    d, realized = d[:len(table)], realized[:len(table)]
    return table, d, Z // np.gcd(d, Z), realized


def lifts_minimal(table: WalkTable, code: QcCode, ids, d) -> np.ndarray:
    """Whether the lifts of walks ``ids`` are chordless in the lift.

    ``d`` holds the total shifts of every walk in the table.  A chord
    (:meth:`~nbqc.protograph.WalkTable.chords`) is present when its copy
    offset matches its edge's shift modulo gcd(Z, d), the rule that decides
    realizability.  Only meaningful for realized lifts.
    """
    k, a, b, edge = table.chords(code.proto, ids)
    values = (span_sums(table.prefix_sums(code.shifts, ids), k, a, b)
              - code.shifts.take(edge))
    return realized_lifts(np.gcd(d[ids], code.Z), k, values)


def lift_is_minimal(base: CycleRecord, code: QcCode) -> bool:
    """Whether the realized lifts of a base walk are chordless in the lift."""
    table = WalkTable(code.proto, [base.edge_seq], [base.length])
    d, _realized = lift_shifts(table, code.shifts, code.Z)
    return bool(lifts_minimal(table, code, [0], d)[0])


def _canceled(table: WalkTable, code: QcCode, ids, d) -> np.ndarray:
    """Cancellation of the lifts of realized walks ``ids``.

    A lift is canceled when it is chordless and O * (alternating label
    sum) is nonzero mod (q-1).
    """
    ids = np.asarray(ids, dtype=np.int64)
    order = code.Z // np.gcd(d[ids], code.Z)
    sums = table.prefix_sums(code.labels, ids)[-1]
    canceled = (order * sums) % (code.field.q - 1) != 0
    canceled[canceled] = lifts_minimal(table, code, ids[canceled], d)
    return canceled


def lift_cycle(base: CycleRecord, code: QcCode) -> LiftedCycleClass:
    """Order, multiplicity, realizability and cancellation of a walk's lift."""
    table = WalkTable(code.proto, [base.edge_seq], [base.length])
    d, realized = lift_shifts(table, code.shifts, code.Z)
    order = code.Z // math.gcd(code.Z, int(d[0]))
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
        return SparseGfMatrix(half, half, entries, field)


def frc_canonical(betas, field: Field) -> bool:
    """Full-rank condition on a canonical cycle matrix.

    True (the cycle is canceled) exactly when the product of odd-position
    labels differs from the product of even-position labels.
    """
    if not isinstance(betas, CanonicalCycleMatrix):
        betas = CanonicalCycleMatrix(tuple(betas))  # validates the labels
    odd = even = 1
    for i, b in enumerate(betas.betas):
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
    """Group-by-min of lifted ACE over the realized lifts within ``depth``.

    A code finds the minima once per depth and kind and keeps them; each
    call returns a spectrum of its own.
    """
    key = (checked_depth(depth, "depth"), skip_canceled)
    if key not in code._spectra:
        code._spectra[key] = _min_ace(code, depth, skip_canceled)
    return AceSpectrum(depth, code._spectra[key])


def _min_ace(code: QcCode, depth: int, skip_canceled: bool) -> dict[int, int]:
    """The finite minima of the spectrum, by lifted length."""
    table, d, order, realized = lift_walks(code, depth)
    lifted_len = table.length * order
    ids = np.flatnonzero(realized & (lifted_len <= depth))
    if skip_canceled:
        ids = ids[~_canceled(table, code, ids, d)]
    best = np.full(depth // 2 + 1, INF)
    np.minimum.at(best, lifted_len[ids] // 2, table.ace[ids] * order[ids])
    return {2 * i: int(v) for i, v in enumerate(best) if i and v != INF}


def binary_ace_spectrum(code: QcCode, depth: int) -> AceSpectrum:
    """Minimum lifted-cycle ACE per even length, labels ignored."""
    return _spectrum(code, depth, skip_canceled=False)


def nb_ace_spectrum(code: QcCode, depth: int) -> AceSpectrum:
    """Like the binary spectrum, but canceled cycles leave the minimum."""
    if code.labels is None:
        raise ValueError("NB spectrum requires a label assignment")
    return _spectrum(code, depth, skip_canceled=True)


def _check_collisions(code: QcCode) -> None:
    """Refuse equal shifts in one cell (the cell side of
    :attr:`Protograph.edge_runs`), naming the first repeat by edge id."""
    proto, first = code.proto, {}
    for e, key in enumerate(zip(proto.edge_runs[2][0].tolist(),
                                code.shifts.tolist())):
        if (e0 := first.setdefault(key, e)) != e:
            cell = int(proto.edge_check[e]), int(proto.edge_var[e])
            raise ShiftCollisionError(f"edges {e0} and {e} share cell "
                                      f"{cell} with equal shift {key[1]}")


def expand(code: QcCode) -> SparseGfMatrix:
    """Expanded mZ x nZ parity-check matrix over GF(q).

    Edge e becomes a Z x Z block: row i holds alpha^(rho_e + i*lambda) in
    column (i + d_e) mod Z of its cell.
    """
    if code.labels is None:
        raise ValueError("expansion over GF(q) requires labels; "
                         "use expand_binary for the mother matrix")
    _check_collisions(code)
    f, Z, proto, qm1 = code.field, code.Z, code.proto, code.field.q - 1
    i = np.arange(Z)
    # lambda is reduced first: a descriptor may give any multiple
    exponents = (code.labels[:, None] + i * (code.lambda_mult % qm1)) % qm1
    entries = np.stack(np.broadcast_arrays(
        proto.edge_check[:, None] * Z + i,
        proto.edge_var[:, None] * Z + (i + code.shifts[:, None]) % Z,
        np.array(f.exp_table, np.int64)[exponents]), axis=-1)
    return SparseGfMatrix(proto.n_checks * Z, proto.n_vars * Z,
                          entries.reshape(-1, 3), f)


def expand_binary(code: QcCode) -> SparseGfMatrix:
    """Binary mother matrix of the expansion (same support, all-ones).

    This is the expansion of the same shifts over GF(2), where every
    alpha power is 1.
    """
    zero = np.zeros(code.proto.n_edges, np.int64)
    return expand(QcCode(code.proto, code.Z, Field(1), code.shifts, zero))
