"""Interchange formats: code descriptors, base matrices, alist exports.

The descriptor is the canonical JSON form of a QC code plus metadata
(creation seed, achieved spectra, tool version).  Loading is fail-closed.
Every integer in it passes :func:`~nbqc.gf.checked_int`, so JSON ``true``
and ``1.0`` are no integers, and a base cell of more edges than
``gf.MAX_Z``, or a base matrix of more than ``gf.MAX_EDGES``, is refused
before any edge is built.  A field of the wrong type is named.  Parallel
edges with equal shifts are rejected, as they have no expansion, and the
achieved spectra stored in a descriptor are recomputed, from one walk
enumeration at the deepest stored depth, and must match, so a corrupted or
hand-edited file cannot silently misreport code quality.  The table stays
with the code's protograph, so no spectrum within that depth re-enumerates,
and the code keeps the spectra it re-verified.

The alist export is the usual sparse binary format (dimensions, max
degrees, per-node degrees, 1-based per-node index lists).  The non-binary
variant appends q to the header line and follows every index with the
entry's value encoded as alpha-exponent + 1, keeping 0 free as padding.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__ as _tool_version
from .codec import SparseGfMatrix
from .gf import Field, checked_int
from .lift import (
    AceSpectrum,
    QcCode,
    ShiftCollisionError,
    _check_collisions,
    binary_ace_spectrum,
    expand,
    expand_binary,
    nb_ace_spectrum,
    walk_table,
)


class DescriptorError(ValueError):
    """Descriptor missing fields or failing its self-verification."""


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


def read_base_matrix(path) -> list[list[int]]:
    """Base matrix from whitespace text or JSON (sniffed by content).

    JSON entries are returned as loaded; ``from_base_matrix`` rejects any
    that is not a nonnegative integer.
    """
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        rows = obj["base_matrix"]
        if not (isinstance(rows, list) and all(isinstance(r, list) for r in rows)):
            raise ValueError("base_matrix is not a list of rows")
        # the header gives the shape of the rows; from_base_matrix rejects
        # rows of unequal length
        shape = (len(rows), len(rows[0]) if rows else 0)
        for key, size in zip(("n_checks", "n_vars"), shape):
            checked_int(obj[key], f"base matrix header {key}", size, size)
        return rows
    return read_base_matrix_text(text)


def write_base_matrix_json(rows) -> str:
    obj = {
        "n_checks": len(rows),
        "n_vars": len(rows[0]),
        "base_matrix": [[int(x) for x in row] for row in rows],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def build_descriptor(
    code: QcCode,
    seed: int,
    achieved_binary: AceSpectrum,
    achieved_nb: AceSpectrum | None,
) -> dict:
    desc = code.to_json_dict()
    desc["metadata"] = {
        "tool_version": _tool_version,
        "seed": seed,
        "achieved_binary": {
            "depth": achieved_binary.depth,
            "values": achieved_binary.to_json_list(),
        },
        "achieved_nb": None
        if achieved_nb is None
        else {"depth": achieved_nb.depth, "values": achieved_nb.to_json_list()},
    }
    return desc


def save_descriptor(path, desc: dict) -> None:
    Path(path).write_text(
        json.dumps(desc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_descriptor(path) -> tuple[QcCode, dict]:
    """Load a descriptor, reject colliding shifts and re-verify its
    achieved-spectra claims."""
    try:
        desc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"not valid JSON: {exc}") from exc
    if not isinstance(desc, dict):
        raise DescriptorError("descriptor is not a JSON object")
    try:
        code = QcCode.from_json_dict(desc)
    except KeyError as exc:
        raise DescriptorError(f"descriptor missing field: {exc}") from exc
    except TypeError as exc:
        raise DescriptorError(f"descriptor field of the wrong type: {exc}") from exc
    try:
        _check_collisions(code)
    except ShiftCollisionError as exc:
        raise DescriptorError(str(exc)) from exc
    meta = desc.get("metadata", {})
    if not isinstance(meta, dict):
        raise DescriptorError("metadata is not an object")
    _verify_metadata(code, meta)
    return code, meta


def _verify_metadata(code: QcCode, meta: dict) -> None:
    """Recompute every stored spectrum from one walk enumeration."""
    claims = []
    for key, kind, spectrum in (("achieved_binary", "binary", binary_ace_spectrum),
                                ("achieved_nb", "NB", nb_ace_spectrum)):
        claimed = meta.get(key)
        if claimed is None:
            continue
        if key == "achieved_nb" and code.labels is None:
            raise DescriptorError("achieved_nb stored for an unlabeled code")
        if not (isinstance(claimed, dict) and isinstance(claimed.get("values"), list)):
            raise DescriptorError(f"{key} needs a depth and a values list")
        stored = AceSpectrum.from_json_list(claimed["values"])
        # the depth the values span, and no other
        checked_int(claimed.get("depth"), f"{key} depth", stored.depth, stored.depth)
        claims.append((kind, spectrum, stored))
    if not claims:
        return
    walk_table(code.proto, max(stored.depth for *_, stored in claims))
    for kind, spectrum, stored in claims:
        actual = spectrum(code, stored.depth)
        if actual != stored:
            raise DescriptorError(
                f"stored {kind} spectrum {stored.format()} does not re-verify "
                f"(actual {actual.format()})"
            )


def _write_alist(H: SparseGfMatrix, header: str, entry) -> str:
    """alist skeleton; ``entry(index, value)`` prints one list entry."""
    by_col = np.lexsort((H.row, H.col))
    col_deg = np.bincount(H.col, minlength=H.n_cols)
    row_deg = np.diff(H.row_ptr)
    words = [entry(i, v) for i, v in zip(
        H.row[by_col].tolist() + H.col.tolist(),
        H.value[by_col].tolist() + H.value.tolist())]
    ends = np.cumsum(np.append(col_deg, row_deg)).tolist()
    lines = [
        header,
        f"{col_deg.max()} {row_deg.max()}",
        " ".join(map(str, col_deg.tolist())),
        " ".join(map(str, row_deg.tolist())),
    ]
    lines += [" ".join(words[lo:hi]) for lo, hi in zip([0] + ends, ends)]
    return "\n".join(lines) + "\n"


def _read_alist(text: str, n_header: int, width: int):
    """Header and entries of alist text.

    Every list entry is ``width`` integers, a 1-based index first; index 0
    is padding.  Returns the header and ``(row, col, *rest)`` per entry,
    row and column 0-based.  An index may appear once per list, and the
    row lists must hold the same entries as the column lists.
    """
    tokens = [int(t) for t in text.split()]
    pos = 0

    def take(k):
        nonlocal pos
        if pos + k > len(tokens):
            raise ValueError("alist text ends early")
        pos += k
        return tokens[pos - k:pos]

    def node_lists(degrees, bound, kind):
        """(node, other index, *rest) per real entry, both 0-based."""
        out = []
        for node, deg in enumerate(degrees):
            flat = take(width * deg)
            seen = set()
            for k in range(0, len(flat), width):
                i, *rest = flat[k:k + width]
                if i == 0:
                    continue
                checked_int(i, f"index in {kind} {node + 1}", 1, bound)
                if i in seen:
                    raise ValueError(f"index {i} repeated in {kind} {node + 1}")
                seen.add(i)
                out.append((node, i - 1, *rest))
        return out

    header = take(n_header)
    n, m = header[:2]
    take(2)  # max degrees, redundant
    col_deg = take(n)
    row_deg = take(m)
    entries = [(i, j, *rest)
               for j, i, *rest in node_lists(col_deg, m, "column")]
    if sorted(node_lists(row_deg, n, "row")) != sorted(entries):
        raise ValueError("row lists disagree with the column lists")
    return header, entries


def write_alist(H: SparseGfMatrix) -> str:
    """Standard alist text of a binary matrix (indices 1-based)."""
    return _write_alist(H, f"{H.n_cols} {H.n_rows}", lambda i, v: str(i + 1))


def read_alist(text: str) -> SparseGfMatrix:
    """Binary matrix from alist text; padding zeros are tolerated."""
    (n, m), entries = _read_alist(text, 2, 1)
    return SparseGfMatrix(
        m, n, [(i, j, 1) for i, j in entries], Field(1)
    )


def write_nb_alist(H: SparseGfMatrix) -> str:
    """Non-binary alist: header carries q, each index carries exponent+1."""
    f = H.field
    return _write_alist(H, f"{H.n_cols} {H.n_rows} {f.q}",
                        lambda i, v: f"{i + 1} {f.log_alpha(v) + 1}")


def read_nb_alist(text: str, field: Field | None = None) -> SparseGfMatrix:
    """Inverse of :func:`write_nb_alist`.

    The header carries q but not the defining polynomial; pass the code's
    field to decode exponents into the right polynomial basis (the default
    polynomial for r = log2(q) is assumed otherwise).
    """
    (n, m, q), entries = _read_alist(text, 3, 2)
    if field is None:
        field = Field(q.bit_length() - 1)
    if field.q != q:
        raise ValueError(f"field size {field.q} does not match header q={q}")
    for i, j, val in entries:
        checked_int(val, f"value of column {j + 1}", 1, q - 1)
    return SparseGfMatrix(
        m, n, [(i, j, field.pow_alpha(val - 1)) for i, j, val in entries], field
    )


def write_base_matrix_pair(code: QcCode) -> str:
    """Shift matrix and (when labeled) exponent matrix as text blocks.

    Empty cells print -1; parallel edges print comma-joined values in edge
    order, each cell's run of the cell side of ``Protograph.edge_runs``.
    """
    proto = code.proto
    by_cell, begin, count = (a.tolist() for a in proto.edge_runs[2][1:])
    # each check's cells, less the padding variable's
    stride = proto.n_vars + 1
    rows = [range(c * stride, c * stride + proto.n_vars)
            for c in range(proto.n_checks)]

    def block(values: list[int]) -> list[str]:
        return [" ".join(",".join(str(values[e]) for e in
                                  by_cell[begin[k]:begin[k] + count[k]]) or "-1"
                         for k in row) for row in rows]

    lines = ["# shifts"]
    lines += block(code.shifts.tolist())
    if code.labels is not None:
        lines.append("# labels")
        lines += block(code.labels.tolist())
    return "\n".join(lines) + "\n"


def export_code(code: QcCode, fmt: str) -> str:
    if fmt == "alist":
        return write_alist(expand_binary(code))
    if fmt == "nb-alist":
        if code.labels is None:
            raise ValueError("nb-alist export requires a labeled code")
        return write_nb_alist(expand(code))
    if fmt == "base-matrix":
        return write_base_matrix_pair(code)
    raise ValueError(f"unknown export format {fmt!r}")


__all__ = [
    "DescriptorError",
    "read_base_matrix",
    "write_base_matrix_json",
    "write_base_matrix_text",
    "build_descriptor",
    "save_descriptor",
    "load_descriptor",
    "write_alist",
    "read_alist",
    "write_nb_alist",
    "read_nb_alist",
    "write_base_matrix_pair",
    "export_code",
]
