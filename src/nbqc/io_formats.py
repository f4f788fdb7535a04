"""Interchange formats: code descriptors, base matrices, alist exports.

The descriptor is the canonical JSON form of a QC code plus metadata
(creation seed, achieved spectra, tool version).  Loading is fail-closed:
the achieved spectra stored in a descriptor are recomputed, from one walk
enumeration at the deepest stored depth, and must match, so a corrupted or
hand-edited file cannot silently misreport code quality.

The alist export is the usual sparse binary format (dimensions, max
degrees, per-node degrees, 1-based per-node index lists).  The non-binary
variant appends q to the header line and follows every index with the
entry's value encoded as alpha-exponent + 1, keeping 0 free as padding.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import __version__ as _tool_version
from .codec import SparseGfMatrix
from .gf import Field
from .lift import (
    AceSpectrum,
    QcCode,
    binary_ace_spectrum,
    expand,
    expand_binary,
    nb_ace_spectrum,
    walk_table,
)
from .protograph import read_base_matrix_text, write_base_matrix_text


class DescriptorError(ValueError):
    """Descriptor missing fields or failing its self-verification."""


def read_base_matrix(path) -> list[list[int]]:
    """Base matrix from whitespace text or JSON (sniffed by content)."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        rows = obj["base_matrix"]
        if len(rows) != obj["n_checks"] or any(
            len(r) != obj["n_vars"] for r in rows
        ):
            raise ValueError("base matrix JSON header contradicts matrix shape")
        return [[int(x) for x in row] for row in rows]
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
    """Load a descriptor and re-verify its achieved-spectra claims."""
    try:
        desc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"not valid JSON: {exc}") from exc
    try:
        code = QcCode.from_json_dict(desc)
    except (KeyError, TypeError) as exc:
        raise DescriptorError(f"descriptor missing field: {exc}") from exc
    meta = desc.get("metadata", {})
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
        stored = AceSpectrum.from_json_list(claimed["values"])
        if stored.depth != claimed["depth"]:
            raise DescriptorError(f"{key} depth disagrees with values")
        claims.append((kind, spectrum, stored))
    if not claims:
        return
    walks = walk_table(code.proto, max(stored.depth for *_, stored in claims))
    for kind, spectrum, stored in claims:
        actual = spectrum(code, stored.depth, walks=walks)
        if actual != stored:
            raise DescriptorError(
                f"stored {kind} spectrum {stored.format()} does not re-verify "
                f"(actual {actual.format()})"
            )


def _column_entries(H: SparseGfMatrix) -> list[list[tuple[int, int]]]:
    cols: list[list[tuple[int, int]]] = [[] for _ in range(H.n_cols)]
    for i, c, v in H.entries():
        cols[c].append((i, v))
    return cols


def write_alist(H: SparseGfMatrix) -> str:
    """Standard alist text of a binary matrix (indices 1-based)."""
    cols = _column_entries(H)
    col_deg = [len(c) for c in cols]
    row_deg = [len(r) for r in H.rows]
    lines = [
        f"{H.n_cols} {H.n_rows}",
        f"{max(col_deg)} {max(row_deg)}",
        " ".join(str(d) for d in col_deg),
        " ".join(str(d) for d in row_deg),
    ]
    for entries in cols:
        lines.append(" ".join(str(i + 1) for i, _ in entries))
    for row in H.rows:
        lines.append(" ".join(str(c + 1) for c, _ in row))
    return "\n".join(lines) + "\n"


def read_alist(text: str) -> SparseGfMatrix:
    """Binary matrix from alist text; padding zeros are tolerated."""
    tokens = text.split()
    pos = 0

    def take(k):
        nonlocal pos
        vals = [int(t) for t in tokens[pos:pos + k]]
        pos += k
        return vals

    n, m = take(2)
    take(2)  # max degrees, redundant
    col_deg = take(n)
    row_deg = take(m)
    entries = []
    for j in range(n):
        rows_1b = take(col_deg[j])
        for i in rows_1b:
            if i:
                entries.append((i - 1, j, 1))
    for i in range(m):
        take(row_deg[i])  # row lists are redundant with the column lists
    return SparseGfMatrix.from_entries(m, n, entries, Field(1))


def write_nb_alist(H: SparseGfMatrix) -> str:
    """Non-binary alist: header carries q, each index carries exponent+1."""
    f = H.field
    cols = _column_entries(H)
    col_deg = [len(c) for c in cols]
    row_deg = [len(r) for r in H.rows]
    lines = [
        f"{H.n_cols} {H.n_rows} {f.q}",
        f"{max(col_deg)} {max(row_deg)}",
        " ".join(str(d) for d in col_deg),
        " ".join(str(d) for d in row_deg),
    ]
    for entries in cols:
        lines.append(
            " ".join(f"{i + 1} {f.log_alpha(v) + 1}" for i, v in entries)
        )
    for i, row in enumerate(H.rows):
        lines.append(" ".join(f"{c + 1} {f.log_alpha(v) + 1}" for c, v in row))
    return "\n".join(lines) + "\n"


def read_nb_alist(text: str, field: Field | None = None) -> SparseGfMatrix:
    """Inverse of :func:`write_nb_alist`.

    The header carries q but not the defining polynomial; pass the code's
    field to decode exponents into the right polynomial basis (the default
    polynomial for r = log2(q) is assumed otherwise).
    """
    tokens = text.split()
    pos = 0

    def take(k):
        nonlocal pos
        vals = [int(t) for t in tokens[pos:pos + k]]
        pos += k
        return vals

    n, m, q = take(3)
    if field is None:
        field = Field(q.bit_length() - 1)
    if field.q != q:
        raise ValueError(f"field size {field.q} does not match header q={q}")
    take(2)
    col_deg = take(n)
    row_deg = take(m)
    entries = []
    for j in range(n):
        pairs = take(2 * col_deg[j])
        for i, val in zip(pairs[0::2], pairs[1::2]):
            if i:
                entries.append((i - 1, j, field.pow_alpha(val - 1)))
    for i in range(m):
        take(2 * row_deg[i])
    return SparseGfMatrix.from_entries(m, n, entries, field)


def write_base_matrix_pair(code: QcCode) -> str:
    """Shift matrix and (when labeled) exponent matrix as text blocks.

    Empty cells print -1; parallel edges print comma-joined values in edge
    order.
    """
    proto = code.proto

    def block(values: dict[int, int]) -> list[str]:
        cells: list[list[list[int]]] = [
            [[] for _ in range(proto.n_vars)] for _ in range(proto.n_checks)
        ]
        for e in range(proto.n_edges):
            cells[proto.edge_check[e]][proto.edge_var[e]].append(values[e])
        out = []
        for row in cells:
            out.append(
                " ".join(
                    ",".join(str(v) for v in cell) if cell else "-1"
                    for cell in row
                )
            )
        return out

    lines = ["# shifts"]
    lines += block(code.shifts)
    if code.labels is not None:
        lines.append("# labels")
        lines += block(code.labels)
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
