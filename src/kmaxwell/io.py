"""Deterministic serialization for cochains, monitor series, and tables.

All text output is produced with ``repr`` of Python floats (shortest
round-trip form), so identical data gives byte-identical files; binary
snapshots are a JSON sidecar header plus a raw little-endian float64 block.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .mesh import Cochain, GridSpec, layout

FORMAT_TAG = "cochain-f64le-v1"
MONITOR_COLUMNS = ("time", "rE", "rB", "rbdy", "energy", "cone_leak")


def _fmt(x: float) -> str:
    return repr(float(x))


def _grid_header(grid: GridSpec) -> dict:
    return {
        "n": grid.n,
        "cells_per_axis": list(grid.cells_per_axis),
        "lengths": list(grid.lengths),
        "dt": grid.dt,
        "t0": grid.t0,
        "periodic": [int(p) for p in grid.periodic],
    }


def _grid_from_header(h: dict) -> GridSpec:
    return GridSpec(
        n=int(h["n"]),
        cells_per_axis=tuple(int(c) for c in h["cells_per_axis"]),
        lengths=tuple(float(v) for v in h["lengths"]),
        dt=float(h["dt"]),
        t0=float(h["t0"]),
        periodic=tuple(bool(p) for p in h["periodic"]),
    )


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_table_csv(path, columns: dict) -> None:
    """Write named columns of equal length as a plain CSV table.

    Args:
        path: output file path.
        columns: ordered mapping column name -> sequence of floats.
    """
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    length = arrays[0].size if arrays else 0
    if any(a.size != length for a in arrays):
        raise ValueError("columns differ in length")
    lines = [",".join(names)]
    for i in range(length):
        lines.append(",".join(_fmt(a[i]) for a in arrays))
    Path(path).write_text("\n".join(lines) + "\n")


def read_table_csv(path) -> dict:
    text = Path(path).read_text().strip().splitlines()
    names = text[0].split(",")
    rows = [line.split(",") for line in text[1:]]
    return {
        name: np.array([float(r[j]) for r in rows]) for j, name in enumerate(names)
    }


def write_monitor_csv(path, series: dict) -> None:
    """Write a monitor series with the canonical six-column layout."""
    if tuple(series) != MONITOR_COLUMNS:
        raise ValueError(f"monitor series must have columns {MONITOR_COLUMNS}")
    write_table_csv(path, series)


def read_monitor_csv(path) -> dict:
    out = read_table_csv(path)
    if tuple(out) != MONITOR_COLUMNS:
        raise ValueError(f"monitor series must have columns {MONITOR_COLUMNS}")
    return out


def snapshot_paths(stem) -> tuple[Path, Path]:
    stem = Path(stem)
    return stem.with_suffix(".json"), stem.with_suffix(".bin")


def write_cochain_binary(stem, c: Cochain, time: float) -> tuple[Path, Path]:
    """Write ``<stem>.json`` (header) and ``<stem>.bin`` (raw payload).

    The payload is the flat value vector as little-endian float64; the header
    records format tag, degree, family, grid, time, and payload length.

    Returns:
        The (json_path, bin_path) pair.
    """
    json_path, bin_path = snapshot_paths(stem)
    vec = c.vec.astype("<f8")
    header = {
        "format": FORMAT_TAG,
        "degree": c.degree,
        "dual": bool(c.dual),
        "grid": _grid_header(c.grid),
        "time": float(time),
        "length": int(vec.size),
    }
    write_json(json_path, header)
    bin_path.write_bytes(vec.tobytes())
    return json_path, bin_path


def read_cochain_binary(stem) -> tuple[Cochain, float]:
    json_path, bin_path = snapshot_paths(stem)
    header = json.loads(json_path.read_text())
    if header.get("format") != FORMAT_TAG:
        raise ValueError(f"unrecognized snapshot format in {json_path}")
    vec = np.frombuffer(bin_path.read_bytes(), dtype="<f8")
    if vec.size != int(header["length"]):
        raise ValueError(f"payload length {vec.size} does not match header {header['length']}")
    grid = _grid_from_header(header["grid"])
    c = layout(grid, int(header["degree"]), bool(header["dual"])).cochain(vec.astype(float))
    return c, float(header["time"])
