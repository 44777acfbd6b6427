"""Columnar export of campaign checkpoints, stdlib only.

``repro campaign export --columnar DIR`` turns a JSON-lines checkpoint
into one packed binary file per :class:`TrialResult` column plus a
``manifest.json``, so offline analysis (numpy ``fromfile``, pandas,
duckdb...) reads a 10**6-trial campaign without parsing a million JSON
objects.  The export itself streams: each checkpoint line is parsed
by the sink's :class:`~repro.experiments.sink.CheckpointReader` (so a
torn record is skipped here exactly as a resume skips it), appended to
the open column files, and dropped — peak memory is one record, not
the campaign.

Layout (schema ``repro-columnar/1``)::

    DIR/
      manifest.json       # schema, row count, column dtypes, null counts
      keys.txt            # scenario key per row, newline-separated
      time_all.bin        # little-endian float64, NaN = null
      messages.bin        # little-endian int64
      ...

Columns are derived from the :class:`TrialResult` dataclass: the five
integer measures every trial carries (``rep``, ``origin``,
``diameter``, ``messages``, ``bytes_sent``) pack as ``<q`` (int64),
every other scalar field as ``<d`` (float64) with NaN standing for
null — uniform eight bytes per row per column either way.  New
scalar result fields automatically become new float64 columns.  The
``extra`` mapping of artefact-specific measures is not a column: its
names differ per artefact, so it stays in the JSON-lines checkpoint.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import sys
from array import array
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ExperimentError
from .results import PathLike, TrialResult
from .sink import CheckpointReader

__all__ = ["COLUMN_DTYPES", "export_columnar", "read_column", "read_manifest"]

#: Export document schema tag; bump on incompatible layout changes.
SCHEMA = "repro-columnar/1"

_INT = "<q"
_FLOAT = "<d"

#: The integer measures every trial carries; they pack as int64.
_INT_COLUMNS = ("rep", "origin", "diameter", "messages", "bytes_sent")


def _column_dtypes() -> Dict[str, str]:
    """Column name -> struct dtype, chosen by field name alone.

    ``_INT_COLUMNS`` pack as int64; every other scalar field packs as
    float64 with NaN for null, whatever its default.
    """
    return {
        field.name: _INT if field.name in _INT_COLUMNS else _FLOAT
        for field in dataclasses.fields(TrialResult)
        if field.name != "extra"
    }


COLUMN_DTYPES: Dict[str, str] = _column_dtypes()


def export_columnar(
    checkpoint: PathLike, out_dir: PathLike
) -> Dict[str, object]:
    """Stream a JSON-lines checkpoint into a columnar directory.

    Returns the manifest (also written to ``DIR/manifest.json``).
    Raises :class:`ExperimentError` when the checkpoint does not exist.
    """
    checkpoint = Path(checkpoint)
    if not checkpoint.exists():
        raise ExperimentError(f"no checkpoint at {checkpoint}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    names = list(COLUMN_DTYPES)
    nulls = {name: 0 for name in names}
    rows = 0
    handles = {name: (out / f"{name}.bin").open("wb") for name in names}
    try:
        with (out / "keys.txt").open("w", encoding="utf-8") as keys_fh:
            for key, trial in CheckpointReader(checkpoint).trials():
                keys_fh.write(key + "\n")
                for name in names:
                    value = trial.get(name)
                    dtype = COLUMN_DTYPES[name]
                    if dtype == _INT:
                        if value is None:
                            raise ExperimentError(
                                f"required column {name!r} is null in row {rows}"
                            )
                        packed = struct.pack(_INT, int(value))
                    else:
                        if value is None:
                            nulls[name] += 1
                            packed = struct.pack(_FLOAT, math.nan)
                        else:
                            packed = struct.pack(_FLOAT, float(value))
                    handles[name].write(packed)
                rows += 1
    finally:
        for handle in handles.values():
            handle.close()

    manifest: Dict[str, object] = {
        "schema": SCHEMA,
        "rows": rows,
        "source": str(checkpoint),
        "keys_file": "keys.txt",
        "columns": {
            name: {
                "file": f"{name}.bin",
                "dtype": COLUMN_DTYPES[name],
                "nulls": nulls[name],
            }
            for name in names
        },
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def read_manifest(out_dir: PathLike) -> Dict[str, object]:
    path = Path(out_dir) / "manifest.json"
    if not path.exists():
        raise ExperimentError(f"no columnar manifest at {path}")
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if manifest.get("schema") != SCHEMA:
        raise ExperimentError(
            f"unknown columnar schema {manifest.get('schema')!r}"
        )
    return manifest


def read_column(out_dir: PathLike, name: str) -> List[Optional[float]]:
    """Read one exported column back (None where the export wrote null).

    A convenience for tests and quick offline looks; bulk analysis
    should ``numpy.fromfile`` the ``.bin`` directly.
    """
    out = Path(out_dir)
    manifest = read_manifest(out)
    columns = manifest["columns"]
    if name not in columns:
        raise ExperimentError(
            f"unknown column {name!r}; known: {sorted(columns)}"
        )
    info = columns[name]
    typecode = "q" if info["dtype"] == _INT else "d"
    values = array(typecode)
    with (out / info["file"]).open("rb") as fh:
        values.frombytes(fh.read())
    if sys.byteorder == "big":  # files are always little-endian
        values.byteswap()
    if typecode == "q":
        return list(values)
    return [None if math.isnan(v) else v for v in values]
