"""Atomic file writing and CSV formatting helpers.

Output files are written next to their final path and renamed into place,
so a crash mid-write never leaves a partial artifact, and a failed write or
rename removes its temporary file. Floats, numpy scalars included, are
rendered as plain Python floats with ``repr`` (shortest round-trip form),
which keeps byte-identical output for byte-identical computations under any
numpy version.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterable, Sequence


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    return "\n".join(lines) + "\n"
