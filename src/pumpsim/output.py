"""Atomic text output: every file the package writes goes through here."""

import os

import numpy as np


def rows(*columns) -> list[str]:
    """One comma-separated line per row of the stacked `columns` (1-D
    arrays, or 2-D arrays contributing several columns), each value at full
    double precision: `%.17g`, the same text as `f"{x:.17g}"`."""
    table = np.column_stack(columns)
    fmt = ",".join(["%.17g"] * table.shape[1])
    return [fmt % tuple(row.tolist()) for row in table]


def header(fields: dict) -> list[str]:
    """One `# key=value` line per field: a float at `%.17g`, a bool as
    true/false, an int as is, None as none."""
    return [f"# {key}={_text(value)}" for key, value in fields.items()]


def _text(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value) if isinstance(value, (int, np.integer)) else f"{value:.17g}"


def atomic_write(path, lines: list[str]) -> None:
    """Write `lines`, each ending in a newline, to `path` as UTF-8 through a
    temporary file in the same directory and a rename, so `path` holds
    either the old or the new contents, never a partial file. The file gets
    the mode a plain open() would give it, 0o666 less the umask."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".pumpsim-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
