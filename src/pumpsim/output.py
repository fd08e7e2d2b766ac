"""Atomic text output: every file the package writes goes through here."""

import os

import numpy as np

# Below this many values a table costs less in Python, value by value, than
# the fixed cost of a call to the numpy kernel (about 0.2 ms).
_SMALL = 512


def rows(*columns) -> list[str]:
    """One comma-separated line per row of the stacked `columns` (1-D
    arrays, or 2-D arrays contributing several columns), each value at full
    double precision: `%.17g`, the same text as `f"{x:.17g}"`, byte for
    byte. Integer columns print as their float64 values, as `%g` does.

    A table of _SMALL values or more goes through a numpy kernel, in blocks
    of rows. For each value x it finds the decimal exponent k and the 17
    digits N, |x| 10^(16-k) rounded to the nearest integer with
    10^16 <= N < 10^17, and lays out the text from N, k and the sign.
    The digits are exact: |x| 10^(16-k) is computed in double-double
    arithmetic (Dekker's exact two-product against a double-double power of
    ten), with an error below 1e-14, far below the 2^-20 margin the kernel
    keeps from a tie. A value whose fraction lies within that margin goes to
    `'%.17g' % x` instead, and so does every value the argument does not
    cover: non-finite, of magnitude below 1e-280 (subnormals included) or
    from 1e280 up, or with N outside its range after one correction of k.
    The ties themselves, such as 2^-25 = 2.98023223876953125e-08, take that
    path."""
    table = np.column_stack(columns)
    if table.size < _SMALL:
        fmt = ",".join(["%.17g"] * table.shape[1])
        return [fmt % tuple(row.tolist()) for row in table]
    from ._g17 import table_lines  # compiled on first use, not at import
    return table_lines(np.asarray(table, dtype=np.float64))


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
