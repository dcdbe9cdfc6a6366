"""The elimination kernel: Gauss-Jordan elimination driven by operation tables.

Both entry points take an int16 matrix of element indices and the
field's dense ``add``, ``mul``, ``inv`` and ``neg`` tables, so one code
path serves every field gcnet accepts.  The elimination runs on the
matrix's rows as Python lists (``m.tolist()``) and reads the tables
through flat memoryviews, which copy nothing: a ``(q, q)`` table is
read at ``a * q + b``.

Row operations touch only the columns from the pivot column on: every
row's entries to the left of it are already settled.  Callers go
through the module attributes (``backend.rank_destructive``), which
keeps the kernel replaceable for tracing.

NumPy's vectorised row operations only catch up between 12 x 12 and
24 x 24 (README, "Elimination kernel"); gcnet's matrices stay below
that, so there is no size switch.
"""

from __future__ import annotations


def _flat(table) -> memoryview:
    """A zero-copy, one-dimensional view of a C-contiguous int16 table."""
    return memoryview(table).cast("B").cast("h")


def _eliminate(rows: list, add, mul, inv, neg, reduce: bool) -> list[int]:
    """Bring ``rows`` (equal-length lists of element indices) to echelon
    form in place over the field of the given tables, and return the
    pivot columns.

    With ``reduce`` the form is the reduced one: each pivot is scaled to
    1 and cleared above as well as below.  Otherwise pivots keep their
    value and only the rows below are cleared, which is all a rank needs.
    """
    add, mul, inv, neg = _flat(add), _flat(mul), _flat(inv), _flat(neg)
    q = len(inv)
    nrows = len(rows)
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        for i in range(rank, nrows):
            if rows[i][col]:
                break
        else:
            continue
        prow = rows[i]
        rows[i] = rows[rank]
        rows[rank] = prow
        scale = inv[prow[col]] * q
        if reduce:
            prow[col:] = [mul[scale + b] for b in prow[col:]]
            scale = q  # the pivot is 1 now
        tail = prow[col:]
        for j in range(nrows) if reduce else range(rank + 1, nrows):
            row = rows[j]
            f = row[col]
            if f and row is not prow:
                # row -= (f / pivot) * prow
                base = neg[mul[scale + f]] * q
                row[col:] = [add[a * q + mul[base + b]] for a, b in zip(row[col:], tail)]
        pivots.append(col)
        if rank + 1 == nrows:
            break
    return pivots


def rank_destructive(m, add, mul, inv, neg) -> int:
    """Rank of ``m`` over the table-described field; ``m`` is left unchanged."""
    return len(_eliminate(m.tolist(), add, mul, inv, neg, False))


def rref_destructive(m, pivots, add, mul, inv, neg) -> int:
    """Reduce ``m`` in place to reduced row echelon form.

    Fills ``pivots`` (int16, length >= min(rows, cols)) with the pivot
    column of each nonzero row and returns the number of pivots.
    """
    rows = m.tolist()
    cols = _eliminate(rows, add, mul, inv, neg, True)
    if cols:  # without a pivot nothing changed
        m[...] = rows
        pivots[: len(cols)] = cols
    return len(cols)


def backend_name() -> str:
    """Name of the elimination kernel; always ``"python"``."""
    return "python"
