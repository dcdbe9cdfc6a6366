"""The elimination kernel: Gauss-Jordan elimination driven by operation tables.

Both entry points take a matrix of element indices and the field's
``inv``, ``neg``, ``add`` and ``mul`` tables as the flat int16
memoryviews each :class:`~gcnet.ffield.FieldSpec` builds once
(``FieldSpec.kernel_views``), so one code path serves every field gcnet
accepts; a ``(q, q)`` table is read at ``a * q + b``, and ``q`` is the
length of ``inv``.  The elimination runs on the matrix's rows as Python
lists (``m.tolist()``), so the matrix is never written.  The rref entry
point returns the reduced rows and their pivot columns.

Row operations touch only the columns from the pivot column on: every
row's entries to the left of it are already settled.  Callers go
through the module attributes (``backend.rank_destructive``), which
keeps the kernel replaceable for tracing; perfbench's tracer wraps them
by name, the one reason both keep an earlier in-place kernel's names.

NumPy's vectorised row operations only catch up between 12 x 12 and
24 x 24 (README, "Elimination kernel"); gcnet's matrices stay below
that, so there is no size switch.
"""

from __future__ import annotations


def _eliminate(rows: list, inv, neg, add, mul, reduce: bool) -> list[int]:
    """Bring ``rows`` (equal-length lists of element indices) to echelon
    form in place over the field of the given tables, and return the
    pivot columns.

    With ``reduce`` the form is the reduced one: each pivot is scaled to
    1 and cleared above as well as below.  Otherwise pivots keep their
    value and only the rows below are cleared, which is all a rank needs.
    """
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


def rank_destructive(m, inv, neg, add, mul) -> int:
    """Rank of ``m`` over the table-described field; ``m`` is left unchanged."""
    return len(_eliminate(m.tolist(), inv, neg, add, mul, False))


def rref_destructive(m, inv, neg, add, mul) -> tuple[list, list[int]]:
    """Reduced row echelon form of ``m`` as ``(rows, pivots)``: lists of
    element indices, zero rows last, and each nonzero row's pivot column.
    ``m`` is not written; the name is kept for the tracer's lookup."""
    rows = m.tolist()
    return rows, _eliminate(rows, inv, neg, add, mul, True)


def backend_name() -> str:
    """Name of the elimination kernel; always ``"python"``."""
    return "python"
