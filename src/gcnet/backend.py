"""The elimination kernel: Gauss-Jordan elimination driven by operation tables.

There are two paths, chosen by what the caller holds, with no size
switch and no option:

- a single matrix runs a Python loop over its rows as lists
  (``rank_destructive``).  The search's span memo and the random
  search's receivers (a trial stops at its first short one) pay per
  call, and NumPy's vectorised row operations only catch up between
  12 x 12 and 24 x 24 (README, "Elimination kernel"), above every matrix
  gcnet ranks;
- a stack of same-shape matrices runs ``rank_stack`` or ``rref_stack``:
  one NumPy pass over the batch axis per column, so NumPy's per-call
  cost is paid once per column for the whole stack rather than once per
  matrix.  Their one caller each, ``linalg.ranks_of_selections`` and
  ``linalg.rrefs_of_stack``, bounds the stacks.  Every reduced form
  gcnet decides comes from the second: a parsed code's codewords, the
  verifier's canonical-basis check and a solution's decoder plan.

The loop's reducing entry point has no caller in gcnet: the tests hold
``rref_stack`` to it matrix by matrix.

Every entry point takes element indices and the field's ``inv``,
``neg``, ``add`` and ``mul`` tables as the flat int16 memoryviews each
:class:`~gcnet.ffield.FieldSpec` builds once (``FieldSpec.kernel_views``),
so one code path serves every field gcnet accepts; a ``(q, q)`` table is
read at ``a * q + b``, and ``q`` is the length of ``inv``.  No entry
point writes the array it is given.  The rref entry points return the
reduced rows and their pivot columns.

Row operations touch only the columns from the pivot column on: every
row's entries to the left of it are already settled.  Callers go
through the module attributes (``backend.rank_destructive``), which
keeps the kernel replaceable for tracing; perfbench's tracer wraps the
single-matrix entry points by name, the one reason both keep an earlier
in-place kernel's names.
"""

from __future__ import annotations

import numpy as np


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


def rank_stack(stack, inv, neg, add, mul) -> np.ndarray:
    """Ranks of the matrices of a ``(B, R, C)`` stack of element indices
    over the table-described field, as a length-``B`` intp array; the
    stack is not written.

    Gaussian elimination over the whole stack at once, on its shorter
    side (a matrix and its transpose share their rank).  At each column
    every matrix takes its first nonzero row as the pivot and subtracts
    ``f / pivot`` times it from each row whose entry there is ``f``; this
    clears the column and zeroes the pivot row itself, leaving the rows
    that have not been pivots.  A matrix whose column is zero takes row 0
    with ``f = 0`` everywhere, so its rows stay as they are.  The last
    column is only checked for a pivot.  The tables are read through
    zero-copy views, and the index arithmetic ``a * q + b`` runs in one
    reused intp buffer, since int16 overflows above q = 181.  Scratch
    memory is about 20 bytes per entry; ``linalg.ranks_of_selections``
    bounds the stacks it passes.
    """
    inv, neg, add, mul = (np.asarray(t) for t in (inv, neg, add, mul))
    q = np.intp(len(inv))
    if stack.shape[2] > stack.shape[1]:
        stack = stack.transpose(0, 2, 1)
    ranks = np.zeros(len(stack), dtype=np.intp)
    if not stack.size:
        return ranks
    m = stack.astype(np.int16)
    buffer = np.empty(m.size, dtype=np.intp)
    batch = np.arange(len(m))
    for col in range(m.shape[2] - 1):
        lead = m[:, :, col]
        prow = m[batch, (lead != 0).argmax(axis=1), col:]
        ranks += prow[:, 0] != 0
        # -(f / pivot) for each row's entry f in this column
        coef = neg.take(mul.take((inv.take(prow[:, 0]) * q)[:, None] + lead))
        tail = m[:, :, col + 1:]
        at = buffer[:tail.size].reshape(tail.shape)
        np.add((coef * q)[:, :, None], prow[:, None, 1:], out=at)
        product = mul.take(at)
        np.multiply(tail, q, out=at)
        at += product
        # every index is in range; "clip" lets take write into the view unbuffered
        add.take(at, out=tail, mode="clip")
    ranks += m[:, :, -1].any(axis=1)
    return ranks


def rref_stack(stack, inv, neg, add, mul) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon forms of the matrices of a ``(B, R, C)`` stack
    of element indices over the table-described field, as ``(red,
    pivots)``: an int16 stack of the input's shape, each matrix reduced
    with its zero rows last, and a ``(B, R)`` intp array of each row's
    pivot column, ``C`` at the zero rows.  The stack is not written.

    Gauss-Jordan elimination over the whole stack at once, one column at
    a time, with every row left in place.  At each column every matrix
    takes its first nonzero row that is not yet a pivot row, of entry
    ``p``, and adds ``c`` times it to each of its rows: ``c = -f / p``
    for a row whose entry there is ``f``, and ``c = 1 / p - 1`` for the
    pivot row itself, which scales it to a leading 1.  A matrix without
    such a row adds with ``c = 0``, so its rows stay as they are.  The
    pass stops once every row is a pivot row or every column is done;
    then each matrix's pivot rows are gathered to the top in column
    order, and the rest, which are zero, below them.  The reduced form
    of a matrix is unique, so this is the single-matrix loop's result.
    Index arithmetic runs in one reused intp buffer, as in ``rank_stack``.
    """
    inv, neg, add, mul = (np.asarray(t) for t in (inv, neg, add, mul))
    q = np.intp(len(inv))
    count, nrows, ncols = stack.shape
    # C order, whatever the input's layout, so that ``flat`` below is a view of m
    m = np.array(stack, dtype=np.int16, order="C")
    red = np.zeros_like(m)
    pivots = np.full((count, nrows), ncols, dtype=np.intp)
    if not m.size:
        return red, pivots
    flat = m.reshape(count * nrows, ncols)
    first = np.arange(count) * nrows
    unused = np.ones((count, nrows), dtype=bool)
    minus_one = np.intp(neg[1])
    buffer = np.empty(m.size, dtype=np.intp)
    steps = []
    for col in range(ncols):
        lead = m[:, :, col]
        free = (lead != 0) & unused
        found = free.any(axis=1)
        src = first + free.argmax(axis=1)
        prow = flat.take(src, axis=0)[:, col:]
        scale = inv.take(prow[:, 0]) * q
        coef = neg.take(mul.take(scale[:, None] + lead))
        coef.reshape(-1)[src] = add.take(scale + minus_one)
        coef *= found[:, None]
        tail = m[:, :, col:]
        at = buffer[:tail.size].reshape(tail.shape)
        np.add((coef * q)[:, :, None], prow[:, None, :], out=at)
        product = mul.take(at)
        np.multiply(tail, q, out=at)
        at += product
        add.take(at, out=tail, mode="clip")
        unused.reshape(-1)[src[found]] = False
        steps.append((col, found, src))
        if not unused.any():
            break
    cols, found, src = (np.array(x) for x in zip(*steps))
    # step s gives matrix b its pivot number place[s, b] when found[s, b]
    place = np.cumsum(found, axis=0) - 1
    s, b = np.nonzero(found)
    pivots[b, place[s, b]] = cols[s]
    red.reshape(-1, ncols)[first[b] + place[s, b]] = flat[src[s, b]]
    return red, pivots


def backend_name() -> str:
    """Name of the elimination kernel; always ``"python"``."""
    return "python"
