"""The elimination kernel: Gaussian elimination driven by operation tables.

Both entry points work destructively on an int16 matrix of element
indices and take the field's dense ``add``, ``mul``, ``inv`` and ``neg``
tables, so one code path serves every field gcnet accepts.  Callers go
through the module attributes (``backend.rank_destructive``), which keeps
the kernel replaceable for tracing.
"""

from __future__ import annotations

import numpy as np


def rank_destructive(m, add, mul, inv, neg) -> int:
    """Rank of ``m`` over the table-described field; ``m`` is clobbered."""
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = -1
        for i in range(rank, rows):
            if m[i, col] != 0:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        pinv = inv[m[rank, col]]
        m[rank] = mul[pinv, m[rank]]
        below = m[rank + 1 :, col]
        hits = np.nonzero(below)[0]
        if hits.size:
            rows_idx = hits + rank + 1
            factors = neg[m[rows_idx, col]]
            m[rows_idx] = add[m[rows_idx], mul[factors[:, None], m[rank][None, :]]]
        rank += 1
    return rank


def rref_destructive(m, pivots, add, mul, inv, neg) -> int:
    """Reduce ``m`` in place to reduced row echelon form.

    Fills ``pivots`` (int16, length >= min(rows, cols)) with the pivot
    column of each nonzero row and returns the number of pivots.
    """
    rows, cols = m.shape
    rank = 0
    for col in range(cols):
        if rank == rows:
            break
        pivot = -1
        for i in range(rank, rows):
            if m[i, col] != 0:
                pivot = i
                break
        if pivot < 0:
            continue
        if pivot != rank:
            m[[rank, pivot]] = m[[pivot, rank]]
        pinv = inv[m[rank, col]]
        m[rank] = mul[pinv, m[rank]]
        column = m[:, col]
        hits = np.nonzero(column)[0]
        hits = hits[hits != rank]
        if hits.size:
            factors = neg[m[hits, col]]
            m[hits] = add[m[hits], mul[factors[:, None], m[rank][None, :]]]
        pivots[rank] = col
        rank += 1
    return rank


def backend_name() -> str:
    """Name of the elimination kernel; always ``"python"`` (NumPy)."""
    return "python"
