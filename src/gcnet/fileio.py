"""Text formats for covering codes, solutions and network parameters.

The code and solution formats are line oriented: ``#`` starts a comment
line (writers use them for version/parameter/seed headers), blank lines
are ignored, and every other line is whitespace-separated integers.

- covering code: header ``n k delta alpha q count`` then ``count``
  blocks, each ``k`` lines of ``n`` entries spanning a k-dimensional
  subspace.  Writers give each block's canonical basis, the row of the
  code's ``(count, k, n)`` array; the parser reads every block into one
  flat buffer and reduces them all to it in one ``rrefs_of_stack`` call.
- solution: header ``h r alpha ell epsilon q t`` then ``r`` matrix
  blocks, each a line ``rows cols q`` then ``rows`` lines of ``cols``
  entries.  Block ``i`` is row ``i`` of the solution's
  ``(r, ell*t, h*t)`` array; the parser reads every block into one flat
  buffer, checks each block's shape and views the buffer as that array.
- network parameters: a JSON object with keys h, r, alpha, ell, epsilon.

Parse errors raise :class:`FileFormatError` carrying the 1-based line
number, which the CLI reports verbatim.
"""

from __future__ import annotations

import json
from array import array
from typing import Iterable, Optional

import numpy as np

from .combnet import LinearSolution, NetworkParams
from .ffield import field_from_size
from . import grasscode, linalg
from .grasscode import CoveringCode


class FileFormatError(ValueError):
    """Malformed input file; ``line`` is the offending 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class _LineReader:
    """Iterator over meaningful lines that remembers line numbers."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next_ints(self, expect: int) -> list[int]:
        while self.pos < len(self.lines):
            self.pos += 1
            raw = self.lines[self.pos - 1].strip()
            if not raw or raw.startswith("#"):
                continue
            try:
                values = list(map(int, raw.split()))
            except ValueError:
                raise FileFormatError("expected whitespace-separated integers", self.pos) from None
            if len(values) != expect:
                raise FileFormatError(f"expected {expect} integers, found {len(values)}", self.pos)
            return values
        # line numbers are 1-based, so a file with no lines ends at line 1
        raise FileFormatError("unexpected end of file", max(1, len(self.lines)))

    def next_content(self) -> Optional[int]:
        """The 1-based number of the first meaningful line not yet read,
        or None when only blank and comment lines are left."""
        for number in range(self.pos, len(self.lines)):
            raw = self.lines[number].strip()
            if raw and not raw.startswith("#"):
                return number + 1
        return None

    def read_rows(self, rows: int, cols: int, q: int, entries: array, message: str) -> None:
        """Append the next ``rows`` lines of ``cols`` integers to the flat
        buffer ``entries``.  Each line is checked to lie in ``[0, q)``
        before it is stored, and a bad one raises ``message`` at its line,
        so no entry can overflow the buffer's type."""
        for _ in range(rows):
            # a meaningful line holds at least one integer
            values = self.next_ints(cols)
            if min(values) < 0 or max(values) >= q:
                raise FileFormatError(message, self.pos)
            entries.extend(values)


def _format_rows(rows) -> list[str]:
    return [" ".join(map(str, row)) for row in rows]


# ---------------------------------------------------------------------------
# Covering codes.
# ---------------------------------------------------------------------------


def render_code(code: CoveringCode, header: Iterable[str] = ()) -> str:
    """The code file of ``code``: its rows, formatted in slices of
    ``linalg.items_per_pass(n)`` rows so that only one slice's line
    strings are held at once."""
    lines = [f"# {h}" for h in header]
    lines.append(f"{code.n} {code.k} {code.delta} {code.alpha} {code.field.q} {code.size}")
    rows = code.codewords.reshape(-1, code.n)
    step = linalg.items_per_pass(code.n)
    for start in range(0, len(rows), step):
        part = rows[start:start + step]
        if not part.any(axis=1).all():
            raise ValueError("cannot serialize a codeword with dim < k losslessly")
        lines.append("\n".join(_format_rows(part.tolist())))
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> CoveringCode:
    reader = _LineReader(text)
    n, k, delta, alpha, q, count = reader.next_ints(6)
    header_line = reader.pos
    if count < 0:
        raise FileFormatError(f"codeword count must be non-negative, got {count}", header_line)
    # a codeword with k = 0 reads no line, so the file's length does not
    # bound the count: it is refused before any block is read
    if count > grasscode.ENUMERATION_LIMIT:
        raise FileFormatError(
            f"codeword count {count} exceeds the cap {grasscode.ENUMERATION_LIMIT}", header_line
        )
    try:
        field = field_from_size(q)
    except ValueError as exc:
        raise FileFormatError(str(exc), header_line) from None
    # the array's shape comes from the header, so a bad one is refused here
    if n < 1 or not 0 <= k <= n:
        raise FileFormatError(f"bad ambient/dimension pair (n={n}, k={k})", header_line)
    # the blocks are read before anything is allocated, so a header alone
    # cannot ask for more memory than the file holds; a codeword with
    # k = 0 is the zero subspace, with no block to read
    entries, ends, stopped = array("h"), [], None
    try:
        for _ in range(count if k else 0):
            reader.read_rows(k, n, field.q, entries, f"entries out of range for GF({field.q})")
            ends.append(reader.pos)
    except FileFormatError as exc:
        stopped = exc
    # the blocks complete before a read error come first: a short one
    # among them is the fault on the earliest line
    complete = count if stopped is None else len(ends)
    words = np.frombuffer(entries, dtype=np.int16, count=complete * k * n)
    codewords, pivots = linalg.rrefs_of_stack(words.reshape(complete, k, n), field)
    ranks = np.count_nonzero(pivots < n, axis=1)
    short = np.flatnonzero(ranks < k)
    if short.size:
        i = int(short[0])
        raise FileFormatError(f"codeword {i} basis has rank {ranks[i]}, expected {k}", ends[i])
    if stopped is not None:
        raise stopped
    trailing = reader.next_content()
    if trailing is not None:
        raise FileFormatError("trailing content after code", trailing)
    try:
        return CoveringCode(field=field, n=n, k=k, delta=delta, alpha=alpha, codewords=codewords)
    except ValueError as exc:
        raise FileFormatError(str(exc), header_line) from None


# ---------------------------------------------------------------------------
# Solutions.
# ---------------------------------------------------------------------------


def render_solution(sol: LinearSolution, header: Iterable[str] = ()) -> str:
    p = sol.params
    lines = [f"# {h}" for h in header]
    lines.append(f"{p.h} {p.r} {p.alpha} {p.ell} {p.epsilon} {sol.field.q} {sol.t}")
    _, k, n = sol.matrices.shape
    for a in sol.matrices:
        lines.append(f"{k} {n} {sol.field.q}")
        lines.extend(_format_rows(a.tolist()))
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> LinearSolution:
    reader = _LineReader(text)
    h, r, alpha, ell, epsilon, q, t = reader.next_ints(7)
    header_line = reader.pos
    try:
        params = NetworkParams(h=h, r=r, alpha=alpha, ell=ell, epsilon=epsilon)
        field = field_from_size(q)
    except ValueError as exc:
        raise FileFormatError(str(exc), header_line) from None
    # every block goes into one flat buffer as it is read, so a header
    # alone cannot ask for more memory than the file holds
    entries, shapes = array("h"), []
    for i in range(r):
        rows, cols, block_q = reader.next_ints(3)
        if rows < 0 or cols < 0:
            raise FileFormatError("matrix shape must be non-negative", reader.pos)
        # a block over the header's field reuses it; another order is
        # checked as a field here and refused once its rows are read
        if block_q != q:
            try:
                field_from_size(block_q)
            except ValueError as exc:
                raise FileFormatError(str(exc), reader.pos) from None
        reader.read_rows(rows, cols, block_q, entries,
                         f"matrix entries out of range for GF({block_q})")
        if block_q != q:
            raise FileFormatError(f"matrix {i} is over GF({block_q}), expected GF({q})",
                                  reader.pos)
        shapes.append((rows, cols))
    trailing = reader.next_content()
    if trailing is not None:
        raise FileFormatError("trailing content after solution", trailing)
    try:
        n, k, _, _ = params.code_params(t)
        for i, (rows, cols) in enumerate(shapes):
            if (rows, cols) != (k, n):
                raise ValueError(f"matrix {i} has shape {rows}x{cols}, expected {k}x{n}")
        matrices = np.frombuffer(entries, dtype=np.int16).reshape(r, k, n)
        return LinearSolution(params=params, field=field, t=t, matrices=matrices)
    except ValueError as exc:
        raise FileFormatError(str(exc), header_line) from None


# ---------------------------------------------------------------------------
# Network parameters (JSON).
# ---------------------------------------------------------------------------


def parse_params(text: str) -> NetworkParams:
    """The network of a JSON parameter file.  Every value must be a JSON
    integer: a float, string or boolean is refused, not rounded."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON: {exc.msg}", exc.lineno) from None
    if not isinstance(obj, dict):
        raise FileFormatError("parameter file must hold a JSON object")
    keys = ("h", "r", "alpha", "ell", "epsilon")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise FileFormatError(f"missing parameter keys: {', '.join(missing)}")
    for key in keys:
        # ``bool`` is a subclass of ``int``, so test the exact type
        if type(obj[key]) is not int:
            raise FileFormatError(f"parameter {key} must be an integer, got {json.dumps(obj[key])}")
    try:
        return NetworkParams(**{key: obj[key] for key in keys})
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
