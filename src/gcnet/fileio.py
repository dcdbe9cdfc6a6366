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
  ``(r, ell*t, h*t)`` array; the parser reads every block, checks its
  shape and then stacks them.
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
from .ffield import FieldSpec, field_from_size
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

    def next_ints(self, expect: Optional[int] = None) -> list[int]:
        while self.pos < len(self.lines):
            self.pos += 1
            raw = self.lines[self.pos - 1].strip()
            if not raw or raw.startswith("#"):
                continue
            try:
                values = [int(tok) for tok in raw.split()]
            except ValueError:
                raise FileFormatError("expected whitespace-separated integers", self.pos) from None
            if expect is not None and len(values) != expect:
                raise FileFormatError(
                    f"expected {expect} integers, found {len(values)}", self.pos
                )
            return values
        # line numbers are 1-based, so a file with no lines ends at line 1
        raise FileFormatError("unexpected end of file", max(1, len(self.lines)))

    def at_eof(self) -> bool:
        for raw in self.lines[self.pos :]:
            s = raw.strip()
            if s and not s.startswith("#"):
                return False
        return True


def _format_rows(rows) -> list[str]:
    return [" ".join(map(str, row)) for row in rows]


# ---------------------------------------------------------------------------
# Matrix blocks of a solution.
# ---------------------------------------------------------------------------


def _parse_matrix_block(reader: _LineReader) -> tuple[FieldSpec, np.ndarray]:
    """One block: its header's field and its entries, each checked
    against that field, as an int16 array of the header's shape."""
    rows, cols, q = reader.next_ints(expect=3)
    if rows < 0 or cols < 0:
        raise FileFormatError("matrix shape must be non-negative", reader.pos)
    try:
        field = field_from_size(q)
    except ValueError as exc:
        raise FileFormatError(str(exc), reader.pos) from None
    # the rows are read before the array is allocated, so a header alone
    # cannot ask for more memory than the file holds
    read = []
    for _ in range(rows):
        values = reader.next_ints(expect=cols)
        if any(v < 0 or v >= field.q for v in values):
            raise FileFormatError(f"matrix entries out of range for GF({field.q})", reader.pos)
        read.append(values)
    return field, np.array(read, dtype=np.int16).reshape(rows, cols)


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
    n, k, delta, alpha, q, count = reader.next_ints(expect=6)
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
            for _ in range(k):
                values = reader.next_ints(expect=n)
                if any(v < 0 or v >= field.q for v in values):
                    raise FileFormatError(f"entries out of range for GF({field.q})", reader.pos)
                entries.extend(values)
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
    if not reader.at_eof():
        raise FileFormatError("trailing content after code", reader.pos + 1)
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
    h, r, alpha, ell, epsilon, q, t = reader.next_ints(expect=7)
    header_line = reader.pos
    try:
        params = NetworkParams(h=h, r=r, alpha=alpha, ell=ell, epsilon=epsilon)
        field = field_from_size(q)
    except ValueError as exc:
        raise FileFormatError(str(exc), header_line) from None
    blocks = []
    for i in range(r):
        block_field, block = _parse_matrix_block(reader)
        if block_field != field:
            raise FileFormatError(f"matrix {i} is over GF({block_field.q}), expected GF({q})",
                                  reader.pos)
        blocks.append(block)
    if not reader.at_eof():
        raise FileFormatError("trailing content after solution", reader.pos + 1)
    try:
        n, k, _, _ = params.code_params(t)
        for i, block in enumerate(blocks):
            if block.shape != (k, n):
                rows, cols = block.shape
                raise ValueError(f"matrix {i} has shape {rows}x{cols}, expected {k}x{n}")
        return LinearSolution(params=params, field=field, t=t, matrices=np.stack(blocks))
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
