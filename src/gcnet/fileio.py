"""Text formats for matrices, covering codes, solutions and parameters.

All formats are line oriented: ``#`` starts a comment line (writers use
them for version/parameter/seed headers), blank lines are ignored, and
every other line is whitespace-separated integers.

- matrix: header ``rows cols q`` then ``rows`` lines of ``cols`` entries.
- covering code: header ``n k delta alpha q count`` then ``count``
  blocks, each ``k`` lines of ``n`` entries (a canonical basis).
- solution: header ``h r alpha ell epsilon q t`` then ``r`` matrix
  blocks in the matrix format above.
- network parameters: a JSON object with keys h, r, alpha, ell, epsilon.

Parse errors raise :class:`FileFormatError` carrying the 1-based line
number, which the CLI reports verbatim.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Iterable, Optional

import numpy as np

from .combnet import LinearSolution, NetworkParams
from .ffield import field_from_size
from .grasscode import CoveringCode
from .linalg import MatrixQ, SubspaceQ


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
        raise FileFormatError("unexpected end of file", len(self.lines))

    def at_eof(self) -> bool:
        for raw in self.lines[self.pos :]:
            s = raw.strip()
            if s and not s.startswith("#"):
                return False
        return True


def _format_rows(rows) -> list[str]:
    return [" ".join(map(str, row)) for row in rows]


# ---------------------------------------------------------------------------
# Matrices.
# ---------------------------------------------------------------------------


def _matrix_lines(m: MatrixQ) -> list[str]:
    return [f"{m.rows} {m.cols} {m.field.q}"] + _format_rows(m.data.tolist())


def render_matrix(m: MatrixQ, header: Iterable[str] = ()) -> str:
    return "\n".join([f"# {h}" for h in header] + _matrix_lines(m)) + "\n"


def _parse_matrix_block(reader: _LineReader) -> MatrixQ:
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
    data = np.zeros((rows, cols), dtype=np.int16)
    for i, values in enumerate(read):
        data[i] = values
    return MatrixQ(field, data)


def parse_matrix(text: str) -> MatrixQ:
    reader = _LineReader(text)
    m = _parse_matrix_block(reader)
    if not reader.at_eof():
        raise FileFormatError("trailing content after matrix", reader.pos + 1)
    return m


# ---------------------------------------------------------------------------
# Covering codes.
# ---------------------------------------------------------------------------


def render_code(code: CoveringCode, header: Iterable[str] = ()) -> str:
    lines = [f"# {h}" for h in header]
    lines.append(f"{code.n} {code.k} {code.delta} {code.alpha} {code.field.q} {code.size}")
    for c in code.codewords:
        if c.dim < code.k:
            raise ValueError("cannot serialize a codeword with dim < k losslessly")
        lines.extend(_format_rows(c.basis))
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> CoveringCode:
    reader = _LineReader(text)
    n, k, delta, alpha, q, count = reader.next_ints(expect=6)
    header_line = reader.pos
    if count < 0:
        raise FileFormatError(f"codeword count must be non-negative, got {count}", header_line)
    try:
        field = field_from_size(q)
    except ValueError as exc:
        raise FileFormatError(str(exc), header_line) from None
    codewords = []
    for i in range(count):
        rows = []
        for _ in range(k):
            values = reader.next_ints(expect=n)
            if any(v < 0 or v >= field.q for v in values):
                raise FileFormatError(f"entries out of range for GF({field.q})", reader.pos)
            rows.append(values)
        block_line = reader.pos
        try:
            sub = SubspaceQ(field, n, rows)
        except ValueError as exc:
            raise FileFormatError(str(exc), block_line) from None
        if sub.dim != k:
            raise FileFormatError(
                f"codeword {i} basis has rank {sub.dim}, expected {k}", block_line
            )
        codewords.append(sub)
    if not reader.at_eof():
        raise FileFormatError("trailing content after code", reader.pos + 1)
    try:
        return CoveringCode(field=field, n=n, k=k, delta=delta, alpha=alpha, codewords=tuple(codewords))
    except ValueError as exc:
        raise FileFormatError(str(exc), header_line) from None


# ---------------------------------------------------------------------------
# Solutions.
# ---------------------------------------------------------------------------


def render_solution(sol: LinearSolution, header: Iterable[str] = ()) -> str:
    p = sol.params
    lines = [f"# {h}" for h in header]
    lines.append(f"{p.h} {p.r} {p.alpha} {p.ell} {p.epsilon} {sol.field.q} {sol.t}")
    for a in sol.matrices:
        lines.extend(_matrix_lines(a))
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
    matrices = []
    for i in range(r):
        m = _parse_matrix_block(reader)
        if m.field != field:
            raise FileFormatError(f"matrix {i} is over GF({m.field.q}), expected GF({q})", reader.pos)
        matrices.append(m)
    if not reader.at_eof():
        raise FileFormatError("trailing content after solution", reader.pos + 1)
    try:
        return LinearSolution(params=params, field=field, t=t, matrices=tuple(matrices))
    except ValueError as exc:
        raise FileFormatError(str(exc), header_line) from None


# ---------------------------------------------------------------------------
# Network parameters (JSON).
# ---------------------------------------------------------------------------


def render_params(params: NetworkParams) -> str:
    return json.dumps(dataclasses.asdict(params), indent=2, sort_keys=True) + "\n"


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
