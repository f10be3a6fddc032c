"""QSTATE JSON v1 and the channel interchange format.

A state document is ``{"version": 1, "dims": [...], "matrix": [[[re, im], ...], ...]}``
with the matrix in row-major order; floats round-trip exactly through the
shortest-repr encoding the json module emits. :func:`write_state` streams a
document to a text stream one matrix row at a time, so no nested list or
whole-document string of a large state is ever built; its bytes are those of
``json.dumps`` of the document, followed by a newline. Formatting the floats
is the cost of a write, so each cell pair that mirrors exactly (the lower cell
the conjugate of the upper one, or equal to it) is formatted once, from the
upper cell; the texts handed down to later rows are held joined a few rows at
a time: at most a quarter of the cells, about three quarters of the matrix's
own size. Reading always revalidates.
"""
from __future__ import annotations

import json
import numbers
from itertools import chain
from typing import TYPE_CHECKING, Iterator, TextIO, Union

import numpy as np

from .errors import BadParameter, DimensionMismatch
from .states import DensityMatrix, SubsystemLayout, _ints, validate_state

if TYPE_CHECKING:
    from .channels import KrausChannel

QSTATE_VERSION = 1


def _pairs(mat: np.ndarray) -> np.ndarray:
    """The (..., 2) float64 view of a complex matrix: each entry as (re, im)."""
    mat = np.ascontiguousarray(mat, dtype=complex)
    return mat.view(np.float64).reshape(*mat.shape, 2)


def _encode_matrix(mat: np.ndarray) -> list:
    return _pairs(mat).tolist()


def _decode_matrix(rows) -> np.ndarray:
    """A matrix of [re, im] cells; a cell of any other length, or holding a
    bool or a non-real, is a :class:`BadParameter`."""
    try:
        # one pass over the types that occur, not one check per number;
        # np.array would take bools, numeric strings and null as floats
        kinds = set(map(type, chain.from_iterable(chain.from_iterable(rows))))
    except TypeError as exc:
        raise BadParameter(f"malformed matrix entries: {exc}") from exc
    if any(k is bool or not issubclass(k, numbers.Real) for k in kinds):
        raise BadParameter("matrix entries must be pairs of real numbers")
    if not kinds:
        # no number at all: an empty object or string reads as the empty
        # list it iterates as, like any other empty row or matrix
        rows = [list(row) for row in rows]
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParameter(f"malformed matrix entries: {exc}") from exc
    if arr.ndim == 3:
        if arr.shape[2] != 2:
            raise BadParameter("matrix entries must be pairs of real numbers")
        arr = arr.view(complex)[..., 0]
    if arr.ndim != 2:
        raise DimensionMismatch("matrix must be two-dimensional")
    return arr.astype(complex, copy=False)


def _loads(text: Union[str, bytes]):
    """Parse outside JSON, given as text or as UTF-8 (-16, -32) bytes. Bytes
    that do not decode, malformed text and nesting deeper than the parser's
    recursion limit are each a :class:`BadParameter`."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise BadParameter(f"invalid JSON: {exc}") from exc


def state_to_dict(rho: DensityMatrix) -> dict:
    return {
        "version": QSTATE_VERSION,
        "dims": list(rho.dims),
        "matrix": _encode_matrix(rho.mat),
    }


_SIGN = np.uint64(1 << 63)
# rows whose handed cell texts are joined into one string per column at once
_JOIN_ROWS = 8


def _mirrored(cells: str) -> list[str]:
    """The ``'re, im'`` texts of a run of cells, from the run's encoding
    ``'re, im], [re, im, ...'``, each with its imaginary part's sign flipped.

    ``repr(-x) == '-' + repr(x)`` for every float, ``-0.0`` and the
    infinities included, so this is the text of each cell's conjugate. Within
    the run ``", "`` stands before every imaginary part and inside every
    ``"], ["``: prefixing all of them with ``-`` and dropping ``--`` flips each
    imaginary part and turns the separators into ``"], -["``.
    """
    return cells.replace(", ", ", -").replace(", --", ", ").split("], -[")


def _mirror_rows(pairs: np.ndarray) -> tuple[list, list]:
    """For each row i of a (D, D, 2) matrix: whether every cell (k > i, i)
    below the diagonal is the exact conjugate of its mirror (i, k), bit for
    bit, and whether every one equals its mirror."""
    bits = pairs.view(np.uint64)
    re, im = bits[..., 0], bits[..., 1]
    same_re = re == re.T
    # json writes NaN for either sign, so a NaN is no flipped text
    conj = same_re & ((im ^ im.T) == _SIGN) & ~np.isnan(pairs[..., 1])
    same = same_re & (im == im.T)
    lower = np.tri(len(pairs), dtype=bool)
    return (conj | lower).all(axis=1).tolist(), (same | lower).all(axis=1).tolist()


def _state_chunks(rho: DensityMatrix) -> Iterator[str]:
    """``json.dumps(state_to_dict(rho))`` as the header, one chunk per matrix
    row and the closing brackets.

    Row i formats only its cells (i, j >= i). Its cells (i, k > i) then hand
    row k the text of cell (k, i): their own text when the pair's bits are
    equal, the text with the imaginary sign flipped when cell (k, i) is their
    exact conjugate. A row whose pairs are not all one or all the other hands
    texts formatted from the lower cells' own values, so every matrix keeps
    the bytes of the nested-list encoding.
    """
    pairs = _pairs(rho.mat)
    d = len(pairs)
    conj_rows, same_rows = _mirror_rows(pairs)
    # pending[k]: the texts of cells (k, j) handed down by the rows j before
    # the current block, a string per block of rows; block: (j, the texts row
    # j hands down) for the rows of the current block
    pending: list = [[] for _ in range(d)]
    block: list = []
    yield f'{{"version": {QSTATE_VERSION}, "dims": {json.dumps(list(rho.dims))}, "matrix": ['
    for i in range(d):
        upper = json.dumps(pairs[i, i:].tolist())[2:-2]
        row, pending[i] = pending[i], None
        row += [hand[i - j - 1] for j, hand in block]
        row.append(upper)
        yield (", [[" if i else "[[") + "], [".join(row) + "]]"
        if i + 1 == d:
            break
        off = upper[upper.index("], [") + 4:]
        if conj_rows[i]:
            block.append((i, _mirrored(off)))
        elif same_rows[i]:
            block.append((i, off.split("], [")))
        else:
            block.append((i, json.dumps(pairs[i + 1:, i].tolist())[2:-2].split("], [")))
        if len(block) == _JOIN_ROWS:
            columns = map("], [".join, zip(*(hand[i - j:] for j, hand in block)))
            for col, text in zip(pending[i + 1:], columns):
                col.append(text)
            # the spent zip still holds the slices it did not run to the end
            del columns
            block = []
            if (i + 1) % _JOIN_ROWS**2 == 0:
                # every _JOIN_ROWS blocks, their strings in each column into one
                for col in pending[i + 1:]:
                    col[-_JOIN_ROWS:] = ["], [".join(col[-_JOIN_ROWS:])]
    yield "]}"


def state_to_json(rho: DensityMatrix) -> str:
    return "".join(_state_chunks(rho))


def write_state(rho: DensityMatrix, stream: TextIO) -> None:
    """Write ``rho`` to ``stream`` as a QSTATE document and a newline, one
    matrix row per write.

    Each exactly mirrored cell pair is formatted once; until the lower cell's
    row is written its text waits, with those of the other pending cells,
    joined into a string per column every few rows.
    """
    for chunk in _state_chunks(rho):
        stream.write(chunk)
    stream.write("\n")


def _unpack_state(obj) -> tuple[np.ndarray, SubsystemLayout]:
    """The decoded matrix and layout of a state document, not yet validated."""
    if not isinstance(obj, dict):
        raise BadParameter("state document must be a JSON object")
    version = obj.get("version")
    if version != QSTATE_VERSION:
        raise BadParameter(f"unsupported state document version: {version!r}")
    if "dims" not in obj or "matrix" not in obj:
        raise BadParameter("state document needs 'dims' and 'matrix'")
    layout = SubsystemLayout(tuple(_ints(obj["dims"], BadParameter, "'dims'")))
    return _decode_matrix(obj["matrix"]), layout


def state_from_json(text: Union[str, bytes]) -> DensityMatrix:
    # the parsed document is freed before validation, which needs D x D
    # work arrays of its own
    return validate_state(*_unpack_state(_loads(text)))


def read_state(stream: TextIO) -> DensityMatrix:
    """The state a text stream holds; text that does not decode is invalid JSON."""
    try:
        text = stream.read()
    except UnicodeDecodeError as exc:
        raise BadParameter(f"invalid JSON: {exc}") from exc
    return state_from_json(text)


def channel_to_dict(ch: KrausChannel) -> dict:
    return {
        "inDim": ch.in_dim,
        "outDim": ch.out_dim,
        "kraus": [_encode_matrix(k) for k in ch.kraus],
    }


def channel_to_json(ch: KrausChannel) -> str:
    return json.dumps(channel_to_dict(ch))


def channel_from_dict(obj: dict) -> KrausChannel:
    # imported here: only channel documents need the channels module
    from .channels import KrausChannel

    if not isinstance(obj, dict):
        raise BadParameter("channel document must be a JSON object")
    for key in ("inDim", "outDim", "kraus"):
        if key not in obj:
            raise BadParameter(f"channel document needs '{key}'")
    if not isinstance(obj["kraus"], list):
        raise BadParameter(f"'kraus' must be a list of matrices, got {obj['kraus']!r}")
    ops = tuple(_decode_matrix(k) for k in obj["kraus"])
    return KrausChannel(obj["inDim"], obj["outDim"], ops)


def channel_from_json(text: Union[str, bytes]) -> KrausChannel:
    return channel_from_dict(_loads(text))
