"""QSTATE JSON v1 and the channel interchange format.

A state document is ``{"version": 1, "dims": [...], "matrix": [[[re, im], ...], ...]}``
with the matrix in row-major order; floats round-trip exactly through the
shortest-repr encoding the json module emits. :func:`write_state` streams a
document to a text stream one matrix row at a time, so no nested list or
whole-document string of a large state is ever built; its bytes are those of
``json.dumps`` of the document, followed by a newline. Reading always
revalidates.
"""
from __future__ import annotations

import json
import math
import numbers
from itertools import chain
from typing import TYPE_CHECKING, Iterator, TextIO, Union

import numpy as np

from .errors import BadParameter, DimensionMismatch
from .states import DensityMatrix, SubsystemLayout, validate_state

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


def _is_int(x) -> bool:
    """JSON integers only: bools, floats and strings are refused."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """Finite JSON numbers only: bools, strings, NaN and infinities are refused."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _int_list(value, key: str) -> list[int]:
    if not isinstance(value, list) or not all(_is_int(d) for d in value):
        raise BadParameter(f"'{key}' must be a list of integers, got {value!r}")
    return [int(d) for d in value]


def state_to_dict(rho: DensityMatrix) -> dict:
    return {
        "version": QSTATE_VERSION,
        "dims": list(rho.dims),
        "matrix": _encode_matrix(rho.mat),
    }


def _state_chunks(rho: DensityMatrix) -> Iterator[str]:
    """``json.dumps(state_to_dict(rho))`` as the header, one chunk per matrix
    row and the closing brackets."""
    yield f'{{"version": {QSTATE_VERSION}, "dims": {json.dumps(list(rho.dims))}, "matrix": ['
    for i, row in enumerate(_pairs(rho.mat)):
        yield (", " if i else "") + json.dumps(row.tolist())
    yield "]}"


def state_to_json(rho: DensityMatrix) -> str:
    return "".join(_state_chunks(rho))


def write_state(rho: DensityMatrix, stream: TextIO) -> None:
    """Write ``rho`` to ``stream`` as a QSTATE document and a newline, one
    matrix row per write."""
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
    layout = SubsystemLayout(tuple(_int_list(obj["dims"], "dims")))
    return _decode_matrix(obj["matrix"]), layout


def state_from_dict(obj: dict) -> DensityMatrix:
    return validate_state(*_unpack_state(obj))


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
    for key in ("inDim", "outDim"):
        if not _is_int(obj[key]):
            raise BadParameter(f"'{key}' must be an integer, got {obj[key]!r}")
    if not isinstance(obj["kraus"], list):
        raise BadParameter(f"'kraus' must be a list of matrices, got {obj['kraus']!r}")
    ops = tuple(_decode_matrix(k) for k in obj["kraus"])
    return KrausChannel(int(obj["inDim"]), int(obj["outDim"]), ops)


def channel_from_json(text: Union[str, bytes]) -> KrausChannel:
    return channel_from_dict(_loads(text))
