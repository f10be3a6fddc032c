"""QSTATE JSON v1 and the channel interchange format.

A state document is ``{"version": 1, "dims": [...], "matrix": [[[re, im], ...], ...]}``
with the matrix in row-major order; floats round-trip exactly through the
shortest-repr encoding the json module emits. Reading always revalidates.
"""
from __future__ import annotations

import json
import math
import numbers
from itertools import chain
from typing import TextIO, Union

import numpy as np

from .channels import KrausChannel
from .errors import BadParameter, DimensionMismatch
from .states import DensityMatrix, SubsystemLayout, validate_state

QSTATE_VERSION = 1


def _encode_matrix(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat)]


def _decode_matrix(rows) -> np.ndarray:
    """A matrix of [re, im] cells; a cell of any other length, or holding a
    bool or a non-real, is a :class:`BadParameter`."""
    try:
        arr = np.asarray([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
        # one pass over the types that occur, not one check per number
        kinds = set(map(type, chain.from_iterable(chain.from_iterable(rows))))
    except (TypeError, ValueError, OverflowError) as exc:
        raise BadParameter(f"malformed matrix entries: {exc}") from exc
    if any(k is bool or not issubclass(k, numbers.Real) for k in kinds):
        raise BadParameter("matrix entries must be pairs of real numbers")
    if arr.ndim != 2:
        raise DimensionMismatch("matrix must be two-dimensional")
    return arr


def _loads(text: Union[str, bytes]):
    """Parse outside JSON; malformed text is a :class:`BadParameter`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
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


def state_to_json(rho: DensityMatrix) -> str:
    return json.dumps(state_to_dict(rho))


def state_from_dict(obj: dict) -> DensityMatrix:
    if not isinstance(obj, dict):
        raise BadParameter("state document must be a JSON object")
    version = obj.get("version")
    if version != QSTATE_VERSION:
        raise BadParameter(f"unsupported state document version: {version!r}")
    if "dims" not in obj or "matrix" not in obj:
        raise BadParameter("state document needs 'dims' and 'matrix'")
    layout = SubsystemLayout(tuple(_int_list(obj["dims"], "dims")))
    mat = _decode_matrix(obj["matrix"])
    return validate_state(mat, layout)


def state_from_json(text: Union[str, bytes]) -> DensityMatrix:
    return state_from_dict(_loads(text))


def read_state(stream: TextIO) -> DensityMatrix:
    return state_from_json(stream.read())


def channel_to_dict(ch: KrausChannel) -> dict:
    return {
        "inDim": ch.in_dim,
        "outDim": ch.out_dim,
        "kraus": [_encode_matrix(k) for k in ch.kraus],
    }


def channel_to_json(ch: KrausChannel) -> str:
    return json.dumps(channel_to_dict(ch))


def channel_from_dict(obj: dict) -> KrausChannel:
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
