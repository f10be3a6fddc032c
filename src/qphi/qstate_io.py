"""QSTATE JSON v1 and the channel interchange format.

A state document is ``{"version": 1, "dims": [...], "matrix": [[[re, im], ...], ...]}``
with the matrix in row-major order; floats round-trip exactly through the
shortest-repr encoding the json module emits. Reading always revalidates.
"""
from __future__ import annotations

import json
import numbers
from typing import TextIO, Union

import numpy as np

from .channels import KrausChannel
from .errors import BadParameter, DimensionMismatch
from .states import DensityMatrix, SubsystemLayout, validate_state

QSTATE_VERSION = 1


def _encode_matrix(mat: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(mat)]


def _decode_matrix(rows) -> np.ndarray:
    try:
        arr = np.asarray(
            [[complex(cell[0], cell[1]) for cell in row] for row in rows], dtype=complex
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise BadParameter(f"malformed matrix entries: {exc}") from exc
    if arr.ndim != 2:
        raise DimensionMismatch("matrix must be two-dimensional")
    return arr


def state_to_dict(rho: DensityMatrix) -> dict:
    return {
        "version": QSTATE_VERSION,
        "dims": list(rho.dims),
        "matrix": _encode_matrix(rho.mat),
    }


def state_to_json(rho: DensityMatrix, indent=None) -> str:
    return json.dumps(state_to_dict(rho), indent=indent)


def state_from_dict(obj: dict) -> DensityMatrix:
    if not isinstance(obj, dict):
        raise BadParameter("state document must be a JSON object")
    version = obj.get("version")
    if version != QSTATE_VERSION:
        raise BadParameter(f"unsupported state document version: {version!r}")
    if "dims" not in obj or "matrix" not in obj:
        raise BadParameter("state document needs 'dims' and 'matrix'")
    dims = obj["dims"]
    if not isinstance(dims, list) or any(
        isinstance(d, bool) or not isinstance(d, numbers.Integral) for d in dims
    ):
        raise BadParameter(f"'dims' must be a list of integers, got {dims!r}")
    layout = SubsystemLayout(tuple(int(d) for d in dims))
    mat = _decode_matrix(obj["matrix"])
    return validate_state(mat, layout)


def state_from_json(text: Union[str, bytes]) -> DensityMatrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParameter(f"invalid JSON: {exc}") from exc
    return state_from_dict(obj)


def read_state(stream: TextIO) -> DensityMatrix:
    return state_from_json(stream.read())


def channel_to_dict(ch: KrausChannel) -> dict:
    return {
        "inDim": ch.in_dim,
        "outDim": ch.out_dim,
        "kraus": [_encode_matrix(k) for k in ch.kraus],
    }


def channel_to_json(ch: KrausChannel, indent=None) -> str:
    return json.dumps(channel_to_dict(ch), indent=indent)


def channel_from_dict(obj: dict) -> KrausChannel:
    if not isinstance(obj, dict):
        raise BadParameter("channel document must be a JSON object")
    for key in ("inDim", "outDim", "kraus"):
        if key not in obj:
            raise BadParameter(f"channel document needs '{key}'")
    ops = tuple(_decode_matrix(k) for k in obj["kraus"])
    return KrausChannel(int(obj["inDim"]), int(obj["outDim"]), ops)


def channel_from_json(text: Union[str, bytes]) -> KrausChannel:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadParameter(f"invalid JSON: {exc}") from exc
    return channel_from_dict(obj)
