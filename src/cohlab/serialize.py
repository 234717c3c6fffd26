"""JSON file formats for states, observables and channels.

A matrix is stored as ``{"dim": N, "re": [[...]], "im": [[...]]}`` with
row-major decimal floats; a channel as ``{"dim_in": N, "dim_out": M,
"ops": [{"re": ..., "im": ...}, ...]}``.  Readers validate what they load:
state files go through the full density-matrix validation.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import KrausChannel, validate_channel
from .coherence import Observable, validate_observable
from .errors import ParseError
from .linalg import DensityMatrix, validate_density


def matrix_to_obj(mat) -> dict:
    """``{"re": [[...]], "im": [[...]]}`` of a matrix, row-major."""
    m = np.asarray(mat, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _require_dims(obj: dict, keys, shape):
    """Raise ``ParseError`` unless each of ``keys`` that ``obj`` declares is a JSON integer equal
    to its entry of ``shape``."""
    for key, n in zip(keys, shape):
        if key in obj and (type(obj[key]) is not int or obj[key] != n):  # bool is not int here
            raise ParseError(f"declared {key} {obj[key]!r} does not match shape {shape}")


def _obj_matrix(obj, dims=("dim", "dim")) -> np.ndarray:
    """The complex matrix of ``obj``, whose declared ``dims`` keys must match its shape."""
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"matrix object needs rectangular 're' and 'im': {exc}") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise ParseError(f"'re' shape {re.shape} and 'im' shape {im.shape} disagree")
    _require_dims(obj, dims, re.shape)
    return np.stack((re, im), axis=-1).view(complex)[..., 0]  # re + 1j * inf warns on 0 * inf


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def state_to_obj(rho: DensityMatrix) -> dict:
    return {"dim": rho.dim, **matrix_to_obj(rho.mat)}


def write_state(path: str, rho: DensityMatrix):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_obj(rho), fh)


def read_state(path: str) -> DensityMatrix:
    return validate_density(_obj_matrix(load_json(path)))


def read_observable(path: str) -> Observable:
    return validate_observable(_obj_matrix(load_json(path)))


def channel_to_obj(ch: KrausChannel) -> dict:
    return {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "ops": [matrix_to_obj(m) for m in ch.operators],
    }


def write_channel(path: str, ch: KrausChannel):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_obj(ch), fh)


def read_channel(path: str) -> KrausChannel:
    obj = load_json(path)
    try:
        ops = [_obj_matrix(o, dims=()) for o in obj["ops"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"channel object needs an 'ops' list: {exc}") from exc
    for op in ops:  # each op is (dim_out, dim_in)
        _require_dims(obj, ("dim_out", "dim_in"), op.shape)
    return validate_channel(ops)
