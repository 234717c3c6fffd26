"""JSON file formats for states and observables.

A matrix is stored as ``{"dim": N, "re": [[...]], "im": [[...]]}`` with
row-major JSON numbers.  Readers validate what they load: state files go
through the full density-matrix validation.
"""

from __future__ import annotations

import json

import numpy as np

from .coherence import Observable, validate_observable
from .errors import ParseError
from .linalg import DensityMatrix, validate_density


def matrix_to_obj(mat) -> dict:
    """``{"re": [[...]], "im": [[...]]}`` of a matrix, row-major."""
    m = np.asarray(mat, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _obj_matrix(obj) -> np.ndarray:
    """The complex matrix of ``obj``, whose entries must be JSON numbers and whose declared
    ``dim``, if any, a JSON integer equal to each side."""
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"matrix object needs rectangular 're' and 'im': {exc}") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise ParseError(f"'re' shape {re.shape} and 'im' shape {im.shape} disagree")
    # numpy reads "1", true and null as numbers; a bool is no JSON number here
    if not {type(x) for part in (obj["re"], obj["im"]) for row in part for x in row} <= {int, float}:
        raise ParseError("matrix entries must be JSON numbers")
    if "dim" in obj and (type(obj["dim"]) is not int or any(obj["dim"] != n for n in re.shape)):
        raise ParseError(f"declared dim {obj['dim']!r} does not match shape {re.shape}")
    return np.stack((re, im), axis=-1).view(complex)[..., 0]  # re + 1j * inf warns on 0 * inf


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def read_state(path: str) -> DensityMatrix:
    return validate_density(_obj_matrix(load_json(path)))


def read_observable(path: str) -> Observable:
    return validate_observable(_obj_matrix(load_json(path)))
