"""Instance and report files: one JSON document per instance.

Report floats serialize through Python's shortest round-trip repr, so a
stored value parses back to the same float. Parse errors carry the
JSON-path position of the offending field.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from .cone import FirstOrderCone
from .errors import InputError
from .nlp import KKTData
from .numeric_core import MatrixFamily, _as_symmetric
from .quadprob import QuadProblem

SCHEMA_VERSION = "1"


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise InputError(f"{where}: missing field '{key}'")
    return obj[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number")
    try:
        out = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise InputError(f"{where}: number is too large for a float") from exc
    if not np.isfinite(out):
        raise InputError(f"{where}: number is not finite")
    return out


def _vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise InputError(f"{where}: expected a nonempty array of numbers")
    if {type(v) for v in value} <= {int, float}:  # one conversion, equal to float(v) per entry
        try:
            out = np.array(value, dtype=float)
        except OverflowError:  # an integer beyond the float range: named below
            out = None
        if out is not None and np.isfinite(out).all():
            return out
    return np.array([_number(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _matrix(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise InputError(f"{where}: expected a nonempty array of rows")
    rows = [_vector(row, f"{where}[{i}]") for i, row in enumerate(value)]
    width = rows[0].size
    for i, row in enumerate(rows):
        if row.size != width:
            raise InputError(f"{where}[{i}]: row length {row.size} != {width}")
    return np.stack(rows)


def _square(value, where: str) -> np.ndarray:
    mat = _matrix(value, where)
    if mat.shape[0] != mat.shape[1]:
        raise InputError(f"{where}: matrix must be square, got {mat.shape}")
    return mat


def _symmetric(value, where: str) -> np.ndarray:
    mat = _square(value, where)
    try:
        return _as_symmetric(mat)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _array(document: dict, key: str, where: str) -> list:
    """An optional array field; absent, null and [] all read as empty."""
    value = document.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise InputError(f"{where}.{key}: expected an array")
    return value


def parse_instance(document) -> MatrixFamily | KKTData | QuadProblem:
    """Parse a decoded JSON document into the library object of its kind."""
    if not isinstance(document, dict):
        raise InputError("instance: expected a JSON object")
    version = _require(document, "schema_version", "instance")
    if version != SCHEMA_VERSION:
        raise InputError(f"instance.schema_version: expected '{SCHEMA_VERSION}', got {version!r}")
    kind = _require(document, "kind", "instance")
    if kind == "family":
        raw = _require(document, "matrices", "instance")
        if not isinstance(raw, list) or not raw:
            raise InputError("instance.matrices: expected a nonempty array")
        mats = [_square(mat, f"instance.matrices[{i}]") for i, mat in enumerate(raw)]
        try:
            return MatrixFamily(mats)
        except InputError as exc:
            raise InputError(f"instance.matrices: {exc}") from exc
    if kind == "quadprob":
        raw = _require(document, "matrices", "instance")
        if not isinstance(raw, list) or not raw:
            raise InputError("instance.matrices: expected a nonempty array")
        mats = [_symmetric(mat, f"instance.matrices[{i}]") for i, mat in enumerate(raw)]
        a = _number(document.get("ray_constant", -1.0), "instance.ray_constant")
        try:
            return QuadProblem(MatrixFamily(mats), a)
        except InputError as exc:
            raise InputError(f"instance: {exc}") from exc
    if kind == "kkt":
        return _parse_kkt(document)
    raise InputError(f"instance.kind: unknown kind {kind!r}")


def _parse_kkt(document: dict) -> KKTData:
    grad_f = _vector(_require(document, "grad_f", "instance"), "instance.grad_f")
    hess_f = _symmetric(_require(document, "hess_f", "instance"), "instance.hess_f")
    # gradient rows stack through `_matrix`, which names a row of the wrong length
    gh, gg = (_matrix(raw, f"instance.{key}") if (raw := _array(document, key, "instance"))
              else None for key in ("grad_h", "grad_g"))
    hh, hg = ([_symmetric(v, f"instance.{key}[{i}]")
               for i, v in enumerate(_array(document, key, "instance"))]
              for key in ("hess_h", "hess_g"))
    active = document.get("active")
    if active is not None:
        if not isinstance(active, list) or any(
            isinstance(i, bool) or not isinstance(i, int) for i in active
        ):
            raise InputError("instance.active: expected an array of integers")
    g_values = document.get("g_values")
    if g_values is not None:
        g_values = _vector(g_values, "instance.g_values") if g_values != [] else np.zeros(0)
    try:
        return KKTData(
            grad_f=grad_f,
            hess_f=hess_f,
            grad_h=gh,
            hess_h=hh,
            grad_g=gg,
            hess_g=hg,
            active=active,
            g_values=g_values,
        )
    except InputError as exc:
        raise InputError(f"instance: {exc}") from exc


def parse_cone(document, ambient_dim: int | None = None) -> FirstOrderCone:
    """Parse a cone document: subspace row-vectors plus an optional ray."""
    if not isinstance(document, dict):
        raise InputError("cone: expected a JSON object")
    version = _require(document, "schema_version", "cone")
    if version != SCHEMA_VERSION:
        raise InputError(f"cone.schema_version: expected '{SCHEMA_VERSION}', got {version!r}")
    if _require(document, "kind", "cone") != "cone":
        raise InputError("cone.kind: expected 'cone'")
    dim = _require(document, "ambient_dim", "cone")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InputError("cone.ambient_dim: expected a positive integer")
    if ambient_dim is not None and dim != ambient_dim:
        raise InputError(
            f"cone.ambient_dim: {dim} does not match the instance dimension {ambient_dim}"
        )
    generators = [_vector(v, f"cone.subspace[{i}]")
                  for i, v in enumerate(_array(document, "subspace", "cone"))]
    ray = document.get("ray")
    if ray is not None:
        ray = _vector(ray, "cone.ray")
    try:
        return FirstOrderCone(dim, generators, ray)
    except InputError as exc:
        raise InputError(f"cone: {exc}") from exc


def load_instance(path) -> MatrixFamily | KKTData | QuadProblem:
    return parse_instance(load_json(path))


def load_cone(path, ambient_dim: int | None = None) -> FirstOrderCone:
    return parse_cone(load_json(path), ambient_dim)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _listed(array: np.ndarray) -> list:
    """A numpy array as nested lists, each non-finite entry as None (JSON null)."""
    return np.where(np.isfinite(array), array, None).tolist()


def _finite(value):
    """The document with each non-finite float value of its dicts as None."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    return None if isinstance(value, float) and not np.isfinite(value) else value


def dump_json(document: dict) -> str:
    """The document as indented JSON, with numpy arrays written as lists and every
    non-finite number as null, so strict JSON parsers read every report."""
    return json.dumps(_finite(document), indent=2, sort_keys=False, default=_listed)


def input_digest(path) -> str:
    with open(path, "rb") as handle:
        return "sha256:" + hashlib.sha256(handle.read()).hexdigest()
