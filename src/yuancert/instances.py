"""Instance and report files: one JSON document per instance.

Report floats serialize through Python's shortest round-trip repr, so a
stored value parses back to the same float. Parse errors carry the
JSON-path position of the offending field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .cone import FirstOrderCone
from .errors import InputError
from .nlp import KKTData
from .numeric_core import MatrixFamily, SymMatrix, norm_max
from .quadprob import QuadProblem

SCHEMA_VERSION = "1"


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise InputError(f"{where}: missing field '{key}'")
    return obj[key]


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{where}: expected a number")
    out = float(value)
    if not np.isfinite(out):
        raise InputError(f"{where}: number is not finite")
    return out


def _vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise InputError(f"{where}: expected a nonempty array of numbers")
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


def _symmetric(value, where: str) -> SymMatrix:
    mat = _square(value, where)
    skew = norm_max(mat - mat.T)
    if skew > 1e-12 * (1.0 + norm_max(mat)):
        raise InputError(f"{where}: matrix asymmetry {skew:.3e} exceeds 1e-12")
    return SymMatrix(0.5 * (mat + mat.T))


@dataclass(frozen=True, eq=False)
class FamilyInstance:
    matrices: MatrixFamily


@dataclass(frozen=True, eq=False)
class KktInstance:
    data: KKTData


@dataclass(frozen=True, eq=False)
class QuadInstance:
    problem: QuadProblem


Instance = FamilyInstance | KktInstance | QuadInstance


def parse_instance(document) -> Instance:
    """Parse a decoded JSON document into a typed instance."""
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
            return FamilyInstance(MatrixFamily(mats))
        except InputError as exc:
            raise InputError(f"instance.matrices: {exc}") from exc
    if kind == "quadprob":
        raw = _require(document, "matrices", "instance")
        if not isinstance(raw, list) or not raw:
            raise InputError("instance.matrices: expected a nonempty array")
        mats = [_symmetric(mat, f"instance.matrices[{i}]") for i, mat in enumerate(raw)]
        a = _number(document.get("ray_constant", -1.0), "instance.ray_constant")
        try:
            return QuadInstance(QuadProblem(MatrixFamily(mats), a))
        except InputError as exc:
            raise InputError(f"instance: {exc}") from exc
    if kind == "kkt":
        return KktInstance(_parse_kkt(document))
    raise InputError(f"instance.kind: unknown kind {kind!r}")


def _parse_kkt(document: dict) -> KKTData:
    grad_f = _vector(_require(document, "grad_f", "instance"), "instance.grad_f")
    n = grad_f.size
    hess_f = _symmetric(_require(document, "hess_f", "instance"), "instance.hess_f")
    grad_h = document.get("grad_h") or []
    grad_g = document.get("grad_g") or []
    hess_h = document.get("hess_h") or []
    hess_g = document.get("hess_g") or []
    gh = [_vector(v, f"instance.grad_h[{i}]") for i, v in enumerate(grad_h)]
    gg = [_vector(v, f"instance.grad_g[{i}]") for i, v in enumerate(grad_g)]
    hh = [_symmetric(v, f"instance.hess_h[{i}]") for i, v in enumerate(hess_h)]
    hg = [_symmetric(v, f"instance.hess_g[{i}]") for i, v in enumerate(hess_g)]
    active = document.get("active")
    if active is not None:
        if not isinstance(active, list) or any(
            isinstance(i, bool) or not isinstance(i, int) for i in active
        ):
            raise InputError("instance.active: expected an array of integers")
    g_values = document.get("g_values")
    if g_values is not None:
        g_values = _vector(g_values, "instance.g_values") if g_values else np.zeros(0)
    try:
        return KKTData(
            grad_f=grad_f,
            hess_f=hess_f,
            grad_h=np.stack(gh) if gh else np.zeros((0, n)),
            hess_h=hh,
            grad_g=np.stack(gg) if gg else np.zeros((0, n)),
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
    raw = document.get("subspace") or []
    generators = [_vector(v, f"cone.subspace[{i}]") for i, v in enumerate(raw)]
    ray = document.get("ray")
    if ray is not None:
        ray = _vector(ray, "cone.ray")
    try:
        return FirstOrderCone(dim, generators, ray)
    except InputError as exc:
        raise InputError(f"cone: {exc}") from exc


def load_instance(path) -> Instance:
    return parse_instance(load_json(path))


def load_cone(path, ambient_dim: int | None = None) -> FirstOrderCone:
    return parse_cone(load_json(path), ambient_dim)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def dump_json(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=False)


def input_digest(path) -> str:
    with open(path, "rb") as handle:
        return "sha256:" + hashlib.sha256(handle.read()).hexdigest()
