"""JSON/CSV serialization that round-trips doubles exactly.

A surface file's "f" is one string: standard padded base64 of the node
values as little-endian float64 in row-major order, so reading it back
reproduces the binary values bit for bit.  Decimal "f" lists, as older
files hold them, are still read.  Other floats are emitted with Python's
shortest round-trip repr.  JSON output is strict: a non-finite float (an
unfitted rate, a singular Gram matrix) is written as null.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import os
import sys

import numpy as np

from .conformal import ConformalKillingField
from .errors import DegenerateSurfaceError
from .radial_graph import StarShapedHypersurface
from .sphere_grid import GridSpec, ScalarField

__all__ = [
    "surface_to_dict",
    "surface_from_dict",
    "save_surface",
    "load_surface",
    "ckf_to_dict",
    "write_json_atomic",
    "write_csv_atomic",
]


def surface_to_dict(surface: StarShapedHypersurface, meta: dict | None = None) -> dict:
    return {
        "grid": {"n_theta": surface.spec.n_theta, "n_phi": surface.spec.n_phi},
        "f": base64.b64encode(surface.values.astype("<f8").tobytes()).decode("ascii"),
        "meta": meta or {},
    }


def surface_from_dict(data: dict) -> StarShapedHypersurface:
    """The surface of a dict from `surface_to_dict`: JSON integer grid sizes
    and an "f" that is base64 of n_theta*n_phi little-endian float64
    values, or (an older file) a flat list of that many JSON numbers, not
    booleans.  Either way every value must be finite."""
    sizes = {key: data["grid"][key] for key in ("n_theta", "n_phi")}
    if bad := [key for key, n in sizes.items() if type(n) is not int]:
        raise ValueError(f"grid {bad[0]} = {sizes[bad[0]]!r:.40} is not an integer")
    spec = GridSpec(**sizes)
    f, n = data["f"], spec.n_theta * spec.n_phi
    if type(f) is str:
        raw = base64.b64decode(f, validate=True)
        if len(raw) != 8 * n:
            raise ValueError(f"f holds {len(raw)} bytes, not the {8 * n} of {n} float64 values")
        values = np.frombuffer(raw, "<f8")
    elif type(f) is list and len(f) == n:
        values = None
        with contextlib.suppress(OverflowError):        # an int past 1.8e308
            values = np.array(f, dtype=float) if set(map(type, f)) <= {float, int} else None
        if values is None:
            i, v = next((i, v) for i, v in enumerate(f) if type(v) not in (float, int)
                        or not abs(v) <= sys.float_info.max)
            raise ValueError(f"f[{i}] = {v!r:.40} is not a finite number")
    else:
        raise ValueError(f"f must be a base64 string or a flat list of {n} numbers")
    if not np.isfinite(values).all():
        i = int(np.argmin(np.isfinite(values)))
        raise ValueError(f"f[{i}] = {float(values[i])!r} is not a finite number")
    return StarShapedHypersurface(ScalarField(spec, values.reshape(spec.shape)))


def ckf_to_dict(V: ConformalKillingField) -> dict:
    return {"v": V.v.tolist(), "S_lower": V.s_lower.tolist(),
            "mu": float(V.mu), "b": V.b.tolist()}


def _atomic_write_text(path: str, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json_atomic(path: str, payload: dict):
    """Write payload as strict JSON, indent 1, with each non-finite float
    written as null."""
    text = json.dumps(_finite_or_null(payload), indent=1, allow_nan=False)
    _atomic_write_text(path, text + "\n")


def write_csv_atomic(path: str, header: list[str], rows):
    lines = [",".join(header)] + [",".join(repr(float(x)) for x in row) for row in rows]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def save_surface(path: str, surface: StarShapedHypersurface, meta: dict | None = None):
    write_json_atomic(path, surface_to_dict(surface, meta))


def load_surface(path: str) -> StarShapedHypersurface:
    """Read a surface file.  Text that is not JSON or nests too deeply, a wrong
    structure, an "f" that is not valid base64 of the right length, or a
    non-finite "f" entry raise ValueError; an "f" out of range
    raises DegenerateSurfaceError.  Each names the file."""
    try:
        with open(path) as fh:
            return surface_from_dict(json.load(fh))
    except DegenerateSurfaceError as exc:
        raise DegenerateSurfaceError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, KeyError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed surface file ({exc})") from exc
