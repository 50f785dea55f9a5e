"""JSON/CSV serialization; decimal text that round-trips doubles exactly.

Floats are emitted with Python's shortest round-trip repr (at most 17
significant digits), so reading a file back reproduces the original
binary values bit for bit.  JSON output is strict: a non-finite float
(an unfitted rate, a singular Gram matrix) is written as null.
"""

from __future__ import annotations

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
    "ckf_from_dict",
    "write_json_atomic",
    "write_csv_atomic",
]


def surface_to_dict(surface: StarShapedHypersurface, meta: dict | None = None) -> dict:
    return {
        "grid": {"n_theta": surface.spec.n_theta, "n_phi": surface.spec.n_phi},
        "f": surface.values.reshape(-1).tolist(),
        "meta": meta or {},
    }


def surface_from_dict(data: dict) -> StarShapedHypersurface:
    """The surface of a dict from `surface_to_dict`: JSON integer grid sizes
    and a flat "f" list of n_theta*n_phi finite JSON numbers (not booleans)."""
    sizes = {key: data["grid"][key] for key in ("n_theta", "n_phi")}
    if bad := [key for key, n in sizes.items() if type(n) is not int]:
        raise ValueError(f"grid {bad[0]} = {sizes[bad[0]]!r:.40} is not an integer")
    spec = GridSpec(**sizes)
    f, n = data["f"], spec.n_theta * spec.n_phi
    if type(f) is not list or len(f) != n:
        raise ValueError(f"f must be a flat list of {n} numbers")
    values = None
    with contextlib.suppress(OverflowError):            # an int past 1.8e308
        values = np.array(f, dtype=float) if set(map(type, f)) <= {float, int} else None
    if values is None or not np.isfinite(values).all():
        i, v = next((i, v) for i, v in enumerate(f) if type(v) not in (float, int)
                    or not abs(v) <= sys.float_info.max)
        raise ValueError(f"f[{i}] = {v!r:.40} is not a finite number")
    return StarShapedHypersurface(ScalarField(spec, values.reshape(spec.shape)))


def ckf_to_dict(V: ConformalKillingField) -> dict:
    return {"v": V.v.tolist(), "S_lower": V.s_lower.tolist(),
            "mu": float(V.mu), "b": V.b.tolist()}


def ckf_from_dict(data: dict) -> ConformalKillingField:
    return ConformalKillingField(data["v"], data["S_lower"], data["mu"], data["b"])


def _atomic_write_text(path: str, text: str):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _finite_or_null(obj):
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        # plain floats, the bulk of a surface's "f" list, skip the call
        return [(v if math.isfinite(v) else None) if type(v) is float
                else _finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


# stands in for a surface's "f" list while json.dumps formats the rest
_F_MARKER = "\x00f"


def _float_lines(values) -> str | None:
    """The indent-1 JSON text of a top-level list of finite floats, one
    repr per line as json.dumps writes it; None for any other value."""
    if (type(values) is not list or set(map(type, values)) != {float}
            or not all(map(math.isfinite, values))):
        return None
    return "[\n  " + ",\n  ".join(map(float.__repr__, values)) + "\n ]"


def write_json_atomic(path: str, payload: dict):
    """Write payload as strict JSON, indent 1.  A top-level "f" list of
    finite floats (a surface's node values) is formatted by hand and put
    in place of a marker: json's indenting encoder is pure Python, and
    that list was most of its time.  The bytes are json.dumps's."""
    f = _float_lines(payload.get("f"))
    if f is not None:
        payload = {**payload, "f": _F_MARKER}
    text = json.dumps(_finite_or_null(payload), indent=1, allow_nan=False)
    if f is not None:
        text = text.replace(json.dumps(_F_MARKER), f, 1)
    _atomic_write_text(path, text + "\n")


def write_csv_atomic(path: str, header: list[str], rows):
    lines = [",".join(header)] + [",".join(repr(float(x)) for x in row) for row in rows]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def save_surface(path: str, surface: StarShapedHypersurface, meta: dict | None = None):
    write_json_atomic(path, surface_to_dict(surface, meta))


def load_surface(path: str) -> StarShapedHypersurface:
    """Read a surface file.  Text that is not JSON or nests too deeply, a wrong
    structure or a non-finite "f" entry raise ValueError; an "f" out of range
    raises DegenerateSurfaceError.  Each names the file."""
    try:
        with open(path) as fh:
            return surface_from_dict(json.load(fh))
    except DegenerateSurfaceError as exc:
        raise DegenerateSurfaceError(f"{path}: {exc}") from exc
    except (TypeError, ValueError, KeyError, OverflowError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed surface file ({exc})") from exc
