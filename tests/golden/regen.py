"""The golden-output corpus: every output of the six `icflab` commands on
five surfaces, with each command's exit code, stdout and stderr.

    python tests/golden/regen.py

reruns the corpus in a temporary directory, prints how it differs from
the committed one (files byte-identical, the largest move of each float
key, every difference beyond the bounds below), then replaces each
committed file whose content changed (a manifest whose only change is
its wall clock is kept).  It is the only way to regenerate
the corpus; `tests/test_golden.py` reruns it and calls `compare`.

Comparison rules (`compare`):
- the same files, and in `runs.json` the same exit codes, stdout and
  stderr for every command;
- JSON keys in the same order (a key change is one difference, and the
  keys both files hold are still compared), and strings, integers,
  booleans and nulls equal; CSV headers equal;
- a surface file's `f` equal bit for bit as decoded float64;
- every other float within `REL_BOUND` of the larger magnitude, or
  within the absolute floor of `ROUNDOFF_FLOORS` for the keys whose
  value is pure round-off;
- manifests compared without `wall_clock_s` and `tool_version`.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent

# Bounds fixed when the corpus was created.  Forcing other OpenBLAS
# kernels (Haswell, Zen, Sandybridge, SkylakeX), numpy loops without
# AVX-512, or both, left every `f`, exit code and null as it is and moved
# no float key by more than 1.4e-12 relative (the flow's fitted `beta`);
# the floors cover the keys whose value is pure round-off on some corpus
# surface, two of them by design: the Hsiung-Minkowski residual and the
# difference of E computed on a surface and, independently, on its
# inverse, and, mostly on the round sphere, the soliton fit's zero
# coefficients and residuals and the flow's tracefree and shape deviations.
REL_BOUND = 1e-10
ROUNDOFF_FLOORS = {"hm_max_relative_residual": 1e-15,
                   "e_inversion_sup_diff": 1e-14,
                   "fitted": 1e-12, "residual_sup": 1e-13, "residual_l2": 1e-13,
                   "relative_residual": 1e-13,
                   "tracefree_sq_sup": 1e-12, "shape_dev": 1e-12}
MANIFEST_SKIP = ("wall_clock_s", "tool_version")

README_HARMONIC = ["1.0", "2,2,0.1", "3,1,0.05"]
# (case, the arguments of `icflab gen`); every case then runs the five
# commands of COMMANDS on its surface
CASES = [
    ("sphere16", ["sphere", "1.0", "--grid", "16x32"]),
    ("spheroid16", ["spheroid", "1.0", "0.6", "--grid", "16x32"]),
    ("harmonic16", ["harmonic", *README_HARMONIC, "--grid", "16x32"]),
    ("harmonic32", ["harmonic", *README_HARMONIC, "--grid", "32x64"]),
    # m_max = 15 < l_max = 24
    ("harmonic25", ["harmonic", "1.0", "2,1,0.02", "3,-2,0.01", "--grid", "25x32"]),
]
COMMANDS = [
    ["diag"],
    ["flow", "--t-end", "0.1"],
    ["invariance", "--seed", "0", "--trials", "20"],
    ["soliton"],
    ["inequality"],
]


def run_corpus(root: Path) -> None:
    """Run every command of every case in `root` (relative paths, so the
    outputs do not depend on where `root` is) and write `runs.json`."""
    from icflab.cli import main

    runs = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for case, gen in CASES:
            surface = f"{case}/surface.json"
            argvs = [["gen", *gen, "--out", case]] + [
                [cmd[0], surface, *cmd[1:], "--out", case] for cmd in COMMANDS]
            for argv in argvs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                runs[f"{case}/{argv[0]}"] = {"argv": argv, "exit": code,
                                             "stdout": out.getvalue(),
                                             "stderr": err.getvalue()}
    finally:
        os.chdir(cwd)
    with open(root / "runs.json", "w") as fh:
        json.dump(runs, fh, indent=1)
        fh.write("\n")


def corpus_files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*")
                  if p.is_file() and p.suffix in (".json", ".csv"))


def _floor(path: tuple) -> float:
    return max((ROUNDOFF_FLOORS.get(part, 0.0) for part in path), default=0.0)


def _compare_values(a, b, path: tuple, problems: list, moves: dict):
    where = "/".join(map(str, path))
    if isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            problems.append(f"{where}: keys {list(a)} != {list(b)}")
        for key in (k for k in a if k in b):    # the shared keys, in a's order
            _compare_values(a[key], b[key], path + (key,), problems, moves)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            problems.append(f"{where}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_values(x, y, path + (i,), problems, moves)
    elif type(a) is float and type(b) is float:
        move = abs(a - b)
        key = "/".join([Path(path[0]).name] + [str(p) for p in path[1:]
                                               if not isinstance(p, int)])
        moves[key] = max(moves.get(key, 0.0), move)
        if not move <= max(REL_BOUND * max(abs(a), abs(b)), _floor(path)):
            problems.append(f"{where}: {a!r} != {b!r}")
    elif type(a) is not type(b) or a != b:
        shown = (a, b) if not isinstance(a, bytes) else ("bits", "other bits")
        problems.append(f"{where}: {shown[0]!r} != {shown[1]!r}")


def _load(path: Path):
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        return {"header": header,
                "rows": [dict(zip(header, map(float, row))) for row in rows]}
    with open(path) as fh:
        doc = json.load(fh)
    if path.name.endswith(".manifest.json"):
        doc = {k: v for k, v in doc.items() if k not in MANIFEST_SKIP}
    elif path.name == "surface.json":
        doc["f"] = base64.b64decode(doc["f"])      # bytes: compared bit for bit
    return doc


def compare(golden: Path, fresh: Path):
    """Differences of `fresh` from `golden` beyond the rules above, the
    number of byte-identical files, the number of files, and the largest
    absolute move of every float key (by file and key path)."""
    problems, moves, identical = [], {}, 0
    names_g, names_f = corpus_files(golden), corpus_files(fresh)
    if names_g != names_f:
        problems.append(f"files differ: {sorted(set(names_g) ^ set(names_f))}")
    for name in sorted(set(names_g) & set(names_f)):
        a_path, b_path = golden / name, fresh / name
        if a_path.read_bytes() == b_path.read_bytes():
            identical += 1
        _compare_values(_load(a_path), _load(b_path), (name,), problems, moves)
    return problems, identical, len(names_g), moves


def regenerate() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        fresh = Path(tmp)
        run_corpus(fresh)
        problems, identical, total, moves = compare(GOLDEN, fresh)
        print(f"{identical} of {total} files byte-identical")
        for key, move in sorted(moves.items()):
            if move:
                print(f"largest move {move:.3g}: {key}")
        for line in problems:
            print(f"differs: {line}")
        kept = set(corpus_files(fresh))
        for name in corpus_files(GOLDEN):
            if name not in kept:
                (GOLDEN / name).unlink()
        for name in kept:
            # a manifest whose only change is its wall clock stays as it is
            if (GOLDEN / name).exists() and _load(GOLDEN / name) == _load(fresh / name):
                continue
            (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(fresh / name, GOLDEN / name)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parents[1] / "src"))
    sys.exit(regenerate())
