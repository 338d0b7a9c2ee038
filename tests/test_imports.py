"""Start-up imports: scipy loads only on the first KD-tree query, and
every library module uses each name it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import quasilat

# Runs in a fresh interpreter, so modules pytest or other tests imported
# cannot hide a module-level import.
SCRIPT = """
import sys
import numpy as np
import quasilat as ql
import quasilat.cli
from quasilat import diffraction, spectral

S = ql.generate_model_set(ql.silver_scheme(), 30.0)
ql.covering_radius(S, h=0.01)
spectral.palm_profile(S, np.arange(-4, 5).reshape(-1, 1) / 4.0, 1.0, 20.0)
diffraction.bragg_scan(S, 0.5, 1.0, 0.05, 1.0, 20.0)
ql.min_gap(S)
ql.check_meyerian(ql.model_set_1d(1, 12.0), k_max=2)
assert "scipy.spatial" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))[:5]

rng = np.random.default_rng(7)
pts = rng.uniform(-5.0, 5.0, (60, 2))
P = ql.make_patch(group=ql.abelian_group(2, 0), z=pts, q=np.zeros((60, 0)),
                  window_z=5.0, window_q=0.0, core_z=5.0, core_q=0.0)
gap = ql.min_gap(P)
assert "scipy.spatial" in sys.modules
print(gap.hex())
"""


def test_one_dimensional_paths_never_load_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(quasilat.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # The value min_gap gave when scipy was imported with the package; it is
    # also the brute-force minimum over all pairs.
    assert out.stdout.strip() == "0x1.d59541d2c3a72p-3"


def _names_read(tree):
    """Every name the module reads, those of quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= _names_read(ast.parse(ann.value, mode="eval"))
    return names


def test_every_imported_name_is_used():
    # __init__ imports to re-export, so it is left out.
    unused = []
    for path in sorted(Path(quasilat.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = _names_read(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.name}: {name}" for name in bound if name not in used]
    assert unused == []
