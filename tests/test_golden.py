"""Golden bytes: every CLI output file and stdout against frozen sha256 digests.

The digests were taken from a known-good build (numpy 2.4, x86-64).  Any
change to the encoders, the number formatting or the numerics behind a
file shows up here as a changed digest, not only as a broken round trip.
The patch files hold exactly rounded coordinates; the spectral CSVs also
depend on numpy's exp, so a different numpy build may need the digests
taken again from a known-good commit.
"""

import hashlib
import json

from quasilat.cli import main

# A non-integral basis gives a float-key patch; its entries are dyadic, so
# every coordinate is formed without rounding.
MATRIX_SCHEME = {"kind": "matrix", "basis": [[1, 0.5], [0.25, -1]], "physical_dim": 1,
                 "window": [[-0.6, 0.6]]}

# (name, argv, output file); paths are relative to the working directory
PIPELINE = [
    ("silver", ["generate", "--scheme", "silver", "--R", "1", "--T", "20", "-o", "silver.json"], "silver.json"),
    ("lattice", ["generate", "--scheme", "lattice", "--dim", "2", "--T", "3", "-o", "z2.json"], "z2.json"),
    ("heisenberg", ["generate", "--scheme", "heisenberg", "--T", "2", "--T-q", "1", "-o", "h3.json"], "h3.json"),
    ("matrix", ["generate", "--scheme-file", "scheme.json", "--T", "6", "-o", "matrix.json"], "matrix.json"),
    ("project", ["project", "--in", "h3.json", "-o", "proj.json"], "proj.json"),
    ("check", ["check", "--in", "silver.json", "--k-max", "2", "-o", "check.json"], "check.json"),
    ("density", ["density", "--in", "silver.json", "--theta", "0.3", "--T", "20", "-o", "density.json"],
     "density.json"),
    ("pisot", ["pisot", "--poly", "1,-2,-1", "--hint", "2.414", "-o", "pisot.json"], "pisot.json"),
    ("fibers", ["fibers", "--in", "h3.json", "--R", "1", "-o", "fibers.csv"], "fibers.csv"),
    ("spectrum", ["spectrum", "--in", "silver.json", "--K", "1", "--h", "0.05", "--T", "20",
                  "-o", "spectrum.csv"], "spectrum.csv"),
    ("bragg", ["bragg", "--in", "silver.json", "--eps", "0.5", "--K", "2", "--h", "0.05", "--T", "20",
               "-o", "bragg.csv"], "bragg.csv"),
    ("bragg_fibered", ["bragg", "--in", "h3.json", "--eps", "0.5", "--K", "1", "--h", "0.25", "--S", "1",
                       "--T", "2", "-o", "bragg_h3.csv"], "bragg_h3.csv"),
]

# name -> (sha256 of the file, stdout)
GOLDEN = {
    'silver': ('7d18da079bbd7cb2bd845425c8a1c2769c4098f79706a1f247e6df561c7d5f41',
        'wrote 31 points to silver.json\n'),
    'lattice': ('9e88daa496eb6e40a20c7574c186f5d019598251683bbef82e8dfd42086d454e',
        'wrote 49 points to z2.json\n'),
    'heisenberg': ('b2bbfd6eaab89de3721780c201ed0f66c3564152da0b9d590777168e6ab77ffc',
        'wrote 45 points to h3.json\n'),
    'matrix': ('57f8ccc8192f88489af8b2334ac6cb195f93c97707019fe9a9faa543e99e2ed5',
        'wrote 13 points to matrix.json\n'),
    'project': ('ce9f75e8a307dd664d1764d0d734f7bcaedd74f26bd19391dc19dd74fc15a4e7',
        ''),
    'check': ('e451aa6dbd5cefc1a2ebc97404647a822254ede3258e5aec81ff5eec2185bbdd',
        'k=1 min_gap=0.414213562373\nk=2 min_gap=0.171572875254\npassed=true threshold=0.1\n'),
    'density': ('bbb7d41123c96898fb81090388891bbd2bdcb90f41a453f70da5b2b09ca22c05',
        'D_re=-0.0398718474751 D_im=0\nabs2=0.00158976422107 T=20 cauchy_tail=0.107471212065 converged=false\n'),
    'pisot': ('04687ae5a7808e5612d72d2cce81364fdd79d11d536cfae2e1b31740d816e5f8',
        '{"polynomial": "X^2 -2X -1", "roots": [{"re": -0.414213562373, "im": 0.0, "modulus": 0.414213562373}, {"re": 2.41421356237, "im": 0.0, "modulus": 2.41421356237}], "kind": "Pisot", "warnings": ["hint matched the designated root only to 2.14e-04"]}\n'),
    'fibers': ('c73653180d0ff506d228253a051070b926e04de8acf642c0338740c7bcf3ca5e',
        'fibers=9 essential_fraction=1\nuniformly_large=true\n'),
    'spectrum': ('b530212769ef5fbab6ff71f2cfc18323d87722bc006ebfc61c9802b84288616e',
        'wrote 41 rows to spectrum.csv\n'),
    'bragg': ('3a71378e4ee2def35c4668096b976ec3c18776b2908666dd8d703480a7d2087b',
        'c_1=0.600625 peaks=3 max_gap=0.85\n'),
    'bragg_fibered': ('22ed4169db34f24334d0e2ffbbafb46b30adaba811c8cf8a2e31e154037ddb8f',
        'c_1=2.48679598581 peaks=3 max_gap=1\n'),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pipeline(tmp_path, monkeypatch, capsys):
    """{name: (output file bytes, stdout)} for the whole PIPELINE."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scheme.json").write_text(json.dumps(MATRIX_SCHEME))
    got = {}
    for name, argv, out in PIPELINE:
        assert main(argv) == 0, name
        captured = capsys.readouterr()
        assert captured.err == "", name
        got[name] = ((tmp_path / out).read_bytes(), captured.out)
    return got


def test_cli_outputs_match_golden_bytes(tmp_path, monkeypatch, capsys):
    got = run_pipeline(tmp_path, monkeypatch, capsys)
    for name, (data, out) in got.items():
        assert (_sha(data), out) == GOLDEN[name], name
