import json

import numpy as np
import pytest
import scipy.linalg as sla

from btspec import basis as bas
from btspec import cli
from btspec import matrices as mx
from btspec import montecarlo as mc
from btspec import spectrum as sp
from btspec.errors import ConfigError, NumericalError


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


SPHERE_SI = """
# proton water diffusion in a 10 um sphere at a weak gradient
geometry = sphere
N = 40
R_um = 10
gamma = 2.675e8
D0 = 2.3e-9
G_mT_per_m = 17
deltas_ms = 5, 20
walkers = 0
seed = 5
"""

SPHERE_SI_STRONG = SPHERE_SI.replace("G_mT_per_m = 17", "G_mT_per_m = 129")

DISK_SWEEP = """
geometry = disk
N = 60
g_max = 5
g_step = 0.05
"""


def test_parse_config_rejects_unknown_and_bad(tmp_path):
    p = write_cfg(tmp_path / "bad.cfg", "geometry = sphere\nfoo = 1\n")
    with pytest.raises(ConfigError):
        cli.parse_config(p)
    p = write_cfg(tmp_path / "bad2.cfg", "geometry = sphere\nN = three\n")
    with pytest.raises(ConfigError):
        cli.parse_config(p)
    p = write_cfg(tmp_path / "bad3.cfg", "geometry sphere\n")
    with pytest.raises(ConfigError):
        cli.parse_config(p)


def test_signal_mode_exclusivity(tmp_path):
    cfg = cli.RunConfig(geometry="sphere", N=20)
    with pytest.raises(ConfigError):
        cfg.signal_mode()
    cfg = cli.RunConfig(geometry="sphere", N=20, gbar=2.0, tbars=[0.1],
                        R_um=10, gamma=1.0, D0=1.0, G_mT_per_m=1.0,
                        deltas_ms=[1.0])
    with pytest.raises(ConfigError):
        cfg.signal_mode()
    cfg = cli.RunConfig(geometry="sphere", N=20, gbar=2.0, tbars=[0.1])
    assert cfg.signal_mode() == "dimensionless"


def test_signal_command_si_mode(tmp_path):
    cfgp = write_cfg(tmp_path / "s.cfg", SPHERE_SI)
    out = tmp_path / "out"
    rc = cli.main(["signal", "--config", cfgp, "--out", str(out)])
    assert rc == 0
    lines = (out / "signal.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["delta", "S_matrix_re", "S_matrix_im", "S_spectral_re",
                      "S_spectral_im", "S_onemode", "S_twomode_re",
                      "S_twomode_im", "S_mc_re", "S_mc_im", "mc_stderr"]
    assert len(lines) == 3
    row = dict(zip(header, lines[1].split(",")))
    # gbar ~ 2: real slowest eigenvalue -> one-mode active, two-mode absent
    assert row["S_onemode"] != ""
    assert row["S_twomode_re"] == "" and row["S_twomode_im"] == ""
    assert row["S_mc_re"] == ""  # walkers = 0
    assert abs(float(row["delta"]) - 5e-3) < 1e-12
    # matrix and spectral routes agree in the file too
    assert abs(float(row["S_matrix_re"]) - float(row["S_spectral_re"])) < 1e-6


def test_signal_command_two_mode_active(tmp_path):
    cfgp = write_cfg(tmp_path / "s.cfg", SPHERE_SI_STRONG)
    out = tmp_path / "out"
    assert cli.main(["signal", "--config", cfgp, "--out", str(out)]) == 0
    lines = (out / "signal.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["S_onemode"] == ""
    assert row["S_twomode_re"] != ""


def test_signal_requires_pulses(tmp_path):
    cfgp = write_cfg(tmp_path / "d.cfg", DISK_SWEEP)
    assert cli.main(["signal", "--config", cfgp, "--out", str(tmp_path)]) == 2
    # empty delta list in SI mode
    cfgp = write_cfg(tmp_path / "s.cfg", SPHERE_SI.replace("deltas_ms = 5, 20",
                                                           "deltas_ms ="))
    assert cli.main(["signal", "--config", cfgp, "--out", str(tmp_path)]) == 2


def test_sweep_command_disk(tmp_path):
    cfgp = write_cfg(tmp_path / "d.cfg", DISK_SWEEP)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfgp, "--out", str(out)]) == 0
    doc = json.loads((out / "branchpoints.json").read_text())
    points = doc["branch_points"]
    assert len(points) == 1
    assert abs(points[0]["g_star"] - 3.76) < 0.02
    assert points[0]["order"] == 2
    assert points[0]["branches"] == [1, 2]
    # branches.csv schema and determinism of grid
    lines = (out / "branches.csv").read_text().strip().split("\n")
    assert lines[0] == "g,branch_j,re_lambda,im_lambda,flags"
    n_branches = max(int(l.split(",")[1]) for l in lines[1:])
    assert n_branches == 17  # default output branch count

    # round-trip: the config echo reparses to the same structure
    assert doc["config"]["geometry"] == "disk"
    assert doc["config"]["N"] == 60
    reparsed = json.loads(json.dumps(doc))
    assert reparsed == doc


def test_sweep_requires_range(tmp_path):
    cfgp = write_cfg(tmp_path / "s.cfg", SPHERE_SI)
    assert cli.main(["sweep", "--config", cfgp, "--out", str(tmp_path)]) == 2


def test_sweep_determinism(tmp_path):
    cfgp = write_cfg(tmp_path / "d.cfg", DISK_SWEEP.replace("g_max = 5", "g_max = 2"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfgp, "--out", str(out1)]) == 0
    assert cli.main(["sweep", "--config", cfgp, "--out", str(out2)]) == 0
    assert (out1 / "branches.csv").read_bytes() == (out2 / "branches.csv").read_bytes()


def test_fieldmap_command(tmp_path):
    cfgp = write_cfg(tmp_path / "s.cfg", SPHERE_SI)
    out = tmp_path / "out"
    rc = cli.main(["fieldmap", "--config", cfgp, "--set", "resolution=31",
                   "--j", "1", "--g", "5.63", "--out", str(out)])
    assert rc == 0
    side = json.loads((out / "field_j1_g5p63.json").read_text())
    # just past the first branch point the eigenvalue is complex
    assert abs(side["lambda_im"]) > 0.1
    assert side["j"] == 1 and side["plane"] == "xz"
    lines = (out / "field_j1_g5p63.csv").read_text().strip().split("\n")
    assert lines[0] == "x,z,re_v,im_v,inside_flag"
    assert len(lines) == 1 + 31 * 31


def test_fieldmap_j_out_of_range(tmp_path):
    cfgp = write_cfg(tmp_path / "s.cfg", SPHERE_SI)
    rc = cli.main(["fieldmap", "--config", cfgp, "--j", "30", "--g", "1.0",
                   "--out", str(tmp_path)])
    assert rc == 3  # N = 40 < 5 * 30


def test_outdir_environment_variable(tmp_path, monkeypatch):
    cfgp = write_cfg(tmp_path / "d.cfg", DISK_SWEEP.replace("g_max = 5", "g_max = 1"))
    env_out = tmp_path / "from_env"
    monkeypatch.setenv(cli.ENV_OUTDIR, str(env_out))
    assert cli.main(["sweep", "--config", cfgp]) == 0
    assert (env_out / "branches.csv").exists()


def test_set_overrides(tmp_path):
    cfgp = write_cfg(tmp_path / "d.cfg", DISK_SWEEP)
    out = tmp_path / "o"
    rc = cli.main(["sweep", "--config", cfgp, "--set", "g_max=1",
                   "--set", "n_branches=4", "--out", str(out)])
    assert rc == 0
    lines = (out / "branches.csv").read_text().strip().split("\n")
    assert max(int(l.split(",")[1]) for l in lines[1:]) == 4


def test_cylinder_axial_sweep_finds_interval_point(tmp_path):
    cfgp = write_cfg(tmp_path / "c.cfg", """
geometry = cylinder
N = 200
R_um = 1
H_um = 1
eta_deg = 90
g_max = 19
g_step = 0.1
n_branches = 13
""")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfgp, "--out", str(out)]) == 0
    doc = json.loads((out / "branchpoints.json").read_text())
    firsts = sorted(p["g_star"] for p in doc["branch_points"])
    assert firsts, "no branch point found"
    assert abs(firsts[0] - 18.06) < 0.05


def test_cylinder_sweep_solves_factor_blocks_only(tmp_path, monkeypatch):
    """The tuned cylinder sweep of the benchmark (N=200) runs on its disk and
    interval factors: no LAPACK solve is wider than the disk factor's largest
    block, and it reports the ten order-2 points near 18.447, the interval
    merges (1, 6) and (2, 7) next to the disk merge included."""
    sizes = []
    for name in ("eigvals", "eig"):
        def counted(M, *args, _solve=getattr(sp.sla, name), **kwargs):
            sizes.append(len(M))
            return _solve(M, *args, **kwargs)
        monkeypatch.setattr(sp.sla, name, counted)
    cfgp = write_cfg(tmp_path / "c.cfg", """
geometry = cylinder
aspect = 1
N = 200
eta_deg = 78.23931266613657
g_max = 19.2
g_step = 0.1
n_branches = 13
""")
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", cfgp, "--out", str(out)]) == 0
    disk = mx.cylinder_factors(bas.build_cylinder_basis(200))[0]
    Bd = np.cos(np.deg2rad(78.23931266613657)) * disk.Bx
    largest = max(len(ix) for ix, *_ in sp._blocks(disk.lam, Bd))
    assert largest == 31
    assert sizes and max(sizes) <= largest
    doc = json.loads((out / "branchpoints.json").read_text())
    assert doc["metadata"]["factors"] == {"disk": 57, "interval": 5}
    points = doc["branch_points"]
    assert len(points) == 10
    g_rule = 18.06 / np.sin(np.arctan(18.06 / 3.76))
    for p in points:
        assert p["order"] == 2 and abs(p["g_star"] - g_rule) <= 0.005 * g_rule, p
    tuples = {tuple(p["branches"]) for p in points}
    assert {(1, 6), (2, 7)} <= tuples


def _fail_eigensolves(monkeypatch):
    def fail(*args, **kwargs):
        raise sla.LinAlgError("injected LAPACK failure")
    monkeypatch.setattr(sp.sla, "eigvals", fail)
    monkeypatch.setattr(sp.sla, "eig", fail)


@pytest.mark.parametrize("command, cfg_text, extra", [
    ("sweep", DISK_SWEEP, ["--set", "N=10", "--set", "n_branches=50"]),
    ("fieldmap", SPHERE_SI, ["--set", "resolution=0", "--j", "1", "--g", "5.63"]),
    ("signal", SPHERE_SI, ["--set", "walkers=-5"]),
    ("signal", DISK_SWEEP, ["--set", "gbar=2", "--set", "tbars=0.1",
                            "--set", "walkers=1000"]),
], ids=["n_branches_above_basis", "resolution_zero", "negative_walkers",
        "disk_has_no_walker"])
def test_bad_config_exits_2_before_any_solve(tmp_path, monkeypatch, command,
                                             cfg_text, extra):
    # a solve would end in exit 4, so exit 2 shows the check came first
    _fail_eigensolves(monkeypatch)
    cfgp = write_cfg(tmp_path / "c.cfg", cfg_text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfgp, "--out", str(out)] + extra) == 2
    assert not out.exists()


def test_reduced_sphere_signal_walks_in_the_sphere(tmp_path):
    # the m = 0 sector holds the constant mode, so the sphere walker along z
    # measures its signal
    out = tmp_path / "out"
    assert cli.main(["signal", "--out", str(out), "--set", "geometry=sphere_reduced",
                     "--set", "N=40", "--set", "gbar=5", "--set", "tbars=0.2",
                     "--set", "walkers=20000"]) == 0
    lines = (out / "signal.csv").read_text().strip().split("\n")
    row = {k: float(v) if v else None
           for k, v in zip(lines[0].split(","), lines[1].split(","))}
    S_matrix = complex(row["S_matrix_re"], row["S_matrix_im"])
    S_mc = complex(row["S_mc_re"], row["S_mc_im"])
    assert abs(S_mc - S_matrix) < 3 * row["mc_stderr"]


def _count_walks(monkeypatch, fail_below=0.0):
    calls, real = [], mc.mc_signal

    def walk(cfg):
        calls.append(cfg.tbar)
        if cfg.tbar < fail_below:
            raise NumericalError("injected walk failure")
        return real(cfg)
    monkeypatch.setattr(mc, "mc_signal", walk)
    return calls


def test_lapack_failure_exits_4(tmp_path, monkeypatch):
    _fail_eigensolves(monkeypatch)
    cfgp = write_cfg(tmp_path / "d.cfg", DISK_SWEEP)
    assert cli.main(["sweep", "--config", cfgp, "--out", str(tmp_path / "o")]) == 4
    # a failed eigensolve ends a signal run before any walk starts
    walks = _count_walks(monkeypatch)
    cfgp = write_cfg(tmp_path / "s.cfg", SPHERE_SI)
    out = tmp_path / "s"
    assert cli.main(["signal", "--config", cfgp, "--out", str(out),
                     "--set", "walkers=200"]) == 4
    assert walks == [] and not (out / "signal.csv").exists()


def test_failed_walk_exits_4_without_output(tmp_path, monkeypatch):
    # tbar = 0.115 (5 ms) fails, tbar = 0.46 (20 ms) is the longest walk
    walks = _count_walks(monkeypatch, fail_below=0.2)
    cfgp = write_cfg(tmp_path / "s.cfg", SPHERE_SI)
    out = tmp_path / "out"
    assert cli.main(["signal", "--config", cfgp, "--out", str(out),
                     "--set", "walkers=200"]) == 4
    assert min(walks) < 0.2 and not (out / "signal.csv").exists()


def test_import_leaves_out_scipy_optimize():
    """scipy.optimize (about 0.25 s) loads only when a sweep matches
    branches, not with the package."""
    import os
    import subprocess
    import sys

    import btspec
    src = os.path.dirname(os.path.dirname(os.path.abspath(btspec.__file__)))
    code = "import sys, btspec.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
