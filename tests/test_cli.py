import dataclasses
import json
import threading
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from btspec import basis as bas
from btspec import cli
from btspec import fieldmap as fm
from btspec import matrices as mx
from btspec import montecarlo as mc
from btspec import signal as sg
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


def test_every_config_field_is_a_set_key(monkeypatch, tmp_path):
    """Each RunConfig field is accepted by --set and converted to its
    declared type; an unknown key still exits 2."""
    monkeypatch.delenv(cli.ENV_OUTDIR, raising=False)
    ints = ("N", "n_branches", "walkers", "seed", "resolution")
    samples = {"geometry": "sphere", "outdir": "out", "deltas_ms": [1.0, 2.5],
               "tbars": [1.0, 2.5], **dict.fromkeys(ints, 7)}
    fields = [f.name for f in dataclasses.fields(cli.RunConfig)]
    assert set(samples) <= set(fields) and len(fields) == 21
    want = {name: samples.get(name, 2.5) for name in fields}  # the rest: floats
    text = {k: "1, 2.5" if isinstance(v, list) else str(v) for k, v in want.items()}
    args = SimpleNamespace(config=None, out=None,
                           set=[f"{k}={v}" for k, v in text.items()])
    cfg = cli.build_config(args)
    for name, value in want.items():
        got = getattr(cfg, name)
        assert got == value and type(got) is type(value), name
    assert cli.main(["signal", "--set", "geometry=sphere", "--set", "N=5",
                     "--set", "bogus=1", "--out", str(tmp_path)]) == 2


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
    # |<v, v>| of the unit-2-norm row, the normalization's condition number
    assert 0 < side["vv"] <= 1
    assert (side["vv"] < sp.NEAR_BRANCH_TOL) == side["near_branch_point"]
    assert side["vv_pair"] is None  # a simple eigenvalue has no partner
    assert side["class_size"] == 1
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

    def counted(M, vectors, _geev=sp._geev):
        sizes.append(M.shape[-1])
        return _geev(M, vectors)
    monkeypatch.setattr(sp, "_geev", counted)
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
    largest = max(len(ix) for ix, *_ in sp.partition(disk.lam, Bd).blocks)
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
    """Every LAPACK solve from now on reports no convergence (info = 1)."""
    monkeypatch.setattr(sp, "_geev", lambda M, vectors: (np.zeros(len(M)), None, 1))


@pytest.mark.parametrize("command, cfg_text, extra", [
    ("sweep", DISK_SWEEP, ["--set", "N=10", "--set", "n_branches=50"]),
    ("fieldmap", SPHERE_SI, ["--set", "resolution=0", "--j", "1", "--g", "5.63"]),
    ("signal", SPHERE_SI, ["--set", "walkers=-5"]),
    ("signal", SPHERE_SI, ["--set", "walkers=200", "--set", "seed=-1"]),
    # gbar and tbar divide by D0 and R
    ("signal", SPHERE_SI, ["--set", "D0=0"]),
    ("signal", SPHERE_SI, ["--set", "R_um=0"]),
    ("signal", DISK_SWEEP, ["--set", "gbar=2", "--set", "tbars=0.1",
                            "--set", "walkers=1000"]),
    # an angle the geometry does not read
    ("sweep", DISK_SWEEP, ["--set", "geometry=sphere", "--set", "eta_deg=30"]),
    ("signal", DISK_SWEEP, ["--set", "geometry=sphere_reduced", "--set", "theta_deg=90",
                            "--set", "gbar=2", "--set", "tbars=0.1"]),
    ("sweep", DISK_SWEEP, ["--set", "geometry=cylinder", "--set", "phi_deg=30"]),
    ("fieldmap", DISK_SWEEP, ["--set", "eta_deg=10", "--j", "1", "--g", "2"]),
    ("sweep", DISK_SWEEP, ["--set", "geometry=interval", "--set", "theta_deg=10"]),
    # a domain key the geometry does not read, or one that disagrees
    ("sweep", DISK_SWEEP, ["--set", "geometry=cylinder", "--set", "H_um=3"]),
    ("signal", SPHERE_SI, ["--set", "H_um=5"]),
    ("sweep", DISK_SWEEP, ["--set", "geometry=interval", "--set", "R_um=1",
                           "--set", "H_um=2"]),
    ("signal", SPHERE_SI, ["--set", "aspect=2"]),
    ("fieldmap", SPHERE_SI, ["--set", "geometry=sphere_reduced", "--set", "aspect=0.5",
                             "--j", "1", "--g", "2"]),
    ("sweep", DISK_SWEEP, ["--set", "aspect=2"]),
    ("sweep", DISK_SWEEP, ["--set", "geometry=cylinder", "--set", "aspect=2",
                           "--set", "R_um=1", "--set", "H_um=3"]),
], ids=["n_branches_above_basis", "resolution_zero", "negative_walkers",
        "negative_seed", "zero_D0", "zero_R", "disk_has_no_walker", "eta_on_sphere",
        "theta_on_reduced_sphere", "phi_on_cylinder_sweep", "eta_on_disk",
        "theta_on_interval", "H_without_R", "H_on_sphere", "H_on_interval",
        "aspect_on_sphere", "aspect_on_reduced_sphere", "aspect_on_disk",
        "aspect_disagrees_with_H_over_R"])
def test_bad_config_exits_2_before_any_solve(tmp_path, monkeypatch, command,
                                             cfg_text, extra):
    # a solve would end in exit 4, so exit 2 shows the check came first
    _fail_eigensolves(monkeypatch)
    cfgp = write_cfg(tmp_path / "c.cfg", cfg_text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfgp, "--out", str(out)] + extra) == 2
    assert not out.exists()


@pytest.mark.parametrize("sets", [["g_max=5", "g_step=1e-300"], ["g_max=1e300"]],
                         ids=["tiny_step", "huge_g_max"])
def test_sweep_grid_beyond_the_bound_exits_2_before_the_operator(tmp_path, monkeypatch,
                                                                  sets):
    """A sweep grid of more than cli.MAX_GRID_POINTS points (these ask for
    5e300 and 2e301, where np.linspace raised ValueError) is a configuration
    error, exit 2, before the operator is built; nothing is written."""
    def build(*args, **kwargs):
        raise AssertionError("the operator was built")
    monkeypatch.setattr(cli, "operator_for", build)
    out = tmp_path / "out"
    argv = ["sweep", "--out", str(out), "--set", "geometry=sphere", "--set", "N=10"]
    assert cli.main(argv + [a for kv in sets for a in ("--set", kv)]) == 2
    assert not out.exists()


def test_overflowing_sweep_exits_4_without_output(tmp_path, capsys):
    """A sweep to gbar = 1e200 in steps of 1e199 meets values beyond
    sweep.MAX_VALUE, whose squared displacements overflow, on its first
    step: a NumericalError, exit 4, and nothing is written."""
    out = tmp_path / "out"
    assert cli.main(["sweep", "--out", str(out), "--set", "geometry=sphere", "--set", "N=20",
                     "--set", "g_max=1e200", "--set", "g_step=1e199"]) == 4
    assert "squared displacements overflow" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_signal_exits_4_without_output(tmp_path, capsys):
    """At gbar = 1e308 the squarings of the matrix exponential overflow:
    signal_matrix raises NumericalError naming gbar and tbar, so the command
    exits 4 and writes no signal.csv with a NaN signal."""
    out = tmp_path / "out"
    assert cli.main(["signal", "--out", str(out), "--set", "geometry=sphere", "--set", "N=20",
                     "--set", "gbar=1e308", "--set", "tbars=1"]) == 4
    err = capsys.readouterr().err
    assert "gbar=1e+308" in err and "tbar=1.0" in err
    assert not (out / "signal.csv").exists()


@pytest.mark.parametrize("sets", [["aspect=469.567", "gbar=1096"],
                                  ["aspect=1e-3", "eta_deg=90", "gbar=10"]],
                         ids=["tall_x", "thin_z"])
def test_signal_refuses_a_block_the_gradient_cannot_act_on(tmp_path, capsys, sets):
    """At N = 40 the constant mode's block of a tall cylinder with an x
    gradient, and of a thin one with a z gradient, is that mode alone, and
    B is zero on it: every signal would be exactly 1.  The command ends in
    a DomainError (exit 3) naming the block size and writes nothing."""
    out = tmp_path / "out"
    args = ["signal", "--out", str(out), "--set", "geometry=cylinder", "--set", "N=40",
            "--set", "tbars=1,5"]
    assert cli.main(args + [a for s in sets for a in ("--set", s)]) == 3
    assert "block of 1 mode(s)" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refinements_are_capped(tmp_path, capsys):
    """A disk sweep to gbar = 1e150 in steps of 1e149 bisects every step
    down to REFINE_DISPLACEMENT, far past sweep.MAX_REFINEMENTS times its
    11 starting points: a NumericalError (exit 4) at the cap, at once, and
    nothing is written."""
    out = tmp_path / "out"
    assert cli.main(["sweep", "--out", str(out), "--set", "geometry=disk", "--set", "N=20",
                     "--set", "g_max=1e150", "--set", "g_step=1e149"]) == 4
    assert "refinements" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_geometry_exits_3(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--set", "geometry=cube", "--set", "N=10",
                     "--set", "g_max=1", "--set", "eta_deg=10", "--out", str(out)]) == 3
    assert not out.exists()


def test_aspect_is_H_over_R_or_the_aspect_key():
    def aspect(**kw):
        return cli.RunConfig(N=10, **kw).geometry_aspect()
    assert aspect(geometry="cylinder", R_um=2, H_um=3) == 1.5
    assert aspect(geometry="cylinder", R_um=1, H_um=3, aspect=3) == 3
    assert aspect(geometry="cylinder", aspect=2.5) == 2.5
    assert aspect(geometry="interval", aspect=2.5) == 2.5
    assert aspect(geometry="sphere", R_um=10) == 1


@pytest.mark.parametrize("geometry, sets, kw", [
    ("sphere", ["theta_deg=40", "phi_deg=30"],
     {"theta_g": np.deg2rad(40), "phi_g": np.deg2rad(30)}),
    ("cylinder", ["eta_deg=78.23931266613657"], {"eta": np.deg2rad(78.23931266613657)}),
    ("cylinder", ["eta_deg=90"], {"eta": np.deg2rad(90)}),
], ids=["tilted_sphere", "oblique_cylinder", "axial_cylinder"])
def test_signal_walks_along_the_operators_direction(tmp_path, monkeypatch,
                                                     geometry, sets, kw):
    """btspec signal gives every walk gradient_direction of its config, the
    vector its B is weighted by, bit for bit (WalkConfig keeps a unit vector
    as given); at eta = 90 degrees that is exactly z, with no cos(pi/2)
    residue in x."""
    directions, walk_config = [], cli.WalkConfig

    def recording(**fields):
        cfg = walk_config(**fields)
        directions.append(cfg.direction)
        return cfg
    monkeypatch.setattr(cli, "WalkConfig", recording)
    _run("signal", [f"geometry={geometry}", "N=20", "gbar=2", "tbars=0.1, 0.2",
                    "walkers=10", *sets], tmp_path / "out")
    assert directions == [mx.gradient_direction(geometry, **kw)] * 2


@pytest.mark.parametrize("command, cfg_text, extra", [
    ("sweep", DISK_SWEEP, ["--set", "g_max=nan"]),
    ("sweep", DISK_SWEEP, ["--set", "g_max=inf"]),
    ("sweep", DISK_SWEEP.replace("g_step = 0.05", "g_step = nan"), []),
    ("signal", SPHERE_SI, ["--set", "deltas_ms=5, nan"]),
    ("signal", "geometry = sphere\nN = 40\ntbars = 0.2\ngbar = nan\n", []),
    ("fieldmap", SPHERE_SI, ["--j", "1", "--g", "nan"]),
    ("fieldmap", SPHERE_SI, ["--j", "1", "--g=-inf"]),
], ids=["g_max_nan", "g_max_inf", "g_step_file_nan", "deltas_nan",
        "gbar_file_nan", "fieldmap_g_nan", "fieldmap_g_minus_inf"])
def test_non_finite_number_exits_2(tmp_path, command, cfg_text, extra):
    """NaN and +-inf, in the config file, in --set or in --g, are config
    errors (exit 2, no output), not tracebacks or LAPACK failures."""
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
    """Record the tbar of every walk step; fail the steps of walks with
    tbar < fail_below."""
    steps, real = [], mc._reflect

    def reflect(cfg, old, new):
        steps.append(cfg.tbar)
        if cfg.tbar < fail_below:
            raise NumericalError("injected walk failure")
        return real(cfg, old, new)
    monkeypatch.setattr(mc, "_reflect", reflect)
    return steps


def test_lapack_failure_exits_4(tmp_path, monkeypatch):
    _fail_eigensolves(monkeypatch)
    cfgp = write_cfg(tmp_path / "d.cfg", DISK_SWEEP)
    assert cli.main(["sweep", "--config", cfgp, "--out", str(tmp_path / "o")]) == 4
    # a failed eigensolve ends a signal run before any walk steps (the seam
    # is live: test_failed_walk_exits_4_without_output)
    walks = _count_walks(monkeypatch)
    cfgp = write_cfg(tmp_path / "s.cfg", SPHERE_SI)
    out = tmp_path / "s"
    assert cli.main(["signal", "--config", cfgp, "--out", str(out),
                     "--set", "walkers=200"]) == 4
    assert walks == [] and not (out / "signal.csv").exists()


def test_failed_walk_exits_4_without_output(tmp_path, monkeypatch):
    # tbar = 0.115 (5 ms) fails at its first step, tbar = 0.46 (20 ms) is
    # the longest walk
    baseline = threading.active_count()
    walks = _count_walks(monkeypatch, fail_below=0.2)
    cfgp = write_cfg(tmp_path / "s.cfg", SPHERE_SI)
    out = tmp_path / "out"
    assert cli.main(["signal", "--config", cfgp, "--out", str(out),
                     "--set", "walkers=200"]) == 4
    assert min(walks) < 0.2 and not (out / "signal.csv").exists()
    assert threading.active_count() == baseline


def test_readme_si_walks_draw_each_step_once(tmp_path, monkeypatch):
    """The README SI plan (delta = 2, 5, 10, 20 ms) walks 47, 116, 231 and
    461 steps per pulse on one stream: 922 step-sized normal fills, where
    walking each on its own generator makes 2 * 855 = 1710."""
    fills, real_fill = [], mc._fill
    monkeypatch.setattr(mc, "_fill",
                        lambda rng, out: fills.append(out.shape) or real_fill(rng, out))
    groups, real_group = [], mc._walk_group
    monkeypatch.setattr(mc, "_walk_group",
                        lambda cfgs: groups.append(cfgs) or real_group(cfgs))
    cfgp = write_cfg(tmp_path / "s.cfg", SPHERE_SI.replace(
        "deltas_ms = 5, 20", "deltas_ms = 2, 5, 10, 20"))
    assert cli.main(["signal", "--config", cfgp, "--out", str(tmp_path / "o"),
                     "--set", "walkers=200"]) == 0
    assert len(groups) == 1 and len(groups[0]) == 4
    assert len(fills) == 922 and set(fills) == {(200, 3)}
    fills.clear()
    for cfg in groups[0]:
        mc.mc_signal(cfg)
    assert len(fills) == 1710


def _loaded_modules(code: str) -> set:
    """The scipy and numpy.ma modules in sys.modules after running code in
    a fresh interpreter on this package's source."""
    import os
    import subprocess
    import sys

    import btspec
    src = os.path.dirname(os.path.dirname(os.path.abspath(btspec.__file__)))
    code += ("\nimport sys\n"
             "print('loaded:', *(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
             "                   or m.split('.')[:2] == ['numpy', 'ma']))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    return set(out.splitlines()[-1].split()[1:])


def test_import_leaves_out_scipy_optimize():
    """No scipy module (importing any costs 0.25-0.3 s, and scipy.optimize
    17 MB of peak memory more) is loaded with the package: the commands that
    need one import it inside the function that calls it."""
    assert _loaded_modules("import btspec.cli") == set()


# CLI runs as --set items (a sweep) or a command and its arguments: a
# sweep of each geometry, the sphere about z and tilted, and fieldmap and
# signal runs.  The load tests below and the scipy-blocked test run them.
SWEEP_RUNS = [["geometry=sphere", "N=60", "g_max=13"],
              ["geometry=sphere", "N=60", "theta_deg=30", "phi_deg=20", "g_max=13"],
              ["geometry=sphere_reduced", "N=40", "g_max=10"],
              ["geometry=disk", "N=40", "g_max=10"],
              ["geometry=interval", "N=20", "g_max=20"],
              ["geometry=cylinder", "N=40", "eta_deg=78.23931266613657", "g_max=19.2",
               "g_step=0.1", "n_branches=13"]]
FIELDMAP_SIGNAL_RUNS = [["fieldmap", "--j", "2", "--g", "5", "resolution=21"] + sets for sets in (
    ["geometry=sphere", "N=40"],
    ["geometry=sphere", "N=40", "theta_deg=30", "phi_deg=20"],
    ["geometry=disk", "N=40"],
    ["geometry=cylinder", "N=40", "eta_deg=40"],
    ["geometry=interval", "N=20"])] + [
    ["signal", f"geometry={g}", "N=30", "gbar=3", "tbars=0.1, 0.5", f"walkers={w}"]
    for g in ("sphere", "cylinder") for w in (0, 50)]


def _main_code(runs, out) -> str:
    """Code that runs cli.main on each run (a command and its --set items,
    or the sets of a sweep) into its own directory under out, and asserts
    exit code 0."""
    calls = [([] if run[0] in ("fieldmap", "signal") else ["sweep"])
             + [a if a.startswith("-") or "=" not in a else f"--set={a}" for a in run]
             + ["--out", str(out / f"run{i}")] for i, run in enumerate(runs)]
    return "from btspec import branchpoints, cli\n" + "".join(
        f"assert cli.main({args!r}) == 0\n" for args in calls)


def test_sweeps_load_no_scipy(tmp_path):
    """btspec sweep on the z and the tilted sphere, the reduced sphere, the
    disk, the interval and the cylinder, and the interval's closed-form
    points (the J_{-2/3} zeros), run on numpy alone, without numpy.ma
    (which a bare np.unique imports)."""
    code = _main_code(SWEEP_RUNS, tmp_path)
    code += "assert len(branchpoints.interval_branch_points_analytic(3)) == 3\n"
    assert _loaded_modules(code) == set()


def test_fieldmap_and_signal_load_no_scipy(tmp_path):
    """btspec fieldmap on every geometry (the z and the tilted sphere, the
    disk, the cylinder, the interval) and btspec signal with and without
    walkers on the sphere and the cylinder run on numpy alone, without
    numpy.ma."""
    assert _loaded_modules(_main_code(FIELDMAP_SIGNAL_RUNS, tmp_path)) == set()


def test_commands_run_with_scipy_blocked(tmp_path):
    """With scipy made unimportable (sys.modules['scipy'] = None, so that
    any scipy import raises ImportError), every run above, the tilted
    sphere sweep at theta = 80 degrees and the interval's closed-form
    points succeed: scipy is no dependency of the package."""
    tilted80 = ["geometry=sphere", "N=60", "theta_deg=80", "phi_deg=20", "g_max=13"]
    code = "import sys\nsys.modules['scipy'] = None\n" + _main_code(
        SWEEP_RUNS + [tilted80] + FIELDMAP_SIGNAL_RUNS, tmp_path)
    code += "assert len(branchpoints.interval_branch_points_analytic(3)) == 3\n"
    # the one scipy entry is the blocking None
    assert _loaded_modules(code) == {"scipy"}


# Restricted routes against the full-N route.  Each case is (geometry,
# direction config keys, the same direction as gradient_matrix keywords);
# the oracle solves and normalizes the whole operator.
ROUTE_GEOMETRIES = {
    "z_sphere": ("sphere", [], {}),
    "tilted_sphere": ("sphere", ["theta_deg=40", "phi_deg=30"],
                      {"theta_g": np.deg2rad(40), "phi_g": np.deg2rad(30)}),
    "sphere_reduced": ("sphere_reduced", [], {}),
    "disk": ("disk", [], {}),
    "cylinder": ("cylinder", [], {}),
    "oblique_cylinder": ("cylinder", ["eta_deg=78.23931266613657"],
                         {"eta": np.deg2rad(78.23931266613657)}),
}


def _full_operator(geometry, kw, N):
    mat = mx.operator_for(geometry, N)
    return mat, mx.gradient_matrix(mat, **kw)


def _run(command, sets, out, extra=()):
    args = [command, "--out", str(out)]
    for item in sets:
        args += ["--set", item]
    assert cli.main(args + list(extra)) == 0


@pytest.mark.parametrize("gbar", [2.0, 8.0])
@pytest.mark.parametrize("name", ROUTE_GEOMETRIES)
def test_signal_on_constant_mode_block_matches_full_route(tmp_path, name, gbar):
    geometry, sets, kw = ROUTE_GEOMETRIES[name]
    N, tbars = 60, (0.05, 0.3)
    _run("signal", [f"geometry={geometry}", f"N={N}", f"gbar={gbar}",
                    "tbars=0.05,0.3"] + sets, tmp_path)
    lines = (tmp_path / "signal.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]

    mat, B = _full_operator(geometry, kw, N)
    spec = sp.normalize(sp.diagonalize(mat, B, gbar))
    spec_m = sp.spectrum_at_negative_g(spec)
    co = sg.compute_coefficients(spec)
    i1, i2 = sp.slowest_pair(spec)
    # the global slowest row carries weight, so both routes pick it
    assert abs(spec.X[i1, 0]) > 1e-12
    lam1 = spec.eigenvalues[i1]
    for tb, row in zip(tbars, rows):
        S = sg.signal_spectral(spec, spec_m, co, tb)
        got = complex(float(row["S_spectral_re"]), float(row["S_spectral_im"]))
        assert abs(got - S) <= 1e-12 * abs(S)
        if i2 is None:
            one = sg.signal_one_mode(lam1.real, co.C[i1, i1].real, tb).real
            assert row["S_twomode_re"] == ""
            assert abs(float(row["S_onemode"]) - one) <= 1e-12 * abs(one)
        else:
            two = sg.signal_two_mode(lam1, co.C[i1, i1].real, co.C[i1, i2], tb)
            got = complex(float(row["S_twomode_re"]), float(row["S_twomode_im"]))
            assert row["S_onemode"] == ""
            assert abs(got - two) <= 1e-12 * abs(two)


@pytest.mark.parametrize("name", ROUTE_GEOMETRIES)
def test_fieldmap_rows_match_full_route(tmp_path, monkeypatch, name):
    """Rows j = 1..N/5 exported from the restricted route equal the full
    route's canonical rows: the same eigenvalue and flag, and the same
    coefficients to 1e-12, zero outside the restriction."""
    geometry, sets, kw = ROUTE_GEOMETRIES[name]
    N = 60
    mat, B = _full_operator(geometry, kw, N)
    position = {idx: i for i, idx in enumerate(mat.basis.indices)}
    seen = []

    def export(spec, basis, j, **kwargs):
        seen.append((spec, basis, j))
        return fm.export_projection(spec, basis, j, **kwargs)
    monkeypatch.setattr(cli, "export_projection", export)
    sets = [f"geometry={geometry}", f"N={N}", "resolution=1"] + sets
    for g in (5.63, 12.0):
        full = sp.normalize(sp.diagonalize(mat, B, g))
        rank = sp.canonical_order(full.eigenvalues)
        for j in range(1, N // 5 + 1):
            seen.clear()
            _run("fieldmap", sets, tmp_path, ["--j", str(j), "--g", str(g)])
            (spec, basis, k), = seen
            r = rank[j - 1]
            assert spec.eigenvalues[k - 1] == full.eigenvalues[r]
            assert spec.near_branch[k - 1] == full.near_branch[r]
            ix = [position[i] for i in basis.indices]
            row = np.zeros(mat.N, dtype=complex)
            row[ix] = spec.X[k - 1]
            assert np.max(np.abs(row - full.X[r])) <= 1e-12 * np.max(np.abs(full.X[r]))


@pytest.mark.parametrize("name", ["z_sphere", "tilted_sphere"])
def test_fieldmap_sidecar_reports_class_size(tmp_path, name):
    """class_size is the size of row j's degenerate class among the rows the
    fieldmap solves.  The tilted sphere is one block, so its +-m pairs are
    classes of two, as on the full operator; a z-sphere row's twin lies in
    another block, so every z-sphere row is alone in its class."""
    geometry, sets, kw = ROUTE_GEOMETRIES[name]
    N, g = 60, 12.0
    mat, B = _full_operator(geometry, kw, N)
    full = sp.normalize(sp.diagonalize(mat, B, g))
    rank = sp.canonical_order(full.eigenvalues)
    sizes = []
    for j in range(1, N // 5 + 1):
        _run("fieldmap", [f"geometry={geometry}", f"N={N}", "resolution=1"] + sets,
             tmp_path, ["--j", str(j), "--g", str(g)])
        side = json.loads((tmp_path / f"field_j{j}_g12.json").read_text())
        c = full.degenerate_class[rank[j - 1]]
        in_full = int(np.count_nonzero(full.degenerate_class == c)) if c >= 0 else 1
        assert side["class_size"] == (in_full if name == "tilted_sphere" else 1)
        sizes.append(in_full)
    assert 1 in sizes and 2 in sizes


def test_fieldmap_csv_of_pair_row_matches_full_route(tmp_path):
    """A member of an exactly degenerate cos/sin pair of the N=333 sphere
    (j=4 at gbar=12, n=2, m=1): the CSV from the restricted route matches
    the full route's export.  The row lies in one (m, l) sector, so its own
    bilinear norm vv conditions it; its twin lies in another block, outside
    the restriction, and the sidecar has no vv_pair."""
    out = tmp_path / "out"
    _run("fieldmap", ["geometry=sphere", "N=333", "resolution=41"], out,
         ["--j", "4", "--g", "12"])
    side = json.loads((out / "field_j4_g12.json").read_text())
    assert side["vv"] > sp.NEAR_BRANCH_TOL and not side["near_branch_point"]
    assert side["vv_pair"] is None and side["class_size"] == 1
    grid = np.loadtxt(out / "field_j4_g12.csv", delimiter=",", skiprows=1)
    v = grid[:, 2] + 1j * grid[:, 3]

    mat, B = _full_operator("sphere", {}, 333)
    full = sp.normalize(sp.diagonalize(mat, B, 12.0))
    r = sp.canonical_order(full.eigenvalues)[3]
    x = full.X[r]
    assert abs(x[0]) < 1e-12  # no constant-mode projection: an |m| >= 1 row
    sectors = {(mat.basis.indices[i].m, mat.basis.indices[i].l) for i in np.flatnonzero(x)}
    assert len(sectors) == 1 and min(sectors)[0] == 1
    one = sp.Spectrum(gbar=12.0, eigenvalues=full.eigenvalues[[r]], X=x[None],
                      near_branch=full.near_branch[[r]])
    ref = fm.export_projection(one, mat.basis, 1, resolution=41)
    v_ref = np.where(ref.inside, ref.values, 0).ravel()
    assert np.array_equal(grid[:, 4].astype(bool), ref.inside.ravel())
    assert np.max(np.abs(v - v_ref)) <= 1e-12 * np.max(np.abs(v_ref))

    # in the full route the twin shares the degenerate class, with a bilinear
    # product of exactly 0: each row normalizes on its own
    raw = sp.diagonalize(mat, B, 12.0)
    pair = np.flatnonzero(full.degenerate_class == full.degenerate_class[r])
    assert len(pair) == 2 and r in pair
    C = raw.X[pair] @ raw.X[pair].T
    assert C[0, 1] == C[1, 0] == 0.0
    i = list(pair).index(r)
    assert side["vv"] == pytest.approx(abs(C[i, i]), rel=1e-10)


def test_signal_and_fieldmap_solve_only_the_blocks_they_read(tmp_path, monkeypatch):
    """On the z sphere at N=100, no eigenvector solve is wider than the
    blocks a command reads, and normalize sees only their rows."""
    vector_solves, normalized_rows = [], []

    def solve(lam_b, B_b, gbar, eigvals_only, _solve=sp._solve_block):
        if not eigvals_only:
            vector_solves.append(len(lam_b))
        return _solve(lam_b, B_b, gbar, eigvals_only)

    def normalize(spec, _normalize=sp.normalize):
        normalized_rows.append(spec.N)
        return _normalize(spec)
    monkeypatch.setattr(sp, "_solve_block", solve)
    monkeypatch.setattr(cli, "normalize", normalize)
    mat, B = _full_operator("sphere", {}, 100)
    labels = sp.partition(mat.lam, B).label
    width = {k: np.count_nonzero(labels == k) for k in np.unique(labels)}

    _run("signal", ["geometry=sphere", "N=100", "gbar=8", "tbars=0.2"], tmp_path)
    read = len(sp.own_blocks(mat, B, [0])[2])
    assert read == width[labels[0]] < mat.N // 4
    assert vector_solves and max(vector_solves) <= read
    assert normalized_rows == [read]

    vector_solves.clear()
    normalized_rows.clear()
    _run("fieldmap", ["geometry=sphere", "N=100", "resolution=1"], tmp_path,
         ["--j", "4", "--g", "12"])
    w = sp.diagonalize(mat, B, 12.0, eigvals_only=True)
    k = w.block[sp.canonical_order(w.eigenvalues)[3]]
    assert k != labels[0]  # row 4 lies outside the constant mode's block
    read = sp.own_blocks(mat, B, [0, np.argmax(labels == k)])[2]
    assert set(vector_solves) <= {width[labels[0]], width[k]}
    assert normalized_rows == [len(read)] and len(read) < mat.N // 2


def test_signal_and_fieldmap_partition_the_full_operator_once(tmp_path, monkeypatch):
    """Each command walks the full operator's graph (spectrum._components,
    which partition calls) once; every other walk is on the restriction."""
    walks = []

    def components(adj, _components=sp._components):
        walks.append(len(adj))
        return _components(adj)
    N = _full_operator("sphere", {}, 100)[0].N
    monkeypatch.setattr(sp, "_components", components)
    _run("signal", ["geometry=sphere", "N=100", "gbar=8", "tbars=0.2,0.5,1"], tmp_path)
    assert walks[0] == N and max(walks[1:]) < N
    walks.clear()
    _run("fieldmap", ["geometry=sphere", "N=100", "resolution=1"], tmp_path,
         ["--j", "4", "--g", "12"])
    assert walks[0] == N and max(walks[1:]) < N


@pytest.mark.parametrize("command, sets, extra, stage, released", [
    ("fieldmap", ["geometry=sphere", "N=40", "resolution=11"], ["--j", "2", "--g", "3"],
     "export_projection", ("operator_for", "gradient_matrix", "partition")),
    ("sweep", ["geometry=cylinder", "N=30", "g_max=2", "eta_deg=40"], [],
     "cylinder_branch_points", ("gradient_matrix",)),
], ids=["fieldmap", "cylinder_sweep"])
def test_commands_release_what_their_later_stages_do_not_read(
        tmp_path, monkeypatch, command, sets, extra, stage, released):
    """fieldmap's grid stage runs with the full operator, its B and its
    partition gone (only the restriction is alive); the cylinder sweep's
    factor route with the full B gone."""
    refs = {}

    def spy(name, f):
        def wrapped(*args, **kw):
            out = f(*args, **kw)
            refs[name] = weakref.ref(out)
            return out
        return wrapped
    for name in released:
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    dead = []

    def at_stage(*args, _f=getattr(cli, stage), **kw):
        dead.append({name: ref() is None for name, ref in refs.items()})
        return _f(*args, **kw)
    monkeypatch.setattr(cli, stage, at_stage)
    _run(command, sets, tmp_path, extra)
    assert dead == [dict.fromkeys(released, True)]


def _fmt(x):
    return "%.17g" % x


def _old_branches_csv(path, sweep, n_out):
    """The per-cell writer that branches.csv had before the bulk writer."""
    with open(path, "w", newline="") as f:
        f.write("g,branch_j,re_lambda,im_lambda,flags\n")
        ambiguous = {(a["g"], b) for a in sweep.ambiguities
                     for b in a.get("branches", ())}
        for i, g in enumerate(sweep.g_grid):
            for j in range(n_out):
                lam = sweep.eigenvalues[i, j]
                flag = "ambiguous" if (g, j) in ambiguous else ""
                f.write(f"{_fmt(g)},{j + 1},{_fmt(lam.real)},{_fmt(lam.imag)},{flag}\n")


def _old_field_csv(path, grid):
    """The per-cell writer that the fieldmap CSV had before the bulk writer."""
    with open(path, "w", newline="") as f:
        f.write("x,z,re_v,im_v,inside_flag\n")
        for a, x in enumerate(grid.axis1):
            for b, z in enumerate(grid.axis2):
                v = grid.values[a, b]
                inside = int(grid.inside[a, b])
                re = _fmt(v.real) if inside else "0"
                im = _fmt(v.imag) if inside else "0"
                f.write(f"{_fmt(x)},{_fmt(z)},{re},{im},{inside}\n")


def test_bulk_csv_writers_match_per_cell_writers(tmp_path, sphere60, sphere60_sweep13):
    """branches.csv and the fieldmap CSV are byte-identical to the per-cell
    writers: outside cells, a -0 inside value, the interval's 1-point axis
    and ambiguous flag rows included."""
    sweep = replace(sphere60_sweep13, ambiguities=[
        {"g": sphere60_sweep13.g_grid[3], "branches": (0, 2)},
        {"g": sphere60_sweep13.g_grid[-1], "note": "no branches"}])
    crafted = SimpleNamespace(
        g_grid=np.array([0.0, 0.1, 1e-300, 2.5]),
        eigenvalues=np.array([[complex(-0.0, 0.0), complex(1.5, -0.0), 1e300 + 1e-17j],
                              [0.1 + 0.2j, -3.0 + 0j, np.pi + 1j]] * 2),
        ambiguities=[{"g": 1e-300, "branches": (1,)}])
    for k, (sw, n_out) in enumerate([(sweep, 17), (crafted, 2), (crafted, 3)]):
        new, old = tmp_path / f"new{k}.csv", tmp_path / f"old{k}.csv"
        cli._write_branches(str(new), sw, n_out)
        _old_branches_csv(str(old), sw, n_out)
        assert new.read_bytes() == old.read_bytes()
    assert b"ambiguous" in (tmp_path / "new0.csv").read_bytes()

    m, B = sphere60
    s = sp.normalize(sp.diagonalize(m, B, 5.63))
    mi = mx.operator_for("interval", 12)
    si = sp.normalize(sp.diagonalize(mi, mx.gradient_matrix(mi), 1.0))
    values = np.array([[np.nan, complex(-0.0, 0.5), complex(1e-300, -0.0), np.nan]])
    grids = [fm.export_projection(s, m.basis, 1, resolution=41),
             fm.export_projection(si, mi.basis, 1, resolution=31),
             fm.FieldGrid(axis1=np.zeros(1), axis2=np.array([-0.5, -0.0, 0.25, 0.5]),
                          values=values, inside=~np.isnan(values.real), plane="xz",
                          j=1, gbar=1.0, eigenvalue=1.0)]
    assert grids[1].axis1.shape == (1,)
    for k, grid in enumerate(grids):
        new, old = tmp_path / f"fnew{k}.csv", tmp_path / f"fold{k}.csv"
        cli._write_field(str(new), grid)
        _old_field_csv(str(old), grid)
        assert new.read_bytes() == old.read_bytes()
    assert b",-0,0.5,1\n" in (tmp_path / "fnew2.csv").read_bytes()
