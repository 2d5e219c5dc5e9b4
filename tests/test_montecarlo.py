import threading

import numpy as np
import pytest
from scipy.stats import chisquare

from btspec import montecarlo as mc
from btspec import signal as sig
from btspec.errors import ConfigError, NumericalError


def test_zero_gradient_gives_unity():
    cfg = mc.WalkConfig(geometry="sphere", gbar=0.0, tbar=0.1, walkers=500,
                        dt=1e-3, seed=1)
    S, err = mc.mc_signal(cfg)
    assert S == 1.0 + 0.0j
    assert err == 0.0


def test_free_diffusion_gaussian_phase():
    # back-to-back PGSE in free space: S = exp(-(2/3) gbar^2 tbar^3)
    cfg = mc.WalkConfig(geometry="free", gbar=1.0, tbar=0.3, walkers=30000,
                        dt=1e-3, seed=7)
    S, err = mc.mc_signal(cfg)
    ref = np.exp(-(2.0 / 3.0) * 0.3**3)
    assert abs(S.real - ref) < 3 * err
    assert abs(S.imag) < 3 * err


def test_sphere_against_matrix_route(sphere60):
    m, B = sphere60
    ref = sig.signal_matrix(m, B, 2.0, 0.5)
    cfg = mc.WalkConfig(geometry="sphere", gbar=2.0, tbar=0.5, walkers=30000,
                        dt=1e-3, seed=11)
    S, err = mc.mc_signal(cfg)
    assert abs(S - ref) < 3 * err


def test_step_halving_weak_order():
    base = mc.WalkConfig(geometry="sphere", gbar=2.0, tbar=0.3, walkers=30000,
                         dt=1e-3, seed=21)
    fine = mc.WalkConfig(geometry="sphere", gbar=2.0, tbar=0.3, walkers=30000,
                         dt=5e-4, seed=22)
    S1, e1 = mc.mc_signal(base)
    S2, e2 = mc.mc_signal(fine)
    assert abs(S1 - S2) < 3 * np.sqrt(e1**2 + e2**2)


def test_reflected_positions_stay_inside_and_uniform():
    cfg = mc.WalkConfig(geometry="sphere", gbar=0.0, tbar=1.0, walkers=20000,
                        dt=1e-3, seed=3)
    rng = np.random.Generator(np.random.Philox(3))
    pos = mc._initial_positions(cfg, rng)
    for _ in range(400):
        new = pos + np.sqrt(2e-3) * rng.standard_normal(pos.shape)
        pos = mc._reflect(cfg, pos, new)
    r2 = np.sum(pos**2, axis=1)
    assert np.max(r2) <= 1.0 + 1e-12
    hist, _ = np.histogram(r2**1.5, bins=10, range=(0.0, 1.0))
    assert chisquare(hist).pvalue > 0.01


def test_cylinder_reflection_contains_walkers():
    cfg = mc.WalkConfig(geometry="cylinder", gbar=0.0, tbar=0.5, walkers=5000,
                        dt=1e-3, aspect=1.0, seed=9)
    rng = np.random.Generator(np.random.Philox(9))
    pos = mc._initial_positions(cfg, rng)
    for _ in range(300):
        new = pos + np.sqrt(2e-3) * rng.standard_normal(pos.shape)
        pos = mc._reflect(cfg, pos, new)
    assert np.max(pos[:, 0]**2 + pos[:, 1]**2) <= 1.0 + 1e-12
    assert np.max(np.abs(pos[:, 2])) <= 0.5 + 1e-12


def test_determinism():
    cfg = mc.WalkConfig(geometry="sphere", gbar=1.0, tbar=0.2, walkers=2000,
                        dt=1e-3, seed=42)
    a = mc.mc_signal(cfg)
    b = mc.mc_signal(cfg)
    assert a == b


@pytest.mark.parametrize("cfg, expected", [
    (mc.WalkConfig(geometry="sphere", gbar=5.0, tbar=0.2, walkers=2000,
                   seed=17),
     ((0.9402747836858778 + 0.0008963696745435628j), 0.007613819604339525)),
    (mc.WalkConfig(geometry="cylinder", gbar=5.0, tbar=0.2, walkers=2000,
                   aspect=1.5, direction=(0.6, 0.0, 0.8), seed=18),
     ((0.9399912730364475 + 0.014246648543059088j), 0.007624682793674559)),
    (mc.WalkConfig(geometry="free", gbar=2.0, tbar=0.2, walkers=2000,
                   seed=19),
     ((0.9791674417360354 + 0.0003533417293841308j), 0.004541564818690385)),
    (mc.WalkConfig(geometry="sphere", gbar=15.0, tbar=0.2, walkers=2000,
                   direction=(1.0, 2.0, 3.0), seed=20),
     ((0.5636756181964632 + 0.01914508439122821j), 0.01846949356895285)),
], ids=["sphere", "cylinder", "free", "sphere-tilted"])
def test_fixed_seed_values_are_pinned(cfg, expected):
    # exact fixed-seed values, compared with ==: any change to the Philox
    # draws, their order, the reflection or the floating-point order of a
    # step fails here
    assert mc.mc_signal(cfg) == expected


def test_config_validation():
    with pytest.raises(ConfigError):
        mc.WalkConfig(geometry="cube", gbar=1.0, tbar=0.1)
    with pytest.raises(ConfigError):
        mc.WalkConfig(geometry="sphere", gbar=1.0, tbar=0.1, dt=0.01)  # too coarse
    with pytest.raises(ConfigError):
        mc.WalkConfig(geometry="sphere", gbar=1.0, tbar=0.1, walkers=0)
    with pytest.raises(ConfigError):
        mc.WalkConfig(geometry="sphere", gbar=1.0, tbar=0.1,
                      direction=(0.0, 0.0, 0.0))


def test_direction_normalized():
    cfg = mc.WalkConfig(geometry="sphere", gbar=1.0, tbar=0.1,
                        direction=(0.0, 0.0, 2.0))
    assert cfg.direction == (0.0, 0.0, 1.0)


# more walks than cores, all three geometries, two equal tbars
CONCURRENT = [
    mc.WalkConfig(geometry="sphere", gbar=5.0, tbar=0.1, walkers=1500, seed=31),
    mc.WalkConfig(geometry="cylinder", gbar=5.0, tbar=0.15, walkers=1500,
                  aspect=1.5, direction=(0.6, 0.0, 0.8), seed=32),
    mc.WalkConfig(geometry="free", gbar=2.0, tbar=0.05, walkers=1500, seed=33),
    mc.WalkConfig(geometry="sphere", gbar=8.0, tbar=0.15, walkers=1500,
                  direction=(1.0, 2.0, 3.0), seed=34),
    mc.WalkConfig(geometry="sphere", gbar=2.0, tbar=0.2, walkers=1500, seed=35),
]


def _cores(monkeypatch, n):
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_concurrent_walks_equal_serial_ones(monkeypatch, cores):
    serial = [mc.mc_signal(c) for c in CONCURRENT]
    _cores(monkeypatch, cores)
    assert mc.mc_signals(CONCURRENT) == serial
    assert mc.mc_signals([]) == []


def test_walks_start_longest_first(monkeypatch):
    # one worker runs the walks in submission order, through the module global
    _cores(monkeypatch, 1)
    ran = []
    monkeypatch.setattr(mc, "mc_signal",
                        lambda c: ran.append(c.seed) or (c.seed, 0.0))
    assert mc.mc_signals(CONCURRENT) == [(c.seed, 0.0) for c in CONCURRENT]
    assert ran == [35, 32, 34, 31, 33]


def test_failed_walk_reraises_and_cancels_the_rest(monkeypatch):
    _cores(monkeypatch, 1)
    cancelled = threading.Event()

    class Pool(mc.ThreadPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            super().shutdown(wait=False, cancel_futures=cancel_futures)
            if cancel_futures:
                cancelled.set()
            super().shutdown(wait=wait)
    ran = []

    def walk(c):
        ran.append(c.seed)
        if c.seed == 35:  # the longest walk, run first
            raise NumericalError("injected walk failure")
        cancelled.wait(5.0)  # holds the worker until the pending walks are cancelled
        return 0j, 0.0
    monkeypatch.setattr(mc, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(mc, "mc_signal", walk)
    with pytest.raises(NumericalError):
        mc.mc_signals(CONCURRENT)
    # the worker may have taken the next walk (seed 32) before the cancel
    assert ran[0] == 35 and set(ran) <= {35, 32}
