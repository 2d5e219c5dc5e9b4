import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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


# all three geometries, two equal tbars; the first and last walks share a
# stream (sphere, 1500 walkers, seed 31), the others have one each
CONCURRENT = [
    mc.WalkConfig(geometry="sphere", gbar=5.0, tbar=0.1, walkers=1500, seed=31),
    mc.WalkConfig(geometry="cylinder", gbar=5.0, tbar=0.15, walkers=1500,
                  aspect=1.5, direction=(0.6, 0.0, 0.8), seed=32),
    mc.WalkConfig(geometry="free", gbar=2.0, tbar=0.05, walkers=1500, seed=33),
    mc.WalkConfig(geometry="sphere", gbar=8.0, tbar=0.15, walkers=1500,
                  direction=(1.0, 2.0, 3.0), seed=34),
    mc.WalkConfig(geometry="sphere", gbar=2.0, tbar=0.2, walkers=1500, seed=31),
]


def _count_fills(monkeypatch, fail_at=None):
    """Count the producer's step-sized fills; fail the fill number fail_at."""
    fills, real = [], mc._fill

    def fill(rng, out):
        fills.append(len(fills) + 1)
        if fills[-1] == fail_at:
            raise NumericalError("injected draw failure")
        real(rng, out)
    monkeypatch.setattr(mc, "_fill", fill)
    return fills


@pytest.mark.parametrize("copies", [1, 2, 3])
def test_concurrent_walks_equal_serial_ones(copies):
    # each copy of the list adds one more walk to every stream
    serial = [mc.mc_signal(c) for c in CONCURRENT] * copies
    assert mc.mc_signals(CONCURRENT * copies) == serial
    # a switch interval of 1 us interleaves the producer and the walks as
    # finely as the interpreter allows: a buffer read while being refilled
    # would change the bits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert mc.mc_signals(CONCURRENT * copies) == serial
    finally:
        sys.setswitchinterval(interval)
    assert mc.mc_signals([]) == []


def test_walks_on_one_stream_draw_once(monkeypatch):
    # steps per pulse: 100, 150, 50, 150, 200; the seed-31 pair draws the
    # 400 fills of its longer walk once
    fills = _count_fills(monkeypatch)
    mc.mc_signals(CONCURRENT)
    assert len(fills) == 400 + 300 + 100 + 300
    fills.clear()
    for c in CONCURRENT:
        mc.mc_signal(c)
    assert len(fills) == 200 + 300 + 100 + 300 + 400


def test_failed_walk_reraises_and_cancels_the_rest(monkeypatch):
    baseline = threading.active_count()
    fills = _count_fills(monkeypatch)
    steps, real = [], mc._reflect
    failing = CONCURRENT[4]

    def reflect(cfg, old, new):
        steps.append(cfg.seed)
        if cfg is failing and steps.count(31) == 10:  # its 5th step
            raise NumericalError("injected walk failure")
        return real(cfg, old, new)
    monkeypatch.setattr(mc, "_reflect", reflect)
    with pytest.raises(NumericalError, match="injected walk failure"):
        mc.mc_signals(CONCURRENT)
    # the producer is joined, the walks of its stream stop at that step,
    # and no other stream starts
    assert threading.active_count() == baseline
    assert steps == [31] * 10
    # two buffers: the failing step holds the 5th, the other may hold the 6th
    assert len(fills) in (5, 6)


def test_failed_draw_reraises_and_stops_the_walks(monkeypatch):
    baseline = threading.active_count()
    fills = _count_fills(monkeypatch, fail_at=3)
    steps, real = [], mc._reflect
    monkeypatch.setattr(mc, "_reflect",
                        lambda cfg, old, new: steps.append(cfg.seed) or real(cfg, old, new))
    with pytest.raises(NumericalError, match="injected draw failure"):
        mc.mc_signals(CONCURRENT)
    assert threading.active_count() == baseline
    # the two fills before the failure step both seed-31 walks
    assert fills == [1, 2, 3] and steps == [31] * 4


_walks = st.builds(
    mc.WalkConfig,
    geometry=st.sampled_from(["sphere", "cylinder", "free"]),
    gbar=st.floats(0.0, 20.0),
    tbar=st.sampled_from([0.01, 0.03]) | st.floats(0.002, 0.05),
    # few values, so that lists often hold walks on one stream
    walkers=st.sampled_from([40, 500]),
    dt=st.sampled_from([1e-3, 6e-4]),
    aspect=st.sampled_from([1.0, 1.5]),
    direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda d: max(map(abs, d)) > 0.1),
    seed=st.sampled_from([1, 2]),
)


@settings(max_examples=30, deadline=None)
@given(cfgs=st.lists(_walks, min_size=1, max_size=5))
@example(cfgs=[  # two sphere walks on one stream; two cylinders on two
    mc.WalkConfig(geometry="sphere", gbar=4.0, tbar=0.02, walkers=40, seed=1),
    mc.WalkConfig(geometry="cylinder", gbar=4.0, tbar=0.02, walkers=40,
                  aspect=1.5, seed=1),
    mc.WalkConfig(geometry="sphere", gbar=9.0, tbar=0.01, walkers=40,
                  direction=(1.0, 0.0, 0.0), seed=1),
    mc.WalkConfig(geometry="cylinder", gbar=4.0, tbar=0.02, walkers=40, seed=1),
])
def test_grouped_walks_equal_separate_ones(cfgs):
    assert mc.mc_signals(cfgs) == [mc.mc_signal(c) for c in cfgs]
