import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from support import one_array_avg_rate
from vrpl import (
    ChannelConfig,
    ResourceConfig,
    TileSpec,
    capability,
    capability_from_radius,
    mc_avg_rate,
    sfov_radius,
)
from vrpl.resources import MC_BLOCK_SAMPLES


def _worked_config(cc_duration: float) -> tuple[ResourceConfig, TileSpec]:
    tile = TileSpec(px_w=64, px_h=64, bits_per_pixel=12, compression_ratio=16.0)
    cfg = ResourceConfig(
        compute_flops=1e12,
        users=4,
        flops_per_bit=100.0,
        avg_data_rate=4e8,
        cc_duration=cc_duration,
        frames_per_segment=30,
        tiles_per_frame=200,
    )
    return cfg, tile


def _full_sphere_time() -> float:
    # Re-derived by hand: 3072 transmit bits and 49152 compute bits per
    # tile, 6000 tiles, 4e8 bit/s link and 2.5e9 bit/s render throughput.
    per_tile = 3072 / 4e8 + 49152 / 2.5e9
    return 30 * 200 * per_tile


def test_tile_spec():
    tile = TileSpec(px_w=64, px_h=64, bits_per_pixel=12, compression_ratio=16.0)
    assert tile.compute_bits == 49152
    assert tile.transmit_bits == 3072.0
    with pytest.raises(ValueError):
        TileSpec(px_w=0, px_h=64, bits_per_pixel=12, compression_ratio=16.0)
    with pytest.raises(ValueError):
        TileSpec(px_w=64.0, px_h=64, bits_per_pixel=12, compression_ratio=16.0)
    with pytest.raises(ValueError):
        TileSpec(px_w=64, px_h=64, bits_per_pixel=12, compression_ratio=0.5)
    # float() would take a string, so a record field must be a number
    with pytest.raises(ValueError, match="^compression_ratio '16' is not a number$"):
        TileSpec(px_w=64, px_h=64, bits_per_pixel=12, compression_ratio="16")


def test_resource_config_validation():
    with pytest.raises(ValueError):
        _worked_config(-1.0)
    cfg, _ = _worked_config(1.0)
    assert cfg.compute_rate == 2.5e9
    with pytest.raises(ValueError):
        ResourceConfig(
            compute_flops=0.0,
            users=4,
            flops_per_bit=100.0,
            avg_data_rate=4e8,
            cc_duration=1.0,
            frames_per_segment=30,
            tiles_per_frame=200,
        )
    # 1e10 / 1e-320 rounds to inf, so the render time of a tile would be 0
    with pytest.raises(ValueError, match="rounds to inf$"):
        ResourceConfig(
            compute_flops=1e10,
            users=1,
            flops_per_bit=1e-320,
            avg_data_rate=1e300,
            cc_duration=1.0,
            frames_per_segment=30,
            tiles_per_frame=200,
        )


def test_capability_half_budget():
    cfg, tile = _worked_config(_full_sphere_time() / 2.0)
    c = capability(cfg, tile)
    assert c == pytest.approx(0.5, abs=1e-12)
    assert float(sfov_radius(c)) == pytest.approx(math.pi / 2, abs=1e-12)


def test_capability_clamped():
    cfg, tile = _worked_config(2.0 * _full_sphere_time())
    c = capability(cfg, tile)
    assert c == 1.0
    assert float(sfov_radius(c)) == pytest.approx(math.pi, abs=1e-12)


def test_capability_zero_budget():
    cfg, tile = _worked_config(0.0)
    c = capability(cfg, tile)
    assert c == 0.0
    assert float(sfov_radius(c)) == 0.0


def test_capability_monotone():
    full = _full_sphere_time()
    caps = [capability(*_worked_config(t)) for t in np.linspace(0.0, full, 40)]
    assert all(x <= y for x, y in zip(caps, caps[1:]))
    assert caps[-1] == pytest.approx(1.0, abs=1e-12)


def test_radius_round_trip():
    for r in np.linspace(0.05, math.pi, 60):
        c = capability_from_radius(r)
        assert 0.0 <= c <= 1.0
        assert float(sfov_radius(c)) == pytest.approx(float(r), abs=1e-12)
    for c in np.linspace(0.0, 1.0, 60):
        r = sfov_radius(float(c))
        assert capability_from_radius(r) == pytest.approx(float(c), abs=1e-12)


def test_sfov_radius_endpoints_and_validation():
    assert float(sfov_radius(0.0)) == 0.0
    assert float(sfov_radius(1.0)) == pytest.approx(math.pi, abs=1e-12)
    with pytest.raises(ValueError):
        sfov_radius(-0.1)
    with pytest.raises(ValueError):
        sfov_radius(1.1)


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelConfig(
            bandwidth=1e7,
            tx_power=1.0,
            distance=10.0,
            pathloss_exp=3.0,
            noise_power=1e-9,
            antennas=4,
            users=5,
        )


def _channel(bandwidth: float, antennas: int, users: int) -> ChannelConfig:
    return ChannelConfig(
        bandwidth=bandwidth,
        tx_power=4.0,
        distance=1.0,
        pathloss_exp=2.0,
        noise_power=1.0,
        antennas=antennas,
        users=users,
    )


def test_avg_rate_zero_power():
    ch = ChannelConfig(
        bandwidth=1e7,
        tx_power=0.0,
        distance=10.0,
        pathloss_exp=3.0,
        noise_power=1e-9,
        antennas=4,
        users=2,
    )
    assert mc_avg_rate(ch, n=1000, seed=0) == 0.0


def test_avg_rate_bandwidth_scaling_exact():
    r1 = mc_avg_rate(_channel(1e7, 4, 2), n=50_000, seed=9)
    r2 = mc_avg_rate(_channel(2e7, 4, 2), n=50_000, seed=9)
    assert r2 == 2.0 * r1


def test_avg_rate_matches_quadrature():
    # With a single antenna and user, the effective gain is Exp(1); the
    # ensemble-average rate has a one-dimensional integral form.
    ch = _channel(1.0, 1, 1)
    snr = ch.tx_power * ch.distance ** (-ch.pathloss_exp) / ch.noise_power

    def rate(x: float) -> float:
        return math.log2(1.0 + snr * x) * math.exp(-x)

    mean, _ = integrate.quad(rate, 0.0, np.inf)
    second, _ = integrate.quad(
        lambda x: math.log2(1.0 + snr * x) ** 2 * math.exp(-x), 0.0, np.inf
    )
    n = 200_000
    se = math.sqrt((second - mean * mean) / n)
    got = mc_avg_rate(ch, n=n, seed=42)
    assert abs(got - mean) <= 4.0 * se


def test_avg_rate_deterministic():
    ch = _channel(1e7, 8, 3)
    assert mc_avg_rate(ch, n=10_000, seed=1) == mc_avg_rate(ch, n=10_000, seed=1)
    assert mc_avg_rate(ch, n=10_000, seed=1) != mc_avg_rate(ch, n=10_000, seed=2)


#: Channels whose gain has shape 1, 2 and 5 (antennas - users + 1).
_SHAPES = [(1, 1), (4, 3), (8, 4)]


@pytest.mark.parametrize("antennas, users", _SHAPES)
@pytest.mark.parametrize("n", [1, 1_000, 200_000])
def test_avg_rate_in_one_block_is_the_one_array_estimate(monkeypatch, antennas, users, n):
    monkeypatch.setattr("vrpl.resources.MC_BLOCK_SAMPLES", max(n, MC_BLOCK_SAMPLES))
    ch = _channel(1e7, antennas, users)
    assert mc_avg_rate(ch, n, seed=3) == one_array_avg_rate(ch, n, seed=3)


@pytest.mark.parametrize("antennas, users", _SHAPES)
@pytest.mark.parametrize(
    "n",
    [MC_BLOCK_SAMPLES - 1, MC_BLOCK_SAMPLES, MC_BLOCK_SAMPLES + 1, 3 * MC_BLOCK_SAMPLES + 5, 200_000],
)
def test_avg_rate_in_blocks_matches_the_one_array_estimate(antennas, users, n):
    # the blocks draw the samples of one call; only the order of the sum differs
    ch = _channel(1e7, antennas, users)
    got, want = mc_avg_rate(ch, n, seed=5), one_array_avg_rate(ch, n, seed=5)
    assert abs(got - want) <= 1e-13 * want, (got, want)


def test_avg_rate_is_not_finite_when_one_block_overflows():
    # With snr 0.25 and shape 1, bandwidth * log2(1 + snr g) overflows for a
    # gain above about 10: a few of 200,000 samples, in some blocks only.
    ch = ChannelConfig(1e308, 0.25, 1.0, 0.0, 1.0, 1, 1)
    gain = np.random.default_rng(0).gamma(1.0, 1.0, 200_000)
    with np.errstate(over="ignore"):
        over = np.isinf(ch.bandwidth * np.log2(1.0 + 0.25 * gain))
    blocks = [over[i:i + MC_BLOCK_SAMPLES].any() for i in range(0, over.size, MC_BLOCK_SAMPLES)]
    assert any(blocks) and not all(blocks), blocks
    assert not math.isfinite(one_array_avg_rate(ch, 200_000, seed=0))
    with pytest.raises(ValueError, match="^average rate inf bit/s is not finite$"):
        mc_avg_rate(ch, 200_000, seed=0)


def test_avg_rate_peak_memory():
    # tracemalloc's peak over a warm estimate from 200,000 samples: 257 KiB
    # in blocks, against 1,564 KiB with every sample in one array.
    ch = _channel(1e7, 8, 4)
    mc_avg_rate(ch, 200_000, seed=1)
    tracemalloc.start()
    try:
        mc_avg_rate(ch, 200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 400 * 1024, peak / 1024
