"""Server resource model: how communication and computing budgets bound the
radius of the streamed field of view.

A streaming server must deliver, within the configured duration, every tile
of every frame of the upcoming segment.  The fraction of the full panoramic
sphere it can cover is the capability ``C``; the streamed cap radius follows
from inverting the cap-area ratio, ``r_sv = arccos(1 - 2*C)``.
"""

from __future__ import annotations

import math

import numpy as np

from .sphere import AT_LEAST_1, CAP_RADIUS, COUNT, NON_NEGATIVE, POSITIVE, PROBABILITY, SEED, Record

#: The fraction of the sphere a server can stream in time.
_CAPABILITY = PROBABILITY._replace(name="capability")


class TileSpec(Record):
    """Pixel geometry and coding parameters of one tile.

    Tile sizes are kept as exact integers until ratios are formed, so the
    communication/computing loads are reproducible bit counts.
    """

    px_w: int
    px_h: int
    bits_per_pixel: int
    compression_ratio: float

    def __post_init__(self) -> None:
        COUNT.check_fields(self, "px_w", "px_h", "bits_per_pixel")
        AT_LEAST_1.check_fields(self, "compression_ratio")

    @property
    def compute_bits(self) -> int:
        """Bits to render per tile (uncompressed)."""
        return self.px_w * self.px_h * self.bits_per_pixel

    @property
    def transmit_bits(self) -> float:
        """Bits to transmit per tile (after compression)."""
        return self.compute_bits / self.compression_ratio


class ResourceConfig(Record):
    """Per-user share of the server budget and the streaming workload.

    ``cc_duration`` is the time available for computing and communicating
    one segment; it may be zero (no budget, capability zero).  All rates
    are strictly positive, the derived `compute_rate` included, and finite:
    a rate that rounds to inf would make a tile cost nothing.
    """

    compute_flops: float
    users: int
    flops_per_bit: float
    avg_data_rate: float
    cc_duration: float
    frames_per_segment: int
    tiles_per_frame: int

    def __post_init__(self) -> None:
        POSITIVE.check_fields(self, "compute_flops", "flops_per_bit", "avg_data_rate")
        COUNT.check_fields(self, "users", "frames_per_segment", "tiles_per_frame")
        NON_NEGATIVE.check_fields(self, "cc_duration")
        if not 0.0 < self.compute_rate < math.inf:
            raise ValueError(f"compute_flops / (users * flops_per_bit) rounds to {self.compute_rate!r}")

    @property
    def compute_rate(self) -> float:
        """Per-user rendering throughput in bit/s."""
        return self.compute_flops / (self.users * self.flops_per_bit)


def capability(cfg: ResourceConfig, tile: TileSpec) -> float:
    """Fraction of the panoramic sphere the server can stream in time.

    The per-tile cost is transmit time plus render time; the capability is
    the ratio of the available duration to the cost of the full sphere's
    ``frames_per_segment * tiles_per_frame`` tiles, clamped to 1.

    Returns:
        Capability in [0, 1]; 1 means the whole sphere fits in the budget.
    """
    per_tile = tile.transmit_bits / cfg.avg_data_rate + tile.compute_bits / cfg.compute_rate
    full_sphere = cfg.frames_per_segment * cfg.tiles_per_frame * per_tile
    return min(cfg.cc_duration / full_sphere, 1.0)


def sfov_radius(c: float) -> float:
    """Streamed-cap radius for capability ``c``: arccos(1 - 2*c).

    Capability 0 gives radius 0 (nothing streamed); capability 1 gives
    radius pi (the complete panoramic sphere is streamed).
    """
    return math.acos(1.0 - 2.0 * _CAPABILITY.check(c))


def capability_from_radius(r: float) -> float:
    """Inverse of `sfov_radius`: the cap-area fraction (1 - cos r) / 2."""
    return (1.0 - math.cos(CAP_RADIUS.check(r))) / 2.0


class ChannelConfig(Record):
    """Downlink described by a zero-forcing multi-antenna model.

    With ``antennas`` transmit antennas serving ``users`` single-antenna
    receivers under zero-forcing precoding, the per-user effective channel
    gain is Gamma-distributed with shape ``antennas - users + 1`` and unit
    scale (equivalently chi-squared with 2*(antennas - users + 1) degrees
    of freedom at scale 1/2).
    """

    bandwidth: float
    tx_power: float
    distance: float
    pathloss_exp: float
    noise_power: float
    antennas: int
    users: int

    def __post_init__(self) -> None:
        POSITIVE.check_fields(self, "bandwidth", "distance", "noise_power")
        NON_NEGATIVE.check_fields(self, "tx_power", "pathloss_exp")
        COUNT.check_fields(self, "antennas", "users")
        if self.users > self.antennas:
            raise ValueError(
                f"users ({self.users}) cannot exceed antennas ({self.antennas}) "
                "under zero-forcing"
            )


#: Samples `mc_avg_rate` draws and reduces at a time.
MC_BLOCK_SAMPLES = 2**14


def mc_avg_rate(ch: ChannelConfig, n: int, seed: int) -> float:
    """Monte-Carlo estimate of the ensemble-average downlink rate, bit/s.

    Samples the zero-forcing effective gain and averages
    ``bandwidth * log2(1 + snr * gain)`` where
    ``snr = tx_power * distance**(-pathloss_exp) / noise_power``.
    Deterministic per seed.  This estimates the ensemble average; the
    capability model consumes it directly as the average data rate.
    The samples are drawn and summed `MC_BLOCK_SAMPLES` at a time, one
    ``gamma`` call per block, so the draws are those of one call of size
    ``n`` and the estimate holds one block of samples whatever ``n``.
    Raises ``ValueError`` unless ``n`` is an integer in [1, 2**53],
    ``seed`` a non-negative integer and the average a finite float.
    """
    n, rng = COUNT.check(n), np.random.default_rng(SEED.check(seed))
    shape = ch.antennas - ch.users + 1
    total = 0.0
    # an overflow anywhere leaves a sum that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        snr = ch.tx_power * np.float64(ch.distance) ** -ch.pathloss_exp / ch.noise_power
        for start in range(0, n, MC_BLOCK_SAMPLES):
            rate = rng.gamma(shape=shape, scale=1.0, size=min(MC_BLOCK_SAMPLES, n - start))
            rate *= snr
            rate += 1.0
            np.log2(rate, out=rate)
            rate *= ch.bandwidth
            total += float(np.sum(rate))
    mean = total / n
    if not math.isfinite(mean):
        raise ValueError(f"average rate {mean!r} bit/s is not finite")
    return mean
