"""Shared construction helpers for the test suite."""

import functools

import numpy as np

from uwbrelay.rates import RelayChannelInstance


def make_instance(g_sd, g_sr, g_rd, n_dest=1.0, n_relay=1.0, noise_corr=None):
    """RelayChannelInstance with zero noise correlation by default."""
    g_sd = np.atleast_1d(np.asarray(g_sd, dtype=complex))
    if noise_corr is None:
        noise_corr = np.zeros(g_sd.size)
    return RelayChannelInstance(g_sd=g_sd, g_sr=g_sr, g_rd=g_rd,
                                n_dest=n_dest, n_relay=n_relay,
                                noise_corr=noise_corr)


@functools.cache
def model_draw_slices(rho=0.0):
    """One-tone slices of block-128 model draws: master seed 9, the default
    relay positions, 3 trials, every 16th tone, with the constant noise
    correlation rho.  A tuple of (instance, powers); the tones' sr/sd
    spans about 10^-1 to 10^6."""
    from uwbrelay.experiments import (ExperimentConfig, Geometry, build_instance,
                                      draw_fading, powers_from_config)

    config = ExperimentConfig(block_size=128, trials=3, master_seed=9)
    powers = powers_from_config(config)[0]
    slices = []
    for trial in range(config.trials):
        fading = draw_fading(config, trial)
        for d2 in config.d2_grid:
            draw = build_instance(config, Geometry(config.d1, d2), rho, trial,
                                  fading=fading)
            for k in range(0, config.block_size, 16):
                tone = slice(k, k + 1)
                slices.append((RelayChannelInstance(
                    g_sd=draw.g_sd[tone], g_sr=draw.g_sr[tone],
                    g_rd=draw.g_rd[tone], n_dest=draw.n_dest,
                    n_relay=draw.n_relay, noise_corr=draw.noise_corr[tone]),
                    powers))
    return tuple(slices)
