"""Tour of the clustered-multipath channel model.

Walks one link through the full pipeline: continuous impulse response,
tap discretization at the system sample rate, distance pathloss, and the
per-block frequency response.  Prints the invariants the rest of the
package relies on (unit ensemble energy, Parseval).
"""

import numpy as np

import uwbrelay as u

rng = np.random.default_rng(2026)
sv = u.SVParameters()
pl = u.PathlossParameters()

print("=== continuous impulse response ===")
impulse = u.sample_impulse_response(sv, rng)
print(f"paths: {impulse.delays.size}")
print(f"delay span: {impulse.delays.max():.1f} ns (cap {sv.max_delay:.0f} ns)")
print(f"energy (normalized per draw): {impulse.energy:.12f}")

print("\n=== tap discretization (500 MHz -> 2 ns samples) ===")
taps = u.discretize_taps(impulse, sample_period=2.0, max_taps=1024)
print(f"taps: {taps.taps.size}, energy after in-bin interference: {taps.energy:.4f}")

print("\n=== distance pathloss ===")
for d in (1.0, 2.0, 4.0):
    faded = u.apply_pathloss(taps, d, pl, np.random.default_rng(7))
    loss_db = -10 * np.log10(faded.energy / taps.energy)
    print(f"d = {d:.0f} m -> loss {loss_db:6.2f} dB (median part "
          f"{pl.ref_loss_db + 10 * pl.exponent * np.log10(d / pl.ref_distance):6.2f} dB)")

print("\n=== frequency response and Parseval ===")
gains = u.dft_response(taps, block_size=1024)
tone_energy = np.mean(np.abs(gains) ** 2)
print(f"(1/K) sum |G_i|^2 = {tone_energy:.12f}")
print(f"sum |g_k|^2       = {taps.energy:.12f}")
print(f"difference        = {abs(tone_energy - taps.energy):.3e}")

print("\n=== ensemble energy (1000 draws) ===")
energies = []
for i in range(1000):
    d = u.sample_impulse_response(sv, np.random.default_rng((99, i)))
    energies.append(u.discretize_taps(d, 2.0, 1024).energy)
print(f"mean tap energy: {np.mean(energies):.4f} (contract: 1 +/- 0.02)")
