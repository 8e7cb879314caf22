"""Monte Carlo sweep of the relay position (small-scale rendition).

Moves the relay along the source-destination line and averages every
bound over seeded fading trials.  With the full 500-trial default this
reproduces the package's headline figures; here 40 trials keep the demo
under a minute.  Artifacts (CSV + SVG) land in demo_output/.
"""

import os
import sys

import uwbrelay as u
from uwbrelay.svgplot import sweep_chart

out_dir = sys.argv[1] if len(sys.argv) > 1 else "demo_output"
os.makedirs(out_dir, exist_ok=True)

config = u.ExperimentConfig(block_size=128, trials=40)
print(f"sweeping {len(config.d2_grid)} relay positions x {config.trials} trials "
      f"(block {config.block_size})...")

result = u.sweep_rho(config, progress=lambda i, n: print(f"  point {i}/{n}"))

print(f"\n{'d2 (m)':>8s} {'cutset r=0':>11s} {'cutset r=0.9':>13s} "
      f"{'pdf':>8s} {'df':>8s} {'direct':>8s}")
for i, d2 in enumerate(result.axis_values):
    print(f"{d2:8.2f} {result.means['cutset[rho=0]'][i]:11.3f} "
          f"{result.means['cutset[rho=0.9]'][i]:13.3f} "
          f"{result.means['pdf'][i]:8.3f} {result.means['df'][i]:8.3f} "
          f"{result.means['direct'][i]:8.3f}")

csv_path = os.path.join(out_dir, "relay_position_sweep.csv")
svg_path = os.path.join(out_dir, "relay_position_sweep.svg")
csv_text = result.write_csv()
with open(csv_path, "w") as fh:
    fh.write(csv_text)
with open(svg_path, "w") as fh:
    fh.write(sweep_chart(csv_text, title="Relay bounds vs relay position"))
print(f"\nwrote {csv_path} and {svg_path}")

gap = result.means["pdf"] - result.means["df"]
print(f"partial-decode gain over full decode: {gap[0]:.4f} bits near the source, "
      f"{gap[-1]:.4f} bits near the destination")
