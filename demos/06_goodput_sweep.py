"""Rate adaptation versus a Hamming(7,4) baseline on shared channels."""

import numpy as np

from polarlink.simulate import SimConfig, goodput, run_point

N_FFT = 128
GAIN = 10.0 * np.log10(N_FFT)  # despreading gain: post-FFT = pre + 21.07 dB

pres = list(range(-20, -6, 2))
posts = tuple(round(p + GAIN, 4) for p in pres)
cfg = SimConfig(snr_db=posts, trials=60, k=96, master_seed=99,
                schemes=("sozu", "hamming74"))

print("Goodput (info bits per coded bit) on identical per-trial channels")
print(f"  {'pre dB':>7} {'post dB':>8} | {'adaptive':>9} {'PRR':>5} | {'hamming':>8} {'PRR':>5}")
for point, pre in enumerate(pres):
    adaptive = run_point(cfg, "sozu", point)
    baseline = run_point(cfg, "hamming74", point)
    print(f"  {pre:>7} {posts[point]:>8.2f} | {goodput(adaptive):>9.3f} "
          f"{np.mean([r.success for r in adaptive]):>5.2f} | "
          f"{goodput(baseline):>8.3f} {np.mean([r.success for r in baseline]):>5.2f}")

print("\nThe same sweep is available from the command line:")
print("  polarlink sweep --config sweep.cfg --out results/")
print("with a config like:")
print("  snr_db = " + ",".join(str(p) for p in posts))
print("  k = 96\n  trials = 60\n  seed = 99\n  scheme = sozu,hamming74")
