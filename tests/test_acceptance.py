"""Acceptance suite: one test per release criterion, each at a pinned tolerance.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  Where a criterion depends on a Monte-Carlo operating point, the
point and its threshold were fixed by a pilot run before the suite was
frozen; seeds make every number below deterministic.

SNR conventions: the harness pins snr_db = 10*log10(P/(2*sigma2)), the
post-despreading peak SNR.  Link-level sweeps quoted in pre-despreading dB
convert through the processing gain 10*log10(n_fft) (+21.07 dB at 128 bins).
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from polarlink.construction import (
    bhattacharyya_evolve,
    build_reliability_order,
    capacity_evolve,
    design_code,
)
from polarlink.decoding import FROZEN_PRIOR_LLR, bp_decode, ml_decode_oracle
from polarlink.encoding import (
    encode_dense_oracle,
    encode_systematic,
    g_element,
    kronecker_generator,
    storage_report,
)
from polarlink.phy import NO_LEAKAGE, NoiseModel, llr_basic_many, llr_conventional_many, synthesize_symbols
from polarlink.protocol import RATE_TABLE, crc16, estimate_rate, header_decode, header_encode, PacketHeader
from polarlink.simulate import (
    SessionRecord,
    SimConfig,
    goodput,
    metrics_csv,
    replay_session,
    run_session,
    run_sweep,
    run_trial,
    trial_rngs,
    wilson_interval,
)

from gf2 import gf2_inverse, gf2_matmul
from test_protocol import crc16_longdivision_oracle

N_FFT = 128
DESPREAD_GAIN_DB = 10.0 * np.log10(N_FFT)


def pre_to_post(pre_db: float) -> float:
    return pre_db + DESPREAD_GAIN_DB


def report(num, ok, desc):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_polarization_conservation():
    t0 = time.monotonic()
    caps = capacity_evolve(0.6, 8)
    mean_ok = abs(caps.mean() - 0.6) < 1e-12

    # independent oracle: the same recursion in exact rational arithmetic
    exact = [Fraction(3, 5)]
    for _ in range(8):
        exact = [v for w in exact for v in (w * w, 2 * w - w * w)]
    lo, hi = Fraction(1, 100), Fraction(99, 100)
    exact_outside = sum(1 for v in exact if v < lo or v > hi)
    assert exact_outside == 163  # frozen from the pilot run

    outside = int(np.sum((caps < 0.01) | (caps > 0.99)))
    elapsed = time.monotonic() - t0
    ok = mean_ok and outside == exact_outside and outside / 256 >= 0.40 and elapsed < 1.0
    report(1, ok, f"mean 0.6 within 1e-12; {outside}/256 polarized (=163 exact, >=40%); {elapsed:.2f}s")


def test_criterion_02_generator_correctness():
    t0 = time.monotonic()
    cells_ok = True
    for n_log2 in range(1, 9):  # up to N=256
        g = kronecker_generator(n_log2)
        n = 1 << n_log2
        for r in range(n):
            row = g[r]
            for c in range(n):
                if g_element(r, c, n_log2) != row[c]:
                    cells_ok = False
    involution_ok = all(
        np.array_equal(
            gf2_matmul(kronecker_generator(nl), kronecker_generator(nl)),
            np.eye(1 << nl, dtype=np.int64),
        )
        for nl in range(1, 7)  # up to N=64
    )
    elapsed = time.monotonic() - t0
    ok = cells_ok and involution_ok and elapsed < 5.0
    report(2, ok, f"g elements match Kronecker oracle through N=256; G*G=I through N=64; {elapsed:.2f}s")


def test_criterion_03_systematic_encoder_equivalence():
    t0 = time.monotonic()
    ok = True
    for n_log2 in (3, 5, 7, 9, 10):
        n = 1 << n_log2
        k = n // 2
        spec = design_code(n_log2, k)
        g = kronecker_generator(n_log2)
        inv = gf2_inverse(g[np.ix_(spec.info_set, spec.info_set)])
        rng = np.random.default_rng(300 + n_log2)
        for _ in range(100):
            info = rng.integers(0, 2, k).astype(np.uint8)
            cw = encode_systematic(info, spec)
            if not np.array_equal(cw[spec.info_set], info):
                ok = False
            u = np.zeros(n, dtype=np.uint8)
            u[spec.info_set] = gf2_matmul(info, inv).astype(np.uint8)
            x = encode_dense_oracle(u, n_log2)
            if not np.array_equal(cw[spec.frozen_set], x[spec.frozen_set]):
                ok = False
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    report(3, ok, f"streaming parity == GF(2)-solve + dense-oracle parity, N in 8..1024 x100 blocks; {elapsed:.2f}s")


def test_criterion_04_nesting_and_published_table():
    specs = {k: design_code(5, k) for k in (4, 8, 16, 24)}
    nesting_ok = all(
        set(specs[a].info_set) < set(specs[b].info_set)
        for a, b in ((4, 8), (8, 16), (16, 24))
    )
    published_1based = [32, 31, 30, 28, 24, 16, 29, 27, 26, 23, 22, 15, 20, 14, 12, 25]
    published = {v - 1 for v in published_1based}
    ours = set(specs[16].info_set)
    missing = sorted(published - ours)
    extra = sorted(ours - published)
    # informational: the published table's construction parameters are unstated
    print(f"\n  table comparison (informational): overlap {len(ours & published)}/16, "
          f"missing {missing}, extra {extra}")
    report(4, nesting_ok, "info sets strictly prefix-nested for K in {4,8,16,24} at N=32")


def test_criterion_05_bp_vs_ml_oracle():
    spec = design_code(3, 4)
    # pilot-fixed operating point: 0 dB AWGN-equivalent LLRs, seed 12345
    rng = np.random.default_rng(12345)
    g = 1.0
    agree = 0
    for _ in range(500):
        info = rng.integers(0, 2, 4).astype(np.uint8)
        signs = 1.0 - 2.0 * encode_systematic(info, spec).astype(np.float64)
        llr = 4.0 * g * signs + np.sqrt(8.0 * g) * rng.standard_normal(8)
        agree += np.array_equal(bp_decode(llr, spec).info_bits,
                                ml_decode_oracle(llr, spec))
    noiseless_ok = True
    for _ in range(20):
        info = rng.integers(0, 2, 4).astype(np.uint8)
        llr = FROZEN_PRIOR_LLR * (1.0 - 2.0 * encode_systematic(info, spec).astype(np.float64))
        noiseless_ok &= np.array_equal(bp_decode(llr, spec).info_bits, info)
    ok = agree / 500 >= 0.95 and noiseless_ok
    report(5, ok, f"BP-ML agreement {agree / 500:.3f} >= 0.95 at 0 dB x500 trials; noiseless exact")


def test_criterion_06_llr_combining_reduces_ber():
    t0 = time.monotonic()
    rng = np.random.default_rng(2026)
    rows = []
    for pre in range(-22, -8, 2):
        power = 2.0 * N_FFT * 10.0 ** (pre / 10.0)  # = snr_to_power(pre_to_post(pre))
        noise = NoiseModel(sigma2=1.0, signal_power=power)
        m = 10_000
        bits = rng.integers(0, 2, m)
        peaks = rng.integers(0, N_FFT, m)
        b1 = synthesize_symbols(bits, peaks, noise, NO_LEAKAGE, N_FFT, rng)
        b2 = synthesize_symbols(bits, peaks, noise, NO_LEAKAGE, N_FFT, rng)
        l1 = llr_basic_many(b1, peaks, 1.0)
        l12 = l1 + llr_basic_many(b2, peaks, 1.0)
        e1 = int(((l1 < 0).astype(int) != bits).sum())
        e12 = int(((l12 < 0).astype(int) != bits).sum())
        rows.append((pre, e1, e12, m))
    never_worse = True
    strict_mid = 0
    for i, (pre, e1, e12, m) in enumerate(rows):
        w1, w12 = wilson_interval(e1, m), wilson_interval(e12, m)
        if e12 > e1 and w12[0] > w1[1]:  # significantly worse
            never_worse = False
        if 0 < i < len(rows) - 1 and e12 < e1:
            strict_mid += 1
    elapsed = time.monotonic() - t0
    ok = never_worse and strict_mid >= 3 and elapsed < 120.0
    detail = ", ".join(f"{pre}dB:{e1}->{e12}" for pre, e1, e12, _ in rows)
    report(6, ok, f"two-frame combining never significantly worse, strictly lower at "
                  f"{strict_mid} mid points ({detail}); {elapsed:.1f}s")


def test_criterion_07_fber_rate_table():
    expected = {0.2: Fraction(2, 3), 0.4: Fraction(1, 2),
                0.6: Fraction(1, 4), 0.8: Fraction(1, 8)}
    ok = all(estimate_rate(f) == r for f, r in expected.items())
    report(7, ok, "FBER 0.2/0.4/0.6/0.8 -> rates 2/3, 1/2, 1/4, 1/8 exactly")


def test_criterion_08_adaptive_vs_hamming_baseline():
    # pilot-fixed: pre-despread grid -24..-8 dB step 2, seed 20260810,
    # 150 shared-seed trials per point; witness point pre = -14 dB
    pres = list(range(-24, -6, 2))
    posts = tuple(round(pre_to_post(p), 4) for p in pres)
    cfg = SimConfig(snr_db=posts, trials=150, k=96, master_seed=20260810,
                    schemes=("sozu", "hamming74"))
    lines = []
    every_point_ok = True
    witness_ok = False
    for point, pre in enumerate(pres):
        adaptive = [run_trial(cfg, "sozu", point, t) for t in range(cfg.trials)]
        baseline = [run_trial(cfg, "hamming74", point, t) for t in range(cfg.trials)]
        ga, gb = goodput(adaptive), goodput(baseline)
        prr_b = np.mean([r.success for r in baseline])
        if ga < gb:
            every_point_ok = False
        if pre == -14:
            witness_ok = 0.01 < prr_b < 0.5 and ga >= 2.0 * gb
        lines.append(f"{pre}dB:{ga:.3f}/{gb:.3f}")
    ok = every_point_ok and witness_ok
    report(8, ok, "adaptive goodput >= Hamming(7,4) at every sweep point and >=2x at the "
                  f"witness (pre -14 dB, baseline PRR in (0.01,0.5)); {' '.join(lines)}")


def test_criterion_09_llr_estimator_robustness():
    import inspect

    from polarlink.phy import llr_basic, llr_leakage

    no_power_args = (
        "p_hat" not in inspect.signature(llr_basic).parameters
        and "p_hat" not in inspect.signature(llr_leakage).parameters
        and "signal_power" not in inspect.signature(llr_basic).parameters
    )
    # pilot-fixed: 10^4 symbols at -20 dB, p_hat mismatched by -6 dB, seed 99;
    # observed KS 0.236, threshold pinned at 0.1
    rng = np.random.default_rng(99)
    noise = NoiseModel(sigma2=1.0, signal_power=2.0 * 10.0 ** (-20.0 / 10.0))
    bits = rng.integers(0, 2, 10_000)
    peaks = rng.integers(0, N_FFT, 10_000)
    bins = synthesize_symbols(bits, peaks, noise, NO_LEAKAGE, N_FFT, rng)
    p = noise.signal_power
    conv_true = llr_conventional_many(bins, peaks, 1.0, p)
    conv_mis = llr_conventional_many(bins, peaks, 1.0, p / 10.0 ** 0.6)
    from scipy.stats import ks_2samp

    ks = ks_2samp(conv_true, conv_mis).statistic
    proposed_unchanged = np.array_equal(
        llr_basic_many(bins, peaks, 1.0), llr_basic_many(bins, peaks, 1.0)
    )
    ok = no_power_args and ks > 0.1 and proposed_unchanged
    report(9, ok, f"proposed metrics have no power argument; conventional KS shift {ks:.3f} > 0.1 "
                  "under -6 dB power mismatch at -20 dB")


def test_criterion_10_storage_accounting():
    account = storage_report(10, 512)
    ratio_1024_ok = account.ratio >= 30.0
    ratios = [storage_report(nl, (1 << nl) // 2).ratio for nl in range(3, 13)]
    monotone_ok = all(a < b for a, b in zip(ratios, ratios[1:]))
    ok = ratio_1024_ok and monotone_ok
    report(10, ok, f"low-cost encoder {account.ratio:.1f}x smaller at N=1024 (>=30x); "
                   "ratio monotone in N at rate 1/2")


def test_criterion_11_protocol_determinism():
    # session replay: gateway decisions reproduce byte-for-byte
    replay_ok = True
    for snr, seed in ((12.0, 21), (8.0, 22), (5.0, 23)):
        cfg = SimConfig(snr_db=(snr,), trials=1, k=96, master_seed=seed)
        from polarlink.protocol import plan_session

        plan = plan_session(cfg.k)
        record = SessionRecord(k=cfg.k, n_mother=plan.n_mother,
                               stage1_budget=plan.stage1_budget, snr_db=snr)
        run_session(cfg, snr, trial_rngs(seed, 0, 0), record=record)
        replayed = replay_session(json.loads(record.to_json()), k=cfg.k)
        if json.dumps(replayed, sort_keys=True) != json.dumps(record.decisions, sort_keys=True):
            replay_ok = False

    header_ok = all(
        header_decode(header_encode(PacketHeader((v >> 5) & 3, (v >> 1) & 0xF, v & 1)))
        == PacketHeader((v >> 5) & 3, (v >> 1) & 0xF, v & 1)
        for v in range(1 << 7)
    )
    check_bits = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
    crc_ok = crc16(check_bits) == 0x29B1 == crc16_longdivision_oracle(check_bits)
    ok = replay_ok and header_ok and crc_ok
    report(11, ok, "session traces replay byte-identically; 2^7 header round-trip; CRC check value 0x29B1")


def test_criterion_12_sweep_reproducibility(tmp_path):
    cfg_kwargs = dict(snr_db=(6.0, 9.0), trials=5, k=16, master_seed=77,
                      schemes=("sozu", "hamming74"))
    from polarlink.simulate import write_outputs

    paths = []
    for i, workers in enumerate((1, 1, 2)):
        cfg = SimConfig(workers=workers, **cfg_kwargs)
        metrics, trials = run_sweep(cfg)
        out = tmp_path / f"run{i}"
        write_outputs(cfg, metrics, trials, out)
        paths.append(out / "metrics.csv")
    b0, b1, b2 = (p.read_bytes() for p in paths)
    ok = b0 == b1 == b2
    report(12, ok, "metrics.csv byte-identical across two runs and across worker counts")
