"""Command-line front end.

Subcommands: construct, encode, decode, llr, session, simulate, sweep.
Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .construction import bhattacharyya_evolve, build_reliability_order, capacity_evolve, design_code
from .decoding import BpConfig, bp_decode
from .encoding import encode_systematic, storage_report
from .phy import LeakageModel, NoiseModel, llr_basic_many, llr_conventional_many, llr_leakage_many, synthesize_symbols
from .protocol import bits_to_hex, hex_to_bits, plan_session
from .simulate import (
    SNR_NOTE,
    SessionRecord,
    SimConfig,
    run_session,
    run_sweep,
    snr_to_power,
    summary_json,
    trial_rngs,
    write_outputs,
)

CONFIG_KEYS = {
    "n_fft": int, "sigma2": float, "k": int, "fb_loss": float,
    "trials": int, "seed": int, "metric": str, "workers": int,
}


class ConfigError(Exception):
    pass


def _parse_config(path: str) -> SimConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key] = value
    kwargs = {}
    try:
        for key, value in raw.items():
            if key in CONFIG_KEYS:
                dest = "master_seed" if key == "seed" else key
                kwargs[dest] = CONFIG_KEYS[key](value)
            elif key == "snr_db":
                kwargs["snr_db"] = tuple(float(v) for v in value.split(","))
            elif key == "leak":
                kwargs["leak"] = tuple(float(v) for v in value.split(","))
            elif key == "scheme":
                kwargs["schemes"] = tuple(s.strip() for s in value.split(","))
            else:
                raise ConfigError(f"unknown config key {key!r}")
        return SimConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_construct(args) -> int:
    z = bhattacharyya_evolve(args.eps, args.n)
    order = build_reliability_order(z)
    caps = capacity_evolve(1.0 - args.eps, args.n) if args.emit_capacities else None
    if caps is not None:
        print("index,Z,capacity")
        for idx in order.order:
            print(f"{idx},{z[idx]:.12g},{caps[idx]:.12g}")
    else:
        print("index,Z")
        for idx in order.order:
            print(f"{idx},{z[idx]:.12g}")
    return 0


def _cmd_encode(args) -> int:
    spec = design_code(args.n, args.k, eps=args.eps)
    info = hex_to_bits(args.info, args.k)
    codeword = encode_systematic(info, spec)
    payload = {
        "codeword_hex": bits_to_hex(codeword),
        "n": spec.n,
        "k": spec.k,
    }
    if 3 <= args.n <= 12:  # storage model is defined for these lengths
        account = storage_report(args.n, args.k)
        payload["storage"] = {
            "conventional_bits": account.conventional_bits,
            "lowcost_bits": account.lowcost_bits,
            "ratio": account.ratio,
        }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_decode(args) -> int:
    try:
        spec_json = json.loads(Path(args.spec).read_text())
        llr_text = Path(args.llrs).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not isinstance(spec_json, dict):
        raise ValueError(f"spec must be a JSON object with n_log2 and k, "
                         f"got a JSON {type(spec_json).__name__}")
    missing = [key for key in ("n_log2", "k") if key not in spec_json]
    if missing:
        raise ValueError(f"spec is missing {' and '.join(missing)}")
    eps = spec_json.get("eps", 0.5)
    if type(eps) not in (int, float):
        raise ValueError(f"spec eps must be a number, got {json.dumps(eps)}")
    spec = design_code(spec_json["n_log2"], spec_json["k"], eps=float(eps))
    llrs = np.array([float(v) for v in llr_text.replace(",", "\n").split()])
    result = bp_decode(llrs, spec, BpConfig(max_iters=args.iters, update_rule=args.rule))
    print(json.dumps({
        "info_hex": bits_to_hex(result.info_bits),
        "fber": result.fber,
        "iterations": result.iterations_used,
        "stop_reason": result.stop_reason,
        "converged": result.converged,
    }, sort_keys=True))
    return 0


def _cmd_llr(args) -> int:
    for flag, value in (("--samples", args.samples), ("--seed", args.seed)):
        if value < 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    leak = LeakageModel(tuple(float(v) for v in args.leak.split(",")))
    power = snr_to_power(args.snr, args.sigma2)
    noise = NoiseModel(sigma2=args.sigma2, signal_power=power)
    p_hat = power
    if args.baseline is not None:
        key, sep, value = args.baseline.partition("=")
        if (key, sep) != ("phat", "="):
            raise ValueError(f"--baseline must be phat=<v>, got {args.baseline!r}")
        p_hat = float(value)  # llr_conventional_many rules on its range
    rng = np.random.default_rng(args.seed)
    bits = rng.integers(0, 2, size=args.samples)
    peaks = rng.integers(0, args.nfft, size=args.samples)
    bins = synthesize_symbols(bits, peaks, noise, leak, args.nfft, rng)
    lb = llr_basic_many(bins, peaks, args.sigma2)
    ll = llr_leakage_many(bins, peaks, args.sigma2)
    lc = llr_conventional_many(bins, peaks, args.sigma2, p_hat)
    print(f"# {SNR_NOTE}")
    print("true_bit,L_basic,L_leak,L_conv")
    for i in range(args.samples):
        print(f"{bits[i]},{lb[i]:.8g},{ll[i]:.8g},{lc[i]:.8g}")
    return 0


def _cmd_session(args) -> int:
    cfg = SimConfig(k=args.k, fb_loss=args.fb_loss, snr_db=(args.snr,),
                    master_seed=args.seed)
    plan = plan_session(cfg.k)
    record = SessionRecord(k=cfg.k, n_mother=plan.n_mother,
                           stage1_budget=plan.stage1_budget, snr_db=args.snr)
    rngs = trial_rngs(args.seed, 0, 0)
    run_session(cfg, args.snr, rngs, record=record)
    print(record.to_json(indent=2))
    return 0


def _run_config(args, write: bool) -> int:
    try:
        cfg = _parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    metrics, trials = run_sweep(cfg)
    if write:
        try:
            write_outputs(cfg, metrics, trials, args.out)
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 3
        return 0
    print(summary_json(cfg, metrics))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="polarlink")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a reliability order as CSV")
    p.add_argument("--eps", type=float, required=True, help="design erasure probability")
    p.add_argument("--n", type=int, required=True, help="log2 of the code length")
    p.add_argument("--emit-capacities", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("encode", help="systematic encode, hex in/out")
    p.add_argument("--n", type=int, required=True, help="log2 of the code length")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--info", type=str, required=True, help="info bits as hex")
    p.add_argument("--eps", type=float, default=0.5)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="BP-decode channel LLRs")
    p.add_argument("--spec", type=str, required=True, help="JSON file with n_log2, k, eps")
    p.add_argument("--llrs", type=str, required=True, help="CSV/whitespace LLR file")
    p.add_argument("--iters", type=int, default=60)
    p.add_argument("--rule", choices=("exact", "minsum"), default="exact")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("llr", help="sample per-symbol LLRs as CSV")
    p.add_argument("--nfft", type=int, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--snr", type=float, required=True, help="SNR in dB fixing the peak power")
    p.add_argument("--leak", type=str, default="0.25,0.5,0.25")
    p.add_argument("--baseline", type=str, default=None, metavar="phat=<v>")
    p.set_defaults(func=_cmd_llr)

    p = sub.add_parser("session", help="run one adaptive session, print its JSON trace")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--fb-loss", type=float, default=0.0)
    p.set_defaults(func=_cmd_session)

    p = sub.add_parser("simulate", help="run a sweep config, print summary JSON")
    p.add_argument("--config", type=str, required=True)
    p.set_defaults(func=lambda a: _run_config(a, write=False))

    p = sub.add_parser("sweep", help="run a sweep config, write CSV/JSONL outputs")
    p.add_argument("--config", type=str, required=True)
    p.add_argument("--out", type=str, required=True)
    p.set_defaults(func=lambda a: _run_config(a, write=True))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
