"""Command-line interface: subcommands, config parsing, exit codes."""

import json

import numpy as np
import pytest

from polarlink.cli import main
from polarlink.simulate import replay_session


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_order_csv(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--eps", "0.5", "--n", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,Z"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["3", "2", "1", "0"]

    def test_with_capacities(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "--eps", "0.4", "--n", "3",
                               "--emit-capacities")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "index,Z,capacity"
        idx, z, cap = lines[1].split(",")
        assert float(z) == pytest.approx(1.0 - float(cap), abs=1e-9)

    def test_bad_eps_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "--eps", "1.5", "--n", "3")
        assert code == 2
        assert "config error" in err


class TestEncode:
    def test_known_small_code(self, capsys):
        # N=4, K=2, info bits [0,1] -> codeword 0101 -> hex "5"
        code, out, _ = run_cli(capsys, "encode", "--n", "2", "--k", "2",
                               "--info", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["codeword_hex"] == "5"
        assert "storage" not in payload  # the model starts at N=8

    def test_storage_section(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "--n", "3", "--k", "4",
                               "--info", "a")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 8
        assert payload["storage"]["conventional_bits"] == 64
        assert payload["storage"]["lowcost_bits"] == 24 + 8


class TestDecode:
    def test_roundtrip_via_files(self, tmp_path, capsys):
        from polarlink.construction import design_code
        from polarlink.encoding import encode_systematic
        from polarlink.protocol import bits_to_hex

        spec = design_code(4, 8)
        rng = np.random.default_rng(50)
        info = rng.integers(0, 2, 8).astype(np.uint8)
        llrs = 12.0 * (1.0 - 2.0 * encode_systematic(info, spec))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"n_log2": 4, "k": 8}))
        llr_file = tmp_path / "llrs.csv"
        llr_file.write_text(",".join(f"{v}" for v in llrs))
        code, out, _ = run_cli(capsys, "decode", "--spec", str(spec_file),
                               "--llrs", str(llr_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["info_hex"] == bits_to_hex(info)
        assert payload["fber"] == 0.0
        assert payload["converged"] is True
        assert payload["stop_reason"] == "frozen"

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "decode", "--spec", str(tmp_path / "nope.json"),
                               "--llrs", str(tmp_path / "nope.csv"))
        assert code == 3

    @pytest.mark.parametrize("spec, names", [({"n_log2": 4}, "k"), ({"k": 8}, "n_log2"),
                                             ({}, "n_log2 and k"), ([4, 8], "JSON list")])
    def test_malformed_spec_is_config_error(self, capsys, tmp_path, spec, names):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        llr_file = tmp_path / "llrs.csv"
        llr_file.write_text(",".join(["1.0"] * 16))
        code, out, err = run_cli(capsys, "decode", "--spec", str(spec_file),
                                 "--llrs", str(llr_file))
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and names in err

    @pytest.mark.parametrize("spec, names", [
        ({"n_log2": 4, "k": None}, "k must be an integer"),
        ({"n_log2": None, "k": 8}, "n_log2 must be an integer"),
        ({"n_log2": 4, "k": True}, "k must be an integer"),
        ({"n_log2": 4.0, "k": 8}, "n_log2 must be an integer"),
        ({"n_log2": 4, "k": 8.5}, "k must be an integer"),
        ({"n_log2": [4], "k": 8}, "n_log2 must be an integer"),
        ({"n_log2": 4, "k": {"v": 8}}, "k must be an integer"),
        ({"n_log2": 4, "k": "8"}, "k must be an integer"),
        ({"n_log2": 4, "k": 8, "eps": None}, "eps must be a number"),
        ({"n_log2": 4, "k": 8, "eps": "0.5"}, "eps must be a number"),
        ({"n_log2": 4, "k": 8, "eps": False}, "eps must be a number"),
        ({"n_log2": 4, "k": 8, "eps": [0.5]}, "eps must be a number"),
    ])
    def test_non_integer_spec_field_is_config_error(self, capsys, tmp_path, spec, names):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        llr_file = tmp_path / "llrs.csv"
        llr_file.write_text(",".join(["1.0"] * 16))
        code, out, err = run_cli(capsys, "decode", "--spec", str(spec_file),
                                 "--llrs", str(llr_file))
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and names in err

    @pytest.mark.parametrize("eps", [0.5, 1, 0.25])
    def test_numeric_eps_accepted(self, capsys, tmp_path, eps):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"n_log2": 4, "k": 8, "eps": eps}))
        llr_file = tmp_path / "llrs.csv"
        llr_file.write_text(",".join(["1.0"] * 16))
        code, out, _ = run_cli(capsys, "decode", "--spec", str(spec_file), "--llrs", str(llr_file))
        assert code == 0 and json.loads(out)["iterations"] >= 1

    @pytest.mark.parametrize("spec, llrs, stop", [
        # silent: every left[0] message is +0, which the frozen check would
        # pass with no evidence; it runs to the fixed point of iteration 2
        ({"n_log2": 4, "k": 8}, ["0"] * 16, (2, "fixed_point", False)),
        # no frozen position: the check would pass vacuously in iteration 1
        ({"n_log2": 4, "k": 16}, ["1.0"] * 16, (2, "fixed_point", False)),
        # a length-2 repetition code whose two LLRs contradict: the frozen
        # check never passes, and with no inner message layer iteration 2
        # repeats iteration 1
        ({"n_log2": 1, "k": 1}, ["1.0", "-1.0"], (2, "fixed_point", False)),
    ], ids=["silent", "no_frozen", "contradicting"])
    def test_stop_reason(self, capsys, tmp_path, spec, llrs, stop):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        llr_file = tmp_path / "llrs.csv"
        llr_file.write_text(",".join(llrs))
        code, out, _ = run_cli(capsys, "decode", "--spec", str(spec_file), "--llrs", str(llr_file))
        payload = json.loads(out)
        assert code == 0
        assert (payload["iterations"], payload["stop_reason"], payload["converged"]) == stop


class TestLlr:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "llr", "--nfft", "64", "--sigma2", "1.0",
                               "--samples", "20", "--seed", "1", "--snr", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "true_bit,L_basic,L_leak,L_conv"
        assert len(lines) == 22
        bit, lb, ll, lc = lines[2].split(",")
        assert bit in ("0", "1")
        float(lb), float(ll), float(lc)

    def test_baseline_override(self, capsys):
        code, out, _ = run_cli(capsys, "llr", "--nfft", "64", "--sigma2", "1.0",
                               "--samples", "5", "--seed", "1", "--snr", "6",
                               "--baseline", "phat=0.0")
        assert code == 0
        rows = out.strip().splitlines()[2:]
        assert all(float(r.split(",")[3]) == 0.0 for r in rows)

    @pytest.mark.parametrize("baseline", ["3", "phat=nan", "phat=inf", "x=1", "phat=-1",
                                          "phat=", "phat"])
    def test_baseline_is_phat_finite_and_non_negative(self, capsys, baseline):
        code, out, err = run_cli(capsys, "llr", "--nfft", "64", "--sigma2", "1.0",
                                 "--samples", "5", "--seed", "1", "--snr", "6",
                                 "--baseline", baseline)
        assert (code, out) == (2, "")
        assert "config error" in err

    @pytest.mark.parametrize("flag, samples, seed", [("--samples", "-1", "1"),
                                                     ("--seed", "5", "-1")],
                             ids=["--samples", "--seed"])
    def test_negative_count_is_config_error(self, capsys, flag, samples, seed):
        # refused at the boundary with the CLI's message, not numpy's
        code, out, err = run_cli(capsys, "llr", "--nfft", "64", "--sigma2", "1.0",
                                 "--samples", samples, "--seed", seed, "--snr", "6")
        assert (code, out) == (2, "")
        assert err == f"config error: {flag} must be >= 0, got -1\n"

    def test_zero_samples_is_a_header(self, capsys):
        code, out, _ = run_cli(capsys, "llr", "--nfft", "64", "--sigma2", "1.0",
                               "--samples", "0", "--seed", "0", "--snr", "6")
        assert code == 0
        assert out.splitlines()[1:] == ["true_bit,L_basic,L_leak,L_conv"]


class TestSession:
    def test_trace_json(self, capsys):
        # a two-frame session: the printed trace replays to its decisions
        code, out, _ = run_cli(capsys, "session", "--k", "96", "--snr", "3",
                               "--seed", "1")
        assert code == 0
        trace = json.loads(out)
        assert trace["k"] == 96
        assert trace["n_mother"] == 1024
        assert trace["stage1_budget"] == 128
        assert trace["outcome"] in ("success", "fail")
        assert len(trace["frames"]) == len(trace["frame_llrs"]) == 2
        assert trace["decisions"][0]["action"] == "request_rate"
        assert replay_session(trace, 96) == trace["decisions"]


CONFIG = """
# tiny sweep
n_fft = 128
sigma2 = 1.0
snr_db = 6,10
k = 16
trials = 2
seed = 3
scheme = sozu,hamming74
"""


class TestSweepCommands:
    def test_simulate_prints_summary(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(CONFIG)
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 0
        summary = json.loads(out)
        assert len(summary["points"]) == 4
        assert "snr_definition" in summary

    def test_simulate_prints_the_sweep_summary(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(CONFIG)
        _, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        run_cli(capsys, "sweep", "--config", str(cfg), "--out", str(tmp_path / "results"))
        assert out == (tmp_path / "results" / "summary.json").read_text()
        summary = json.loads(out)
        assert summary["config"]["k"] == 16
        assert [p["trials"] for p in summary["points"]] == [2] * 4

    def test_bad_config_value_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(CONFIG + "workers = 0\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "workers" in err

    def test_snr_beyond_float_range_is_config_error(self, capsys, tmp_path):
        # 10^(4000/10) overflows a float
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(CONFIG.replace("snr_db = 6,10", "snr_db = 4000"))
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error: ") and "snr_db" in err

    def test_zero_k_is_config_error(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("k = 0\ntrials = 1\nscheme = hamming74\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert err.startswith("config error: ") and "k must be" in err

    def test_sweep_writes_outputs(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(CONFIG)
        out_dir = tmp_path / "results"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "trials.jsonl").exists()
        assert (out_dir / "summary.json").exists()

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "config error" in err

    def test_missing_config_exit_2(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "simulate", "--config", str(tmp_path / "x.cfg"))
        assert code == 2

    def test_unwritable_out_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(CONFIG)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a dir")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg),
                               "--out", str(blocker / "sub"))
        assert code == 3
