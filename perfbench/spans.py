"""In-memory span tracer wrapped around polarlink's public functions.

Nothing under ``src/`` is edited: the tracer replaces module attributes at the
places where callers look them up (``polarlink.simulate.bp_decode`` is the
name ``run_trial`` calls, ``polarlink.protocol.bp_decode`` the one
``gateway_on_frame`` calls) and restores them on ``uninstall``.

A span is (id, parent id, name, start, end, trial id, attributes). Spans stay
in memory. Worker processes forked by ``run_sweep``'s pool inherit the
patched functions and the tracer; each worker spools its own spans to a file
when it exits, and ``collect_workers`` folds them back into the parent's list.
``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, so start and end times
compare across processes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from multiprocessing import util as mp_util
from pathlib import Path

import polarlink.protocol as protocol
import polarlink.simulate as simulate

# Spans that start a trial; their duration is the trial time that the
# per-layer self shares divide by.
TRIAL_ROOTS = ("simulate.run_trial", "bench.trial")


def _bp_attrs(args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    max_iters = cfg.max_iters if cfg is not None else 60
    return {"iters": int(result.iterations_used), "converged": bool(result.converged),
            "max_iters": int(max_iters), "n": int(spec.n), "n_log2": int(spec.n_log2)}


def _synth_attrs(args, kwargs, result):
    return {"symbols": int(result.shape[0]), "bytes": int(result.nbytes)}


def _llr_attrs(args, kwargs, result):
    return {"symbols": int(len(result))}


def _feedback_attrs(args, kwargs, result):
    return {"delivered": bool(result.delivered)}


def _trial_id(args, kwargs):
    cfg, scheme, point, trial = args[:4]
    return f"{cfg.master_seed}/{scheme}/{point}/{trial}"


# (module, attribute, span name, attribute extractor, trial-id extractor)
TARGETS = (
    (protocol, "design_code", "construction.design_code", None, None),
    (protocol, "encode_systematic", "encoding.encode_systematic", None, None),
    (simulate, "encode_systematic", "encoding.encode_systematic", None, None),
    (simulate, "synthesize_symbols", "phy.synthesize_symbols", _synth_attrs, None),
    (simulate, "llr_leakage_many", "phy.llr", _llr_attrs, None),
    (simulate, "llr_basic_many", "phy.llr", _llr_attrs, None),
    (protocol, "bp_decode", "decoding.bp_decode", _bp_attrs, None),
    (simulate, "bp_decode", "decoding.bp_decode", _bp_attrs, None),
    (protocol, "combine_llrs", "decoding.combine_llrs", None, None),
    (protocol, "crc16", "protocol.crc16", None, None),
    (simulate, "crc16", "protocol.crc16", None, None),
    (simulate, "tag_stage1", "protocol.tag_stage1", None, None),
    (simulate, "tag_stage2", "protocol.tag_stage2", None, None),
    (simulate, "gateway_on_frame", "protocol.gateway_on_frame", None, None),
    (simulate, "feedback_channel", "protocol.feedback_channel", _feedback_attrs, None),
    (simulate, "frame_to_wire", "protocol.frame_to_wire", None, None),
    (simulate, "frame_from_wire", "protocol.frame_from_wire", None, None),
    (simulate, "run_trial", "simulate.run_trial", None, _trial_id),
    (simulate, "run_session", "simulate.run_session", None, None),
    (simulate, "replay_session", "simulate.replay_session", None, None),
    (simulate, "run_sweep", "simulate.run_sweep", None, None),
)


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.trial = None
        self._count = 0
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _after_fork(self):
        # a forked pool worker: keep the open parent spans on the stack so
        # its spans point at them, drop the copy of the parent's records
        self.pid = os.getpid()
        self.spans = []
        mp_util.Finalize(None, self._spool, exitpriority=100)

    def _spool(self):
        if not self.spans:
            return
        path = self.spool_dir / f"spans-{self.pid}.jsonl"
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def span(self, name, trial=None):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name, trial)

    def _open(self, trial):
        if os.getpid() != self.pid:
            self._after_fork()
        self._count += 1
        sid = f"{self.pid}:{self._count}"
        parent = self.stack[-1] if self.stack else None
        prev_trial = self.trial
        if trial is not None:
            self.trial = trial
        self.stack.append(sid)
        return sid, parent, prev_trial

    def _close(self, name, sid, parent, prev_trial, start, end, attrs):
        self.stack.pop()
        self.spans.append({"id": sid, "parent": parent, "name": name, "start": start,
                           "end": end, "trial": self.trial, "attrs": attrs})
        self.trial = prev_trial

    def _wrap(self, fn, name, attrs_fn, trial_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trial = trial_fn(args, kwargs) if trial_fn else None
            sid, parent, prev_trial = tracer._open(trial)
            attrs = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    attrs = attrs_fn(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                tracer._close(name, sid, parent, prev_trial, start, end, attrs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target that exists; a missing one is skipped."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name, attrs_fn, trial_fn in TARGETS:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, attrs_fn, trial_fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def collect_workers(self):
        """Fold spans spooled by exited workers into this process's list."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(json.loads(line) for line in fh)
            path.unlink()


class _Span:
    def __init__(self, tracer, name, trial):
        self.tracer, self.name, self.trial = tracer, name, trial

    def __enter__(self):
        self.ids = self.tracer._open(self.trial)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.name, *self.ids, self.start, time.perf_counter(), None)
        return False


# ---------------------------------------------------------------------------
# per-layer metrics from a span list
# ---------------------------------------------------------------------------

def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover.

    Children from parallel workers can overlap each other, so coverage is
    the union of their intervals clipped to the parent's.
    """
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, cur_lo, cur_hi = 0.0, None, None
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


def nearest_rank(values, q):
    """Nearest-rank percentile: an element of ``values``, never interpolated."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _mean(total, count):
    return total / count if count else 0.0


def layer_metrics(spans, setup_spans, workers, sweep_wall_s):
    """The per-layer metrics of one traced run.

    ``spans`` come from the traced batches (all processes), ``setup_spans``
    from the traced set-up phase before them; ``sweep_wall_s`` is the wall
    time of the traced batches.
    """
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    trial_time = sum(dur(n) for n in TRIAL_ROOTS)

    def share(layer):
        own = sum(selfs[s["id"]] for s in spans
                  if s["trial"] is not None and s["name"].startswith(layer + "."))
        return _mean(own, trial_time)

    design = [s for s in setup_spans + spans if s["name"] == "construction.design_code"]
    bp = by_name.get("decoding.bp_decode", [])
    iters = [s["attrs"]["iters"] for s in bp]
    node_updates = sum(a["iters"] * 2 * a["n_log2"] * a["n"] for a in (s["attrs"] for s in bp))
    synth = by_name.get("phy.synthesize_symbols", [])
    symbols = sum(s["attrs"]["symbols"] for s in synth)
    llr_symbols = sum(s["attrs"]["symbols"] for s in by_name.get("phy.llr", []))
    gateway = by_name.get("protocol.gateway_on_frame", [])
    frames_on_wire = calls("protocol.frame_to_wire")
    sessions = calls("protocol.tag_stage1")

    return {
        "construction.design_code.calls": (len(design), "count"),
        "construction.design_code.s": (sum(s["end"] - s["start"] for s in design), "s"),
        "encoding.encode_systematic.calls": (calls("encoding.encode_systematic"), "count"),
        "encoding.encode_systematic.ms_per_call": (
            1e3 * _mean(dur("encoding.encode_systematic"), calls("encoding.encode_systematic")), "ms"),
        "encoding.self_share": (share("encoding"), "fraction"),
        "phy.synthesize_symbols.symbols": (symbols, "count"),
        "phy.synthesize_symbols.ns_per_symbol": (1e9 * _mean(dur("phy.synthesize_symbols"), symbols), "ns"),
        "phy.llr.ns_per_symbol": (1e9 * _mean(dur("phy.llr"), llr_symbols), "ns"),
        "phy.bins_mb_computed": (sum(s["attrs"]["bytes"] for s in synth) / 2**20, "MiB"),
        "phy.self_share": (share("phy"), "fraction"),
        "decoding.bp_decode.calls": (len(bp), "count"),
        "decoding.bp_decode.ms_per_call": (1e3 * _mean(dur("decoding.bp_decode"), len(bp)), "ms"),
        "decoding.bp_decode.ms_per_iter": (1e3 * _mean(dur("decoding.bp_decode"), sum(iters)), "ms"),
        "decoding.node_updates": (node_updates, "count"),
        "decoding.ns_per_node_update": (1e9 * _mean(dur("decoding.bp_decode"), node_updates), "ns"),
        "decoding.self_share": (share("decoding"), "fraction"),
        "decoding.iters_per_call.p50": (nearest_rank(iters, 0.50) if iters else 0, "count"),
        "decoding.iters_per_call.p95": (nearest_rank(iters, 0.95) if iters else 0, "count"),
        "decoding.stopped_early_ratio": (
            _mean(sum(s["attrs"]["iters"] < s["attrs"]["max_iters"] for s in bp), len(bp)), "fraction"),
        "decoding.converged_ratio": (_mean(sum(s["attrs"]["converged"] for s in bp), len(bp)), "fraction"),
        "protocol.gateway_on_frame.calls": (len(gateway), "count"),
        "protocol.gateway_on_frame.self_ms_per_call": (
            1e3 * _mean(sum(selfs[s["id"]] for s in gateway), len(gateway)), "ms"),
        "protocol.crc16.calls": (calls("protocol.crc16"), "count"),
        "protocol.crc16.us_per_call": (1e6 * _mean(dur("protocol.crc16"), calls("protocol.crc16")), "us"),
        "protocol.wire.us_per_frame": (
            1e6 * _mean(dur("protocol.frame_to_wire") + dur("protocol.frame_from_wire"), frames_on_wire), "us"),
        "protocol.stage2_ratio": (_mean(calls("protocol.tag_stage2"), sessions), "fraction"),
        "protocol.fallback_count": (
            sum(not s["attrs"]["delivered"] for s in by_name.get("protocol.feedback_channel", [])), "count"),
        "simulate.self_share": (share("simulate"), "fraction"),
        "simulate.worker_busy_ratio": (_mean(trial_time, workers * sweep_wall_s), "fraction"),
    }
