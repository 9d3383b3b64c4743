"""A recorder of the decode batches the gateway runs."""

import polarlink.protocol as protocol


def decode_calls(monkeypatch):
    """(rows, max_iters, rows the stop rule ended) of each bp_decode_many
    call the gateway makes from now on, in order."""
    calls = []
    real = protocol.bp_decode_many

    def recorded(llrs, spec, cfg, crc_checks=None):
        results = real(llrs, spec, cfg, crc_checks)
        calls.append((len(results), cfg.max_iters, sum(r.converged for r in results)))
        return results

    monkeypatch.setattr(protocol, "bp_decode_many", recorded)
    return calls
