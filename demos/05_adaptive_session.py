"""Two-stage rate adaptation, session by session."""

from polarlink.protocol import plan_session
from polarlink.simulate import SessionRecord, SimConfig, run_session, trial_rngs

plan = plan_session(96)
print(f"Session plan for K=96: mother N={plan.n_mother}, stage-1 budget "
      f"{plan.stage1_budget} bits (rate 3/4)")
for rate in ("2/3", "1/2", "1/4", "1/8"):
    from fractions import Fraction

    r = Fraction(rate)
    print(f"  rate {rate}: cumulative budget {plan.cumulative_budget(r)} bits "
          f"(stage 2 adds {plan.cumulative_budget(r) - plan.stage1_budget})")

print("\nSessions across channel qualities (post-despreading SNR):")
for snr in (13.0, 9.0, 7.0, 5.0, 1.0):
    cfg = SimConfig(snr_db=(snr,), k=96, master_seed=404)
    record = SessionRecord(k=96, n_mother=plan.n_mother,
                           stage1_budget=plan.stage1_budget, snr_db=snr)
    run_session(cfg, snr, trial_rngs(404, 0, 0), record=record)
    stage1 = record.decisions[0]
    tail = ""
    if stage1["action"] == "request_rate":
        tail = f", requested rate {record.requested_rate}, final {record.decisions[-1]['action']}"
    print(f"  snr {snr:5.1f} dB: frames {len(record.frames)}, "
          f"stage-1 {stage1['action']} (FBER {stage1['fber']:.2f}){tail} "
          f"-> {record.outcome}, {record.bits_sent} bits on air")

print("\nThe gateway reads channel quality off the frozen pilots of the failed")
print("decode, asks for exactly the parity the deeper rate needs, and combines")
print("both frames' soft values on the shared mother-code index space.")
