"""Polar-coded link simulation for long-range backscatter.

Construction of reliability orders over a BEC design channel, low-memory
systematic polar encoding, belief-propagation decoding with frozen-bit error
statistics, an FFT-bin chirp channel with power-free LLR metrics, a two-stage
FBER-driven incremental-redundancy protocol, and a seeded Monte-Carlo sweep
harness with a Hamming(7,4) baseline.
"""

from .construction import (
    CodeSpec,
    ReliabilityOrder,
    bhattacharyya_evolve,
    build_reliability_order,
    capacity_evolve,
    design_code,
)
from .decoding import (
    BpConfig,
    DecodeResult,
    bp_decode,
    bp_decode_many,
    combine_llrs,
    ml_decode_oracle,
)
from .encoding import (
    AllocationMeter,
    StorageAccount,
    encode_dense_oracle,
    encode_systematic,
    encode_transform_pair,
    g_element,
    polar_transform,
    storage_report,
)
from .phy import (
    LeakageModel,
    NoiseModel,
    llr_basic,
    llr_leakage,
)
from .protocol import (
    RATE_TABLE,
    Frame,
    FeedbackMsg,
    GatewaySession,
    PacketHeader,
    SessionPlan,
    crc16,
    estimate_rate,
    feedback_channel,
    gateway_on_frames,
    header_decode,
    header_encode,
    plan_session,
    tag_stage1,
    tag_stage2,
)
from .simulate import (
    Metrics,
    SimConfig,
    TrialResult,
    goodput,
    hamming74_decode,
    hamming74_encode,
    run_point,
    run_sweep,
    wilson_interval,
)

__version__ = "0.1.0"
