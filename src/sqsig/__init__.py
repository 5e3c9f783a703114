"""Seedable simulator for a Bell-state semi-quantum signature protocol."""

from .quantum import (
    Basis,
    DensityMatrix,
    Gate,
    MeasurementOutcome,
    StateVector,
    apply_unitary,
    measure,
    partial_trace,
    prepare_bell,
    prepare_single,
    tensor,
    trace_distance,
)
from .keys import KeyStore, compute_g, keygen_init, otp_decrypt, otp_encrypt
from .parties import CapabilityError, OpKind, Party, classical_party, quantum_party
from .detection import DetectionMode, DetectionReport, Verdict, run_detection_round
from .adversary import (
    AttackStrategy,
    Channel,
    NoAttack,
    QubitProbe,
    TamperClassicalMessage,
    TamperSignatureB,
    TapPoint,
)
from .roles import (
    VerificationOutcome,
    bob_accept,
    bob_measure,
    hash_message,
    trent_verify,
)
from .protocol import TrialResult, run_protocol_round
from .harness import (
    AggregateStats,
    ScenarioConfig,
    compute_efficiency,
    density_check,
    emit_report,
    load_scenario,
    run_trials,
)

__all__ = [name for name in dir() if not name.startswith("_")]
