"""Limited-feedback transmit beamforming over MIMO-OFDM: codebooks,
beamformer selection, zero-forcing precoding, and Monte Carlo BER
sweeps."""

from .numerics import (
    SingularMatrixError,
    dominant_right_eigvec_batch,
    mat_inverse,
)
from .channel import (
    InvalidLengthError,
    ShapeMismatchError,
    TrainingSequence,
    gen_rayleigh_flat,
    gen_selective_taps,
    ls_estimate,
    make_phase_shift_training,
    to_subcarriers,
)
from .codebook import (
    Codebook,
    CodebookTooLargeError,
    QuantizationResult,
    ZeroChannelError,
    gen_rvq,
    load_codebook,
    quantize_direction,
    save_codebook,
    select_beamformer,
)
from .beamforming import (
    PrecoderSet,
    SingularStackError,
    apply_power_constraint,
    zfbf_precoders,
    zfbf_sinr,
)
from .simulator import (
    BerCurve,
    BerPoint,
    ConfigError,
    OddBitCountError,
    SimConfig,
    demodulate,
    modulate,
    run_sweep,
    run_sweeps,
    snr_at_ber,
    trial_effective_gains,
    write_curve_csv,
)

__version__ = "0.1.0"
