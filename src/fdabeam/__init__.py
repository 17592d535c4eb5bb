"""Frequency-diverse-array transmit beampattern simulation toolkit."""

from .array_model import (
    SPEED_OF_LIGHT,
    ArrayConfig,
    EvalPoint,
    OutOfSectorError,
    TabulatedPlan,
    TimeModulatedPlan,
    UniformPlan,
    UnsupportedPlanError,
    WeightVector,
    combined_angle_steering,
    plan_offsets,
    random_unimodular_weights,
    reference_wavelength,
    steered_weights,
    steering_time,
    uniform_weights,
)
from .waveform import (
    DEFAULT_COSTAS_16,
    BasebandWaveform,
    FoCoding,
    generate_offsets,
    make_chirp_bank,
    rect_pulse,
    with_freq_offset,
)
from .beampattern_instant import (
    BeampatternGrid,
    field_exact,
    fitb_closed_form,
    legacy_array_factor,
    legacy_grid,
    sweep_grid,
    theta_grid,
    zero_time_cut,
)
from .scan_analytics import (
    PeakTrajectory,
    PhaseSchedule,
    ScanReport,
    beamwidth,
    build_scan_report,
    design_phase_schedule,
    measure_peak_trajectory,
    measured_scan_volume,
    predict_peak_direction,
    scan_speed,
    scan_volume,
    schedule_playback_grid,
    unwrap_sine_track,
)
from .beampattern_integral import (
    CovarianceMatrix,
    EquivalenceComparison,
    FlavorMismatchError,
    SamplingError,
    compare_fgtb_mimo,
    covariance,
    equivalence_fo_bounds,
    fgtb,
    mimo_beampattern,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
