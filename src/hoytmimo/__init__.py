"""Eigenvalue statistics and ergodic capacity of Hoyt-faded MIMO channels."""

from .ensemble import (
    ChannelConfig,
    NumericalConsistencyError,
    SeriesControl,
    SeriesTruncationError,
    correlation_fn,
    crossover_tau,
    density_mp,
    jpd,
    level_density,
)
from .fading import FadingParams, envelope_pdf, params_from_q, params_from_sigmas, phase_pdf, sample_signal
from .capacity import CapacityResult, capacity_sweep, degradation, ergodic_capacity
from .montecarlo import Histogram, SpectralSample, empirical_density, mc_capacity, sample_channel, sample_spectrum

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "SeriesControl",
    "SeriesTruncationError",
    "NumericalConsistencyError",
    "FadingParams",
    "CapacityResult",
    "Histogram",
    "SpectralSample",
    "crossover_tau",
    "params_from_q",
    "params_from_sigmas",
    "envelope_pdf",
    "phase_pdf",
    "sample_signal",
    "jpd",
    "level_density",
    "density_mp",
    "correlation_fn",
    "empirical_density",
    "mc_capacity",
    "sample_channel",
    "sample_spectrum",
    "ergodic_capacity",
    "degradation",
    "capacity_sweep",
]
