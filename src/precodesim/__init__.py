"""Link-level multi-user MIMO downlink precoding simulator.

Builds per-user channels, decomposes them into spatial layers,
constructs linear precoders (matched, pseudoinverse, ridge variants
and a searched per-layer ridge), detects with per-user MMSE receivers
and reports spectral-efficiency metrics over multi-seed sweeps.
"""

from .channel import (
    ChannelDecomposition, ChannelSet, ScenarioConfig, SystemDims, calibrate_noise, decompose,
    generate_scenario)
from .detection import conjugate_detection, mmse_detection
from .exceptions import (
    ConfigError, DimensionError, NotHpdError, NumericalError, PrecodesimError, RankDeficiencyError,
    SelectionError, SingularGramError, ZeroMatrixError, ZeroSinrError)
from .harness import (
    METHODS, SweepConfig, SweepResult, SweepRow, emit_csv, emit_plotdata, format_csv, run_sweep)
from .metrics import MetricsReport, effective_sinr, evaluate, layer_sinr, report, user_se
from .optimizer import (
    OptConfig, OptResult, default_start, gradient, objective, optimize, optimize_many)
from .precoding import Precoder, arzf, mrt, normalize, parametric_rzf, rzf, wrzf, zf
from .verification import CheckResult, run_all

__version__ = "0.1.0"
