"""delaykit: reconstruct, forecast, and interrogate nonlinear dynamics
from scalar time series.

The toolkit covers the full loop: generate benchmark traces, pick
delay-reconstruction parameters (classical heuristics or the
information-storage optimum), forecast with nearest-neighbor analogues
against simple baselines, score with h-MASE, screen predictability with
weighted permutation entropy, and verify reconstruction homology with
fuzzy witness complexes.
"""

from .embedding_params import (
    FnnConfig,
    ParamChoice,
    atau_optimal_params,
    estimate_m_fnn,
    fnn_fraction,
    tau_first_min_mi,
    tau_first_zero_autocorr,
)
from .errors import (
    CapacityError,
    DegenerateSeriesError,
    DelayKitError,
    DivergenceError,
    NoEmbeddingFoundError,
    NoMinimumError,
    NoNeighborError,
    NoZeroCrossingError,
    SeriesFormatError,
    ValidationError,
)
from .estimators import (
    SweepGrid,
    active_information_storage,
    atau_surface,
    autocorrelation,
    binned_mutual_information,
    ksg_mutual_information,
    permutation_entropy,
    select_word_length,
    td_mutual_information_curve,
    weighted_permutation_entropy,
)
from .forecast import (
    ForecastRun,
    forecast_ar,
    forecast_lma,
    rolling_evaluate,
)
from .metrics import MaseScore, h_mase
from .systems import (
    FlowSpec,
    MapSpec,
    default_initial_state,
    generate_flow_trace,
    generate_map_trace,
    integrate_rk4,
)
from .timeseries import (
    DelayReconstruction,
    ScalarSeries,
    TrainTestSplit,
    delay_reconstruct,
    load_series,
    save_series,
    split,
)
from .topology import (
    Barcode,
    LandmarkSet,
    WitnessComplexSnapshot,
    betti_numbers,
    build_complex,
    edge_lifespan_diagram,
    epsilon_barcode,
    scaled_epsilon,
    select_landmarks,
)

__version__ = "0.1.0"
