"""Network meta-analysis of two-arm studies: FE, additive RE and multiplicative
ME models, heterogeneity decomposition, and model comparison by AIC."""

from .analysis import (
    BatchResult,
    BatchRow,
    Classification,
    ComparisonReport,
    SensitivityRecord,
    TauMethod,
    batch_run,
    batch_to_csv,
    batch_to_json,
    classify,
    compare_models,
    exclude_and_refit,
    fit_random_effects,
    leave_one_out,
)
from .dataset import (
    ContrastObservation,
    DatasetError,
    Design,
    DesignMatrix,
    EffectMeasure,
    NetworkDataset,
    build_design_matrix,
    connected_components,
    derive_contrast_binary,
    derive_contrast_continuous,
    group_designs,
    load_dataset,
    parse_dataset,
)
from .heterogeneity import (
    DesignContribution,
    QDecomposition,
    ScreenResult,
    StudyContribution,
    q_decompose,
    q_total,
)
from .models import (
    EstimationError,
    ModelFit,
    ModelKind,
    estimate_tau2_dl,
    estimate_tau2_reml,
    fit_fe,
    fit_me,
    fit_re,
    log_likelihood,
    reml_objective,
)
from .numerics import (
    NumericError,
    SpdSolveResult,
    chi_square_sf,
    minimize_scalar,
    normal_quantile,
    solve_spd,
)
from .report import (
    ForestRow,
    MarkerKind,
    NetworkEdge,
    NetworkGraph,
    fit_report,
    forest_data,
    network_data,
    per_study_csv,
    render_svg,
)

__version__ = "0.1.0"
