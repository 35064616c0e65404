"""curvekit: yield-curve estimation for small, sparse bond markets.

Four estimators over one bond-snapshot abstraction: an exact-fit bootstrap,
the Nelson-Siegel-Svensson parametric curve, a kernel-ridge discount curve,
and a shallow neural network trained with a composite smoothness/trend loss.
Plus the evaluation protocols to compare them: price perturbation, bond-drop
Monte Carlo, day-over-day stability, and leave-one-out accuracy.
"""

from .errors import (
    CurveKitError,
    DivergenceError,
    FitFailureError,
    InvalidDiscountError,
    NoSolutionError,
    ParseError,
    SingularSystemError,
    ValidationError,
)
from .evaluation import (
    BUCKET_LABELS,
    DEFAULT_TENORS,
    Estimator,
    TenorGrid,
    bucket_of,
    drop_bonds_experiment,
    loo_experiment,
    mad_curve,
    perturb_price_experiment,
    rmse_curve,
    rmse_ytm,
    stability_experiment,
    write_report,
)
from .kernelridge import (
    KernelParams,
    KrCurve,
    KrModel,
    fit_kr,
    kernel_matrix,
    kr_discount,
    kr_kernel,
    kr_objective,
    kr_yield,
)
from .market import (
    BenchmarkCurve,
    Bond,
    Cashflow,
    MarketSnapshot,
    ScenarioSpec,
    generate_scenario,
    load_snapshot,
    save_snapshot,
)
from .neural import (
    NnCurve,
    NnParams,
    TrainConfig,
    loss_error,
    loss_smooth,
    loss_trend,
    nn_from_dict,
    nn_to_dict,
    nn_yield,
    total_loss,
    train,
)
from .nss import NssCurve, NssFitConfig, NssParams, fit_nss, nss_forward, nss_yield
from .pricing import (
    BootstrapCurve,
    FlatCurve,
    OffsetCurve,
    YieldCurve,
    bootstrap,
    discount_factor,
    forward_rate,
    macaulay_duration,
    present_value,
    yield_to_maturity,
)

__version__ = "0.1.0"
