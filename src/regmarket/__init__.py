"""Regression markets: pricing and paying for features in regression tasks.

The package covers the full pipeline: time-indexed datasets with feature
ownership, augmented designs, batch and online (exponentially forgetting)
estimation for quadratic and smooth quantile losses, Shapley and
leave-one-out allocation policies, and the batch / online / out-of-sample
market mechanisms with their audit suite.
"""

from .allocation import (
    AllocationSeries,
    AllocationVector,
    instant_allocation,
    loo_allocation,
    shapley_allocation,
    shapley_contributions,
    step_allocations,
)
from .batch import (
    CoalitionLossTable,
    FitResult,
    enumerate_coalitions,
    fit_batch,
    fit_matrix,
)
from .data import (
    AugmentedDesign,
    CsvSchema,
    Dataset,
    TermDescriptor,
    coalition_design,
    dataset_to_csv,
    ingest_csv,
    make_lags,
    polynomial_expand,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    CoverageError,
    DataError,
    EnumerationCapError,
    FeatureLookupError,
    InsufficientDataError,
    NoSurplusError,
    OrderingError,
    ParameterError,
    RegMarketError,
    SchemaError,
    SingularDesignError,
    SingularUpdateError,
)
from .losses import (
    EwmaLoss,
    LossSpec,
    ewma_update,
    insample_loss,
    loss_h1,
    loss_h2,
    loss_value,
    pinball_loss,
)
from .market import (
    AuditResult,
    Ledger,
    LedgerEntry,
    MarketReport,
    TaskSpec,
    audit_ledger,
    build_design,
    clear_batch_market,
    fit_all_coalitions,
    run_online_market,
    run_oos_market,
    screen_features,
)
from .online import (
    OnlineSession,
    OnlineState,
    SessionTrace,
    init_state,
    online_step,
)
from .scenarios import ScenarioSpec, generate, run_scenario

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
