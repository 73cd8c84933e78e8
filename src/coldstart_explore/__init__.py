"""Exploration traffic allocation for cold-start items.

A learned discoverability model turns observed exploration outcomes into
per-item traffic caps; a three-region allocator spends a fixed impression
budget against those caps; a seeded simulator with hidden ground truth closes
the loop for end-to-end evaluation.
"""

from .allocator import GrowthStats, adapt_low_fraction, allocate
from .core import (
    AllocationConfig,
    AllocationPlan,
    BucketSchema,
    ConfigError,
    DataError,
    EngagementStats,
    ItemRecord,
    PlanEntry,
    Region,
    bucket_of,
    cost_of,
    geometric_schema,
    validate_config,
    verify_plan,
)
from .metrics import (
    MetricsReport,
    auc,
    metrics_report,
    oracle_allocate,
    pr_curve_and_auc,
    pr_metrics,
    uniform_allocate,
)
from .model import (
    DiscoverabilityModel,
    Hyperparams,
    TrainingSet,
    gradient,
    invert_cap,
    load_model,
    monotone_curves,
    predict,
    predict_curve,
    predict_curves,
    save_model,
    train,
)
from .simulator import (
    ExperimentReport,
    LatentItem,
    Observation,
    SimConfig,
    build_training_set,
    generate_corpus,
    run_experiment,
    serve_round,
)

__version__ = "0.1.0"
