"""Temperature estimation for permanent magnet synchronous motors.

Encoder-decoder LSTM models (plain, bidirectional, attention) over windowed
sensor features, trained with a from-scratch reverse-mode tape on plain
numpy arrays.
"""

from .autodiff import Matrix, Tape, ShapeError, ContractError
from .checkpoint import (
    CheckpointError,
    VariantMismatchError,
    load_checkpoint,
    save_checkpoint,
)
from .dataio import (
    ATTRIBUTES,
    ConfigError,
    CsvParseError,
    DatasetSplit,
    ProfileFrame,
    SchemaError,
    load_csv,
    save_csv,
    split,
    synthesize,
)
from .evaluation import (
    EvalReport,
    EvaluationError,
    compute_metrics,
    emit_traces,
    evaluate,
    time_inference,
)
from .features import (
    DEFAULT_SPANS,
    PREDICTORS,
    SYNTHETIC_SETS,
    TARGETS,
    FeatureConfig,
    Standardization,
    UndefinedCorrelationError,
    WindowedDataset,
    avg_abs_correlation,
    build_dataset,
    derive_synthetic,
    ewma,
    fit_standardization,
)
from .models import (
    VARIANTS,
    LstmCellParams,
    ModelParams,
    count_params,
    init_params,
    predict,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainingError,
    adam_step,
    mse_loss,
    train_grouped,
)

__version__ = "0.1.0"
