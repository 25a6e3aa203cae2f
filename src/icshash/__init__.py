"""Instance-weighted central-similarity hashing toolkit.

Hash-center generation, a simplex-constrained center-weight solver for
one sample or a whole batch, the full training objective with a small
feed-forward hash encoder, and bit-packed Hamming retrieval with
standard metrics.
"""

from .centers import (
    HashCenterSet,
    generate_centers,
    load_centers,
    min_pairwise_hamming,
    save_centers,
    sylvester_hadamard,
)
from .data import (
    Dataset,
    MultiLabelSample,
    SyntheticSpec,
    features_matrix,
    generate_synthetic,
    labels_matrix,
    load_dataset,
    save_dataset,
    spearman_corr,
)
from .encoder import (
    AdamState,
    EncoderParams,
    TrainConfig,
    TrainState,
    adam_step,
    binarize,
    encode_binary,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    EvaluationError,
    InternalInvariantError,
    ParseError,
    ToolkitError,
)
from .loss import (
    CenterAssignment,
    LossConfig,
    assignment_for_labels,
    bce_distance,
    distance_matrix,
    distance_vector,
    loss_gradient_wrt_codes,
    quantization_loss,
    total_loss,
)
from .retrieval import (
    CodeDatabase,
    RankedResult,
    hamming,
    load_codes,
    map_at_k,
    pack_code,
    pack_database,
    precision_at_k,
    rank_database,
    retrieval_metrics,
    save_codes,
    unpack_database,
)
from .weights import (
    WeightSolveResult,
    WeightSolverConfig,
    entropy_regularizer,
    project_rows_to_simplex,
    project_to_simplex,
    solve_weights,
    solve_weights_batch,
)

__version__ = "0.1.0"
