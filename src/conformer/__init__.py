"""Conditional spatiotemporal transformer for incident-aware traffic
forecasting, with a self-contained autodiff substrate."""

from .attention import conditional_qkv, fuse, spatial_attention, temporal_attention
from .conditioning import (ConditionFactors, FactorGenerator, compute_condition,
                           expanded_score_identity, expanded_score_terms,
                           generate_factors, gln, modulated_residual)
from .data import (DatasetBundle, MaskedMetrics, NormalizationStats, SplitSpec,
                   SynthConfig, chronological_split, fit_normalization,
                   load_dataset, make_windows, masked_metrics, save_dataset,
                   synth_generate)
from .embeddings import CalendarIndexer, EmbeddingTables, embed_all, index_time
from .errors import (ConfigError, ConformerError, ContractError, DimensionError,
                     LoadError, NumericsError, ValidationError)
from .graph import GraphSpec, PropagationOperator, normalize_adjacency, propagate
from .model import (ConFormerConfig, ConFormerParams, count_params,
                    estimate_flops, forward, init_params, load_checkpoint,
                    save_checkpoint)
from .numerics import Tensor, backward, mean_std_last_axis, softmax_last_axis
from .trainer import (TrainConfig, TrainResult, evaluate,
                      evaluate_historical_inertia, historical_inertia, train)

__version__ = "0.1.0"
