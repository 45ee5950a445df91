"""Layer-similarity analysis and structured layer pruning for small encoder stacks."""

from .data import TokenDataset, load_dataset, save_dataset
from .errors import AscError, FormatError, ValidationError
from .forward import forward_hidden_states
from .model import ModelConfig, ModelWeights, load_model, save_model
from .planner import PrunePlan, load_plan, plan, plan_random, write_plan
from .similarity import SimilarityMatrix, analyze, load_matrix_csv, write_matrix_csv
from .surgery import DivergenceReport, apply_plan, compare_models
from .synth import gen_dataset, gen_model

__all__ = [
    "AscError",
    "DivergenceReport",
    "FormatError",
    "ModelConfig",
    "ModelWeights",
    "PrunePlan",
    "SimilarityMatrix",
    "TokenDataset",
    "ValidationError",
    "analyze",
    "apply_plan",
    "compare_models",
    "forward_hidden_states",
    "gen_dataset",
    "gen_model",
    "load_dataset",
    "load_matrix_csv",
    "load_model",
    "load_plan",
    "plan",
    "plan_random",
    "save_dataset",
    "save_model",
    "write_matrix_csv",
    "write_plan",
]
