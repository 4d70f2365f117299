"""Sequential skip prediction for music listening sessions.

Predicts whether each track in the second half of a session will be
skipped, given the first half. Ten boosted-tree models (one per target
position) are combined by twelve scoring strategies and evaluated with
sequence-aware accuracy metrics.
"""

from .datamodel import Session, SessionRow, TrackTable
from .ensemble import combine, binarize
from .evaluation import average_accuracy, compare, corpus_scores
from .features import FEATURE_COUNT, FEATURE_NAMES, assemble_corpus
from .gbdt import GBDTModel, TrainParams, auc, train
from .modelbank import ModelBank, train_bank

__version__ = "0.1.0"

__all__ = [
    "FEATURE_COUNT",
    "FEATURE_NAMES",
    "GBDTModel",
    "ModelBank",
    "Session",
    "SessionRow",
    "TrackTable",
    "TrainParams",
    "assemble_corpus",
    "auc",
    "average_accuracy",
    "binarize",
    "combine",
    "compare",
    "corpus_scores",
    "train",
    "train_bank",
    "__version__",
]
