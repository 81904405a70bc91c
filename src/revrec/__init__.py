"""Code reviewer recommendation from review history.

Recommends reviewers for a code change by comparing its file path and
review comment against historical review records (Jaccard, adapted
Hamming, and word-vector cosine similarity), and evaluates recommendation
quality with top-k accuracy and MRR@k under fixed or incremental sampling,
including a file-path-only baseline ranker.
"""

from .corpus import Corpus, ReviewRecord, distinct_reviewers, load_corpus, save_corpus
from .embedding import CommentVector, EmbeddingTable, comment_vector, load_embedding_table
from .errors import (
    ConfigurationError,
    EmbeddingFormatError,
    EmptyCorpusError,
    EmptyHistoryError,
    EvaluationError,
    RevRecError,
    ValidationError,
)
from .evaluation import (
    EvalConfig,
    EvalReport,
    Sampling,
    first_correct_rank,
    mrr_at_k,
    run_eval,
    topk_accuracy,
)
from .recommender import (
    REVFINDER,
    MethodId,
    RecommendationList,
    method_score,
    parse_method_selection,
    recommend,
    revfinder_recommend,
)
from .similarity import adapted_hamming_similarity, cosine, jaccard
from .textprep import load_stopwords, preprocess_comment, tokenize_path

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "ReviewRecord",
    "load_corpus",
    "save_corpus",
    "distinct_reviewers",
    "EmbeddingTable",
    "CommentVector",
    "load_embedding_table",
    "comment_vector",
    "jaccard",
    "adapted_hamming_similarity",
    "cosine",
    "preprocess_comment",
    "tokenize_path",
    "load_stopwords",
    "MethodId",
    "REVFINDER",
    "RecommendationList",
    "method_score",
    "recommend",
    "revfinder_recommend",
    "parse_method_selection",
    "EvalConfig",
    "EvalReport",
    "Sampling",
    "first_correct_rank",
    "topk_accuracy",
    "mrr_at_k",
    "run_eval",
    "RevRecError",
    "ValidationError",
    "EmptyCorpusError",
    "EmptyHistoryError",
    "ConfigurationError",
    "EmbeddingFormatError",
    "EvaluationError",
]
