"""Fingerprint-based text similarity: schemes, features, index, CLI."""

__version__ = "0.1.0"

from .detector import (
    ALL_FEATURES,
    DEFAULT_FEATURES,
    CorpusIndex,
    Detector,
    DetectorConfig,
    FeatureReport,
    IndexEntry,
    IndexFormatError,
    IndexVersionError,
    load_index,
    save_index,
)
from .features import DEFAULT_QUERY_PHRASES, load_query_phrases
from .fingerprint import ResemblanceScore
from .kernels import LCS_BACKEND  # noqa: F401  perfbench/run.py reads it
from .textprep import DEFAULT_STOPWORDS, Document, Sentence, load_stopwords

__all__ = [
    "__version__",
    "ALL_FEATURES",
    "DEFAULT_FEATURES",
    "DEFAULT_QUERY_PHRASES",
    "DEFAULT_STOPWORDS",
    "CorpusIndex",
    "Detector",
    "DetectorConfig",
    "Document",
    "FeatureReport",
    "IndexEntry",
    "IndexFormatError",
    "IndexVersionError",
    "ResemblanceScore",
    "Sentence",
    "load_index",
    "load_query_phrases",
    "load_stopwords",
    "save_index",
]
