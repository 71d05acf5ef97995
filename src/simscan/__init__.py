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
from .features import (
    DEFAULT_QUERY_PHRASES,
    KeywordSet,
    lcs_fmeasure,
    lcs_similarity,
    load_query_phrases,
    top_keywords,
)
from .fingerprint import (
    GramMultiset,
    ResemblanceScore,
    SentenceFingerprint,
    char_kgrams,
    document_fingerprints,
    full_resemblance,
    jaccard,
    word_trigrams,
)
from .kernels import LCS_BACKEND, lcs_length, match_masks
from .porter import stem
from .textprep import (
    DEFAULT_STOPWORDS,
    Document,
    Sentence,
    load_stopwords,
    normalize,
    split_sentences,
)

__all__ = [
    "__version__",
    "ALL_FEATURES",
    "DEFAULT_FEATURES",
    "DEFAULT_QUERY_PHRASES",
    "DEFAULT_STOPWORDS",
    "LCS_BACKEND",
    "CorpusIndex",
    "Detector",
    "DetectorConfig",
    "Document",
    "FeatureReport",
    "GramMultiset",
    "IndexEntry",
    "IndexFormatError",
    "IndexVersionError",
    "KeywordSet",
    "ResemblanceScore",
    "Sentence",
    "SentenceFingerprint",
    "char_kgrams",
    "document_fingerprints",
    "full_resemblance",
    "jaccard",
    "lcs_fmeasure",
    "lcs_length",
    "lcs_similarity",
    "load_index",
    "load_query_phrases",
    "load_stopwords",
    "match_masks",
    "normalize",
    "save_index",
    "split_sentences",
    "stem",
    "top_keywords",
    "word_trigrams",
]
