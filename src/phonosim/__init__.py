"""phonosim: corpus- and typology-driven language similarity toolkit.

Converts text to IPA phoneme sequences through table-driven G2P, measures
phonological proximity between languages (cosine similarity of unigram
phoneme distributions), maps family structure (PCA plus weighted Gaussian
KDE contours), selects source languages for cross-lingual low-resource
training, and scores transcriptions with phoneme error rate.
"""

__version__ = "0.1.0"

from .density import (ContourSet, KDEParams, kde_contours,
                      silverman_bandwidths, weights_from_hours)
from .errors import (DataError, ParseError, PhonosimError, PipelineError,
                     TokenizeError, UnmatchedGraphemeError)
from .g2p import G2PRule, Ruleset, load_ruleset, transliterate
from .ipa import (NormalizationPolicy, PhonemeSequence, default_policy,
                  load_policy, normalize, tokenize_ipa)
from .pca import Projection2D, pca_project
from .per import PERReport, corpus_per
from .pipeline import PipelineConfig, run_pipeline
from .registry import LanguageRecord, Registry, load_registry
from .selection import (SelectionResult, Strategy, TrainingManifest,
                        emit_manifest, select_strategy, select_top_k)
from .stats import (Distributions, SimilarityMatrix, family_mean_similarities,
                    phoneme_distributions, similarity_matrix)
from .typology import FeatureMatrix, impute, load_feature_matrix

__all__ = [
    "ContourSet", "KDEParams", "kde_contours", "silverman_bandwidths",
    "weights_from_hours",
    "DataError", "ParseError", "PhonosimError", "PipelineError",
    "TokenizeError", "UnmatchedGraphemeError",
    "G2PRule", "Ruleset", "load_ruleset", "transliterate",
    "NormalizationPolicy", "PhonemeSequence", "default_policy",
    "load_policy", "normalize", "tokenize_ipa",
    "Projection2D", "pca_project",
    "PERReport", "corpus_per",
    "PipelineConfig", "run_pipeline",
    "LanguageRecord", "Registry", "load_registry",
    "SelectionResult", "Strategy", "TrainingManifest",
    "emit_manifest", "select_strategy", "select_top_k",
    "Distributions", "SimilarityMatrix", "family_mean_similarities",
    "phoneme_distributions", "similarity_matrix",
    "FeatureMatrix", "impute", "load_feature_matrix",
    "__version__",
]
