"""Cross-lingual detection of suspended social-media accounts.

Subword skipgram embeddings, orthogonal Procrustes alignment between two
monolingual spaces, averaged-embedding softmax classification with
transfer initialization, sparse baselines, and a reproducible CLI
pipeline with synthetic twin-language evaluation corpora.
"""

from .align import (
    BilingualDictionary,
    OrthogonalMap,
    apply_map,
    evaluate_translation,
    induce_dictionary,
    merge_tables,
    procrustes,
    refine,
)
from .baselines import (
    FeatureVocabulary,
    LogRegConfig,
    LogRegModel,
    SparseRows,
    count_features,
    extract_ngrams,
    predict_logreg,
    tfidf_transform,
    train_logreg,
)
from .classifier import (
    SupervisedConfig,
    TextClassifier,
    doc_embedding,
    predict,
    train_many,
    train_supervised,
)
from .corpus import (
    AccountDocument,
    AccountStatus,
    PostRecord,
    SplitSpec,
    aggregate_by_account,
    ingest_posts,
    label_from_status,
    split,
    subsample_train,
    tokenize,
)
from .curves import LearningCurvePoint, fraction_means, learning_curve
from .embedding import (
    EmbeddingMatrix,
    SkipgramConfig,
    VectorTable,
    load_vectors,
    negative_table,
    save_vectors,
    train_skipgram,
    word_vector,
)
from .metrics import ConfusionMatrix, MetricsReport, binary_metrics, confusion
from .synth import SyntheticConfig, generate_synthetic_bilingual
from .vocab import SubwordIndex, Vocabulary, build_vocab, input_ids

__version__ = "0.1.0"
