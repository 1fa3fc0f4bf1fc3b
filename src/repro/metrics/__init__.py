"""Evaluation metrics: BLEU, embedding similarity, execution accuracy,
component exact-match and the semantic-equivalence judge."""

from repro.lazy import lazy_exports

# These two names are also submodules' names.  Loading a submodule binds it
# as a package attribute over a lazy name, so they import now.
from repro.metrics.embedding_score import embedding_score
from repro.metrics.exact_match import exact_match

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.metrics.bleu": ("BleuScore", "corpus_bleu", "sentence_bleu"),
        "repro.metrics.embedding_score": ("pairwise_similarity",),
        "repro.metrics.equivalence": ("Anchor", "EquivalenceJudge", "Verdict"),
        "repro.metrics.exact_match": ("query_signature",),
        "repro.metrics.execution": ("ExecutionAccuracy", "execution_match", "results_match"),
        "repro.metrics.triage": (
            "TRIAGE_CATEGORIES", "format_triage", "merge_triage", "triage_prediction",
        ),
    },
)

__all__ = [
    "BleuScore",
    "corpus_bleu",
    "sentence_bleu",
    "embedding_score",
    "pairwise_similarity",
    "EquivalenceJudge",
    "Verdict",
    "Anchor",
    "exact_match",
    "query_signature",
    "ExecutionAccuracy",
    "execution_match",
    "results_match",
    "TRIAGE_CATEGORIES",
    "format_triage",
    "merge_triage",
    "triage_prediction",
]
