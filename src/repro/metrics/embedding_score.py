"""Embedding-similarity score (the paper's "SentenceBERT" metric).

For each (hypothesis, reference) pair the score is the cosine similarity of
the two sentence embeddings; the corpus score is the mean.  With multiple
references the best-matching reference counts, mirroring how the paper's
multi-reference Spider data is scored.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.embeddings import SentenceEmbedder


def embedding_score(
    hypotheses: Sequence[str],
    references: Sequence[Sequence[str]],
    embedder: SentenceEmbedder | None = None,
) -> float:
    """Mean best-reference cosine similarity over the corpus (0..1)."""
    if len(hypotheses) != len(references):
        raise ValueError("hypotheses and references must be parallel")
    if not hypotheses:
        return 0.0
    from repro.embeddings import SentenceEmbedder, cosine_similarity

    if embedder is None:
        embedder = SentenceEmbedder()
    total = 0.0
    for hypothesis, refs in zip(hypotheses, references):
        hyp_vec = embedder.embed(hypothesis)
        best = 0.0
        for ref in refs:
            best = max(best, cosine_similarity(hyp_vec, embedder.embed(ref)))
        total += best
    return total / len(hypotheses)


def pairwise_similarity(a: str, b: str, embedder: SentenceEmbedder | None = None) -> float:
    """Cosine similarity of two sentences' embeddings."""
    from repro.embeddings import SentenceEmbedder, cosine_similarity

    if embedder is None:
        embedder = SentenceEmbedder()
    return cosine_similarity(embedder.embed(a), embedder.embed(b))
