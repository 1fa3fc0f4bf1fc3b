"""Phase 4 — the Discriminative Phase (Section 3.3.4).

From the candidate questions of Phase 3, select the one or two whose
embeddings are closest to the geometric median of all candidates (Eq. 1):
the candidate maximising the summed cosine similarity to the others wins,
then the process repeats on the remainder.  Semantically corrupted outliers
— which share fewer content words with the consensus — are filtered out
this way, which is exactly the paper's motivation for the phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.embeddings import SentenceEmbedder, geometric_median_ranking


@dataclass
class DiscriminatorConfig:
    """Knobs of the candidate-selection phase (k ∈ {1, 2} in the paper)."""

    top_k: int = 2


class Discriminator:
    """Selects the best candidate questions per SQL query."""

    def __init__(
        self,
        config: DiscriminatorConfig | None = None,
        embedder: SentenceEmbedder | None = None,
    ) -> None:
        self.config = config or DiscriminatorConfig()
        if self.config.top_k <= 0:
            raise ValueError("top_k must be positive")
        self.embedder = embedder or SentenceEmbedder()

    def select(self, candidates: list[str]) -> list[str]:
        """Top-k distinct candidates by the Eq. 1 objective (best first)."""
        pool = list(dict.fromkeys(candidates))
        if len(pool) <= self.config.top_k:
            return pool
        matrix = self.embedder.embed_all(pool)
        ranking = geometric_median_ranking(matrix)
        return [pool[i] for i in ranking[: self.config.top_k]]
