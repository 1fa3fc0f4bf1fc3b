"""The template memory of the ValueNet system.

Training pairs, lifted to SemQL by ``NLToSQLSystem.train``, are anonymized
into templates (the same machinery as the pipeline's seeding phase) and
stored with the centroid of the question feature vectors that produced
them.  Prediction retrieves the templates whose feature centroid best
matches the new question — so a
"how many X per Y" question retrieves GROUP-BY-count templates, a
"difference of u and r" question retrieves math templates, and — decisive
for Table 5 — math/nested templates exist in the store *only if the system
saw such pairs during training*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nl2sql.features import feature_similarity, question_features, question_structure
from repro.nl2sql.structure import TemplateStructure, compatibility, template_structure
from repro.semql import nodes as sq
from repro.semql.templates import Template, extract_template


@dataclass
class TemplateEntry:
    """One stored template with usage statistics."""

    template: Template
    centroid: np.ndarray
    structure: TemplateStructure
    count: int = 1

    def update(self, features: np.ndarray) -> None:
        self.centroid = (self.centroid * self.count + features) / (self.count + 1)
        self.count += 1


@dataclass
class TemplateStore:
    """Signature-keyed template memory."""

    entries: dict[str, TemplateEntry] = field(default_factory=dict)

    def observe(self, question: str, sql: str, z: sq.Z) -> None:
        """Learn the template of one training pair, given ``sql`` as the
        SemQL tree ``z``."""
        template = extract_template(z, source_sql=sql)
        features = question_features(question)
        entry = self.entries.get(template.signature)
        if entry is None:
            self.entries[template.signature] = TemplateEntry(
                template=template,
                centroid=features,
                structure=template_structure(template),
            )
        else:
            entry.update(features)

    def retrieve(
        self,
        question: str,
        k: int = 5,
        n_value_links: int = 0,
        n_table_links: int = 1,
    ) -> list[TemplateEntry]:
        """Top-k templates for a question.

        Ranking combines (most important first) the structural compatibility
        of the template with the question's digest, the learned feature
        centroid, and a frequency prior.  Entries share few structures, so
        each distinct structure is scored once.
        """
        if not self.entries:
            return []
        features = question_features(question)
        q_struct = question_structure(question, n_value_links=n_value_links)
        fits: dict[TemplateStructure, float] = {}
        scored = []
        for signature, entry in self.entries.items():
            fit = fits.get(entry.structure)
            if fit is None:
                fit = fits[entry.structure] = compatibility(q_struct, entry.structure, n_table_links)
            score = 2.0 * fit + feature_similarity(features, entry.centroid)
            scored.append((score + 0.05 * np.log1p(entry.count), signature, entry))
        scored.sort(key=lambda item: (-item[0], item[1]))
        return [entry for _, _, entry in scored[:k]]

    def __len__(self) -> int:
        return len(self.entries)
