"""T5-style system: sequence-to-sequence translation without constrained
decoding.

The paper runs T5-Large *without* Picard (its Haskell decoder did not
build), i.e. an unconstrained text-to-text model.  We model that behaviour
with a translation memory: the training pair whose question embedding is
nearest to the input question supplies the query structure, which is then
adapted to the target database.  The memory keeps each training pair with
its template; the question embeddings are rebuilt on first use (they are
a pure function of the questions), so a trained artifact holds none.  Two
T5-characteristic behaviours are kept:

* strong when a similar question was seen in training (hence the large
  +synth gains in Table 5 — synthetic data floods the memory with in-domain
  neighbours);
* *unconstrained*: when guided adaptation fails, the raw retrieved SQL is
  emitted with naive value substitution — which may reference tables that do
  not exist on the target database and simply fails execution, exactly like
  an unconstrained seq2seq hallucinating schema elements.
"""

from __future__ import annotations

import re

import numpy as np

from repro.datasets.records import NLSQLPair
from repro.embeddings import SentenceEmbedder
from repro.errors import ReproError
from repro.nl2sql.base import DomainContext, NLToSQLSystem
from repro.nl2sql.features import question_structure
from repro.nl2sql.instantiate import GuidedInstantiator
from repro.nl2sql.structure import TemplateStructure, compatibility, template_structure
from repro.semql import nodes as sq
from repro.semql.templates import Template, extract_template
from repro.semql.to_sql import semql_to_sql

_LITERAL_RE = re.compile(r"'[^']*'|(?<![\w.])\d+(?:\.\d+)?(?![\w.])")


class T5Seq2Seq(NLToSQLSystem):
    """Translation-memory seq2seq NL-to-SQL (T5-Large w/o Picard analogue)."""

    name = "t5-large"

    def __init__(self, memory_neighbours: int = 5) -> None:
        super().__init__()
        self.memory_neighbours = memory_neighbours
        self.embedder = SentenceEmbedder()
        self._memory: list[tuple[NLSQLPair, Template | None, TemplateStructure | None]] = []
        #: ``embedder.embed`` of each memory entry's question, built by the
        #: first ``_nearest`` and never pickled.
        self._embeddings: list[np.ndarray] | None = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_embeddings": None}

    def _observe(self, pair: NLSQLPair, z: sq.Z | None) -> None:
        template: Template | None = None
        structure: TemplateStructure | None = None
        if z is not None:
            template = extract_template(z, source_sql=pair.sql)
            structure = template_structure(template)
        self._memory.append((pair, template, structure))
        self._embeddings = None

    def _predict(self, question: str, context: DomainContext) -> str | None:
        if not self._memory:
            return None
        links = self.link(question, context.db_id)
        strong_values = len({str(v.value).lower() for v in links.values if v.score >= 1.0})
        neighbours = self._nearest(question, context.db_id, n_value_links=strong_values)
        instantiator = GuidedInstantiator(context.database, context.enhanced)

        first_decodable: str | None = None
        for _, _pair, template in neighbours:
            if template is None:
                continue
            try:
                tree = instantiator.instantiate(template, links, question)
                sql = semql_to_sql(tree, context.database.schema)
            except ReproError:
                continue
            if first_decodable is None:
                first_decodable = sql
            if context.database.try_execute(sql) is not None:
                return sql
        if first_decodable is not None:
            return first_decodable

        # Unconstrained fallback: copy the nearest SQL, substituting linked
        # values positionally.  Often invalid on the target database — the
        # hallmark failure of decoding without Picard.
        nearest_sql = neighbours[0][1].sql
        return self._naive_adapt(nearest_sql, links)

    def _nearest(self, question: str, db_id: str, n_value_links: int = 0):
        """Neighbours by embedding similarity, re-ranked by the structural
        plausibility a trained decoder would enforce (scored once per
        distinct structure: the memory holds few)."""
        embeddings = self._embeddings
        if embeddings is None:
            embeddings = self._embeddings = [
                self.embedder.embed(pair.question) for pair, _, _ in self._memory
            ]
        query_vec = self.embedder.embed(question)
        q_struct = question_structure(question, n_value_links=n_value_links)
        fits: dict[TemplateStructure, float] = {}
        scored = []
        for embedding, (pair, template, structure) in zip(embeddings, self._memory):
            similarity = float(np.dot(query_vec, embedding))
            if pair.db_id == db_id:
                similarity += 0.15  # in-domain prior
            if structure is not None:
                fit = fits.get(structure)
                if fit is None:
                    fit = fits[structure] = compatibility(q_struct, structure)
                similarity += 0.2 * fit
            scored.append((similarity, pair, template))
        scored.sort(key=lambda item: (-item[0], item[1].sql))
        return scored[: self.memory_neighbours]

    def _naive_adapt(self, sql: str, links) -> str:
        replacements = [
            f"'{v.value}'" if isinstance(v.value, str) else str(v.value)
            for v in links.values[:4]
        ]
        replacements.extend(str(n) for n in links.numbers)
        iterator = iter(replacements)

        def substitute(match: re.Match) -> str:
            try:
                return next(iterator)
            except StopIteration:
                return match.group(0)

        return _LITERAL_RE.sub(substitute, sql)
