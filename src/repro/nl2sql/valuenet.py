"""ValueNet-style system: grammar-based parsing over SemQL with value filling.

Follows the real ValueNet's recipe (Brunner & Stockinger 2021): encode the
question against the schema (here: schema linking + learned lexicon),
decode a SemQL tree (here: retrieve learned templates and fill their slots
from the links), then make the query executable by extracting *values* from
the question and the database content — ValueNet's distinguishing feature,
and the reason it profits most from in-domain data in Table 5.  The SemQL
grammar includes the paper's math-operator extension, so SDSS colour-cut
queries are representable once math templates were seen in training.

Every beam candidate is validated by execution; the best-scoring candidate
that runs is returned (grammar-constrained decoding never emits unparseable
SQL).
"""

from __future__ import annotations

from repro.datasets.records import NLSQLPair
from repro.errors import ReproError
from repro.nl2sql.base import DomainContext, NLToSQLSystem
from repro.nl2sql.instantiate import GuidedInstantiator
from repro.nl2sql.templates_store import TemplateStore
from repro.semql import nodes as sq
from repro.semql.to_sql import semql_to_sql
from repro.sql import ast, parse


class ValueNet(NLToSQLSystem):
    """Grammar/IR-based NL-to-SQL with value grounding."""

    name = "valuenet"

    def __init__(self, beam_size: int = 6) -> None:
        super().__init__()
        self.beam_size = beam_size
        self.templates = TemplateStore()

    def _observe(self, pair: NLSQLPair, z: sq.Z | None) -> None:
        if z is not None:
            self.templates.observe(pair.question, pair.sql, z)

    def _predict(self, question: str, context: DomainContext) -> str | None:
        links = self.link(question, context.db_id)
        instantiator = GuidedInstantiator(context.database, context.enhanced)
        # Distinct literal *texts*: one value matching both ends of a foreign
        # key is still a single mention.
        strong_values = len(
            {str(v.value).lower() for v in links.values if v.score >= 1.0}
        )
        entries = self.templates.retrieve(
            question,
            k=self.beam_size,
            n_value_links=strong_values,
            n_table_links=max(1, len(links.evidence_tables())),
        )

        best_sql: str | None = None
        best_score = float("-inf")
        for rank, entry in enumerate(entries):
            try:
                tree = instantiator.instantiate(entry.template, links, question)
                sql = semql_to_sql(tree, context.database.schema)
            except ReproError:
                continue
            # Parsed once: the same AST is executed and scored.
            try:
                query = parse(sql)
            except (ReproError, RecursionError):
                continue
            result = context.database.try_execute(query)
            if result is None:
                continue
            score = self._score(rank, links, sql, bool(result.rows), query)
            if score > best_score:
                best_score = score
                best_sql = sql
        return best_sql

    def _score(
        self, rank: int, links, sql: str, nonempty: bool, query: ast.Query
    ) -> float:
        """Prefer higher-ranked templates whose fill used linked evidence
        and did not hallucinate literals the question never mentioned.

        ``query`` is ``sql`` already parsed."""
        score = -1.2 * float(rank)
        lowered = sql.lower()
        evidence_bonus = 0.0
        for (_table, column), weight in links.columns.items():
            if column in lowered:
                evidence_bonus += 0.1 * min(weight, 3.0)
        known_literals = {str(v.value).lower() for v in links.values}
        known_literals |= {f"{n:g}" for n in links.numbers}
        known_literals |= {str(int(n)) for n in links.numbers if float(n).is_integer()}
        for link in links.values[:5]:
            if str(link.value).lower() in lowered:
                evidence_bonus += 0.3
        score += min(evidence_bonus, 1.0)
        for literal in ast.literals(query):
            if literal.value is None:
                continue
            text = (
                f"{literal.value:g}"
                if isinstance(literal.value, float)
                else str(literal.value)
            ).lower()
            if text not in known_literals:
                score -= 0.8
        if nonempty:
            score += 0.3
        return score
