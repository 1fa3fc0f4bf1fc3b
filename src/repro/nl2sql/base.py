"""Common infrastructure of the trainable NL-to-SQL systems.

A system is trained on NL/SQL pairs spanning any number of databases (the
Table 5 regimes mix MiniSpider with domain seed/synth splits) and is asked
to predict SQL for questions over a *registered* database, which supplies
schema, content index and enhanced metadata — mirroring how the paper's
systems receive the target database and its NL column labels at inference.

Training populates two stores per system:

* a per-database :class:`~repro.nl2sql.lexicon.LearnedLexicon` — domain
  phrasing only helps on the domain it was learned from;
* a global :class:`~repro.nl2sql.templates_store.TemplateStore` — query
  *structure* transfers across databases, which is why Spider-trained
  systems produce plausible-but-wrong SQL on scientific domains rather than
  nothing at all.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.datasets.records import NLSQLPair
from repro.engine.database import Database
from repro.errors import TrainingError
from repro.lru import BoundedLRU
from repro.nl2sql.lexicon import LearnedLexicon
from repro.nl2sql.linking import Links, SchemaLinker
from repro.nl2sql.templates_store import TemplateStore
from repro.schema.enhanced import EnhancedSchema


@dataclass
class DomainContext:
    """Everything a system may consult about one registered database."""

    db_id: str
    database: Database
    enhanced: EnhancedSchema


class NLToSQLSystem(abc.ABC):
    """Base class: registration, training bookkeeping, linking."""

    name: str = "abstract"

    #: Bound of the per-system schema-linking memo (see :meth:`link`).
    LINK_CACHE_SIZE = 512

    def __init__(self) -> None:
        self._contexts: dict[str, DomainContext] = {}
        self._linkers: dict[str, SchemaLinker] = {}
        self._lexicons: dict[str, LearnedLexicon] = {}
        self.templates = TemplateStore()
        self._trained = False
        self._link_cache: BoundedLRU[tuple[str, str], Links] = BoundedLRU(
            self.LINK_CACHE_SIZE
        )

    # -- registration -------------------------------------------------------------

    def register_database(
        self, db_id: str, database: Database, enhanced: EnhancedSchema
    ) -> None:
        """Make a database available for training and prediction."""
        context = DomainContext(db_id=db_id, database=database, enhanced=enhanced)
        self._contexts[db_id] = context
        self._linkers[db_id] = SchemaLinker(database, enhanced)
        self._lexicons.setdefault(db_id, LearnedLexicon(db_id=db_id))
        self._link_cache.clear()

    def context(self, db_id: str) -> DomainContext:
        try:
            return self._contexts[db_id]
        except KeyError:
            raise TrainingError(f"database {db_id!r} was never registered") from None

    # -- training -------------------------------------------------------------------

    def train(self, pairs: list[NLSQLPair]) -> None:
        """Train on NL/SQL pairs (all referenced databases must be registered)."""
        if not pairs:
            raise TrainingError("no training pairs supplied")
        for pair in pairs:
            context = self.context(pair.db_id)
            lexicon = self._lexicons[pair.db_id]
            lexicon.observe(pair.question, pair.sql, context.database.schema)
            self.templates.observe(pair.question, pair.sql, context.database.schema)
            self._observe(pair, context)
        self._trained = True
        # Training updates the lexicons, which feed linking.
        self._link_cache.clear()

    def _observe(self, pair: NLSQLPair, context: DomainContext) -> None:
        """Hook for system-specific training statistics."""

    # -- prediction -------------------------------------------------------------------

    def link(self, question: str, db_id: str) -> Links:
        """Schema-link a question (memoized).

        Linking is deterministic in (question, database, lexicon) and no
        consumer mutates the returned :class:`Links`, so results are shared
        through a bounded LRU — a micro-batch warms the memo once and every
        decode inside the batch reuses it.  Training and registration clear
        the memo because both change what linking would return.
        """
        key = (db_id, question)
        links = self._link_cache.get(key)
        if links is None:
            lexicon = self._lexicons.get(db_id)
            links = self._linkers[db_id].link(question, learned=lexicon)
            self._link_cache.put(key, links)
        return links

    def predict(self, question: str, db_id: str) -> str | None:
        """Predict SQL for a question over a registered database."""
        if not self._trained:
            raise TrainingError(f"{self.name} must be trained before predicting")
        return self._predict(question, self.context(db_id))

    @abc.abstractmethod
    def _predict(self, question: str, context: DomainContext) -> str | None:
        """System-specific decoding."""

    def predict_batch(self, questions: list[str], db_id: str) -> list[str | None]:
        """Predict SQL for a batch of questions over one database.

        Byte-identical to calling :meth:`predict` per question — decoding is
        deterministic and pure, which is what lets the serving layer batch
        freely.  Exact duplicate questions decode once; schema linking is
        shared through the link memo.
        """
        if not self._trained:
            raise TrainingError(f"{self.name} must be trained before predicting")
        context = self.context(db_id)
        decoded: dict[str, str | None] = {}
        results: list[str | None] = []
        for question in questions:
            if question not in decoded:
                decoded[question] = self._predict(question, context)
            results.append(decoded[question])
        return results

    def predict_all(self, pairs: list[NLSQLPair]) -> list[str | None]:
        """Predictions for mixed-database pairs, batched per database.

        Offline evaluation (Table 5) and serving share this one inference
        path; outputs are identical to per-pair :meth:`predict` calls.
        """
        results: list[str | None] = [None] * len(pairs)
        by_db: dict[str, list[int]] = {}
        for index, pair in enumerate(pairs):
            by_db.setdefault(pair.db_id, []).append(index)
        for db_id, indices in by_db.items():
            batch = self.predict_batch([pairs[i].question for i in indices], db_id)
            for index, sql in zip(indices, batch):
                results[index] = sql
        return results
