"""Common infrastructure of the trainable NL-to-SQL systems.

A system is trained on NL/SQL pairs spanning any number of databases (the
Table 5 regimes mix MiniSpider with domain seed/synth splits) and is asked
to predict SQL for questions over an *attached* database, which supplies
schema, content index, enhanced metadata and the database's learned
lexicon — mirroring how the paper's systems receive the target database and
its NL column labels at inference.

Training lifts each pair's SQL to SemQL once (:func:`lift`) and feeds the
tree to two learners:

* a per-database :class:`~repro.nl2sql.lexicon.LearnedLexicon`
  (:func:`~repro.nl2sql.lexicon.fold`) — domain phrasing only helps on the
  domain it was learned from;
* the system's :meth:`NLToSQLSystem._observe` hook — ValueNet's template
  store, T5's translation memory, SmBoP's projection prior.  The first two
  are global: query *structure* transfers across databases, which is why
  Spider-trained systems produce plausible-but-wrong SQL on scientific
  domains rather than nothing at all.

There are two ways in.  ``register_database`` + ``train(pairs)`` does it
all in the system: lift, fold the registered databases' lexicons, observe.
The suite's task graph splits that up (``repro.experiments.tasks``): a
:class:`PreparedSplit` task lifts each training split once, a lexicon task
folds that split's lexicons, and a train task calls ``train(pairs, trees)``
with the trees already lifted, which runs only the hook.  A graph-trained
artifact therefore holds what only its system learned — no database, no
lexicon, and (for T5) no embedding, which is rebuilt on first use.  Before
it predicts, each consumer takes its own :meth:`NLToSQLSystem.detached`
copy and :meth:`NLToSQLSystem.attach`-es to it each database it will be
asked about, with the lexicon its regime learned there.  The trained object
itself never changes, so one object (several regimes may share one key)
serves every target and decode thread.
"""

from __future__ import annotations

import abc
import copy
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.datasets.records import NLSQLPair
from repro.engine.database import Database
from repro.errors import ReproError, TrainingError
from repro.lru import BoundedLRU
from repro.nl2sql.lexicon import LearnedLexicon, fold
from repro.nl2sql.linking import Links, SchemaLinker
from repro.schema.enhanced import EnhancedSchema
from repro.schema.model import Schema
from repro.semql import nodes as sq
from repro.semql.from_sql import sql_to_semql
from repro.sql import parse


def lift(pairs: Sequence[NLSQLPair], schemas: Mapping[str, Schema]) -> list[sq.Z | None]:
    """Each pair's SQL parsed and lifted to SemQL over its database's schema,
    or None when the SQL is outside the SemQL subset.

    Raises :class:`TrainingError` for a pair whose database has no schema in
    ``schemas`` (an unregistered database)."""
    trees: list[sq.Z | None] = []
    for pair in pairs:
        schema = schemas.get(pair.db_id)
        if schema is None:
            raise TrainingError(f"database {pair.db_id!r} was never registered")
        try:
            trees.append(sql_to_semql(parse(pair.sql), schema))
        except ReproError:
            trees.append(None)
    return trees


@dataclass
class PreparedSplit:
    """One training split with each pair's SemQL tree (:func:`lift`)."""

    # Trees pickle first: their many repeated short strings then take the
    # low memo slots, which a split pickles 22% smaller than pairs-first.
    trees: list[sq.Z | None]
    pairs: list[NLSQLPair]


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
        self._trained = False
        self._link_cache: BoundedLRU[tuple[str, str], Links] = BoundedLRU(
            self.LINK_CACHE_SIZE
        )

    # -- registration -------------------------------------------------------------

    def register_database(
        self, db_id: str, database: Database, enhanced: EnhancedSchema
    ) -> None:
        """Make a database available for training and prediction; its
        lexicon starts empty and :meth:`train` fills it."""
        lexicon = self._lexicons.get(db_id) or LearnedLexicon(db_id=db_id)
        self.attach(db_id, database, enhanced, lexicon)

    def attach(
        self,
        db_id: str,
        database: Database,
        enhanced: EnhancedSchema,
        lexicon: LearnedLexicon,
    ) -> None:
        """Answer questions over ``database`` with ``lexicon``, learned from
        this system's training pairs on it.  Other attached databases stay;
        attaching the same database again replaces its entry."""
        self._contexts[db_id] = DomainContext(db_id=db_id, database=database, enhanced=enhanced)
        self._lexicons[db_id] = lexicon
        self._linkers.pop(db_id, None)
        self._link_cache.clear()

    def detached(self) -> NLToSQLSystem:
        """A copy that shares what training learned (read-only once
        trained) but no attached database, lexicon, linker or link memo:
        each consumer attaches its target to its own copy, so one trained
        object serves any number of targets and decode threads unchanged."""
        system = copy.copy(self)
        system._contexts, system._linkers, system._lexicons = {}, {}, {}
        system._link_cache = BoundedLRU(self.LINK_CACHE_SIZE)
        return system

    def context(self, db_id: str) -> DomainContext:
        try:
            return self._contexts[db_id]
        except KeyError:
            raise TrainingError(f"database {db_id!r} was never registered") from None

    # -- training -------------------------------------------------------------------

    def train(
        self, pairs: list[NLSQLPair], trees: Sequence[sq.Z | None] | None = None
    ) -> None:
        """Train on NL/SQL pairs, in order.

        Without ``trees``, every referenced database must be registered:
        the pairs are lifted (:func:`lift`) and fold into the registered
        lexicons.  ``trees`` are the pairs' trees as prepared splits lifted
        them; then only :meth:`_observe` learns, and the lexicons come with
        :meth:`attach`."""
        if not pairs:
            raise TrainingError("no training pairs supplied")
        if trees is None:
            schemas = {db_id: c.database.schema for db_id, c in self._contexts.items()}
            trees = lift(pairs, schemas)
            fold(self._lexicons, pairs, trees)
        for pair, z in zip(pairs, trees):
            self._observe(pair, z)
        self._trained = True
        # Training updates the lexicons, which feed linking.
        self._link_cache.clear()

    def _observe(self, pair: NLSQLPair, z: sq.Z | None) -> None:
        """Hook for system-specific training statistics; ``z`` is the pair's
        SemQL tree, or None when its SQL is outside the SemQL subset."""

    # -- prediction -------------------------------------------------------------------

    def link(self, question: str, db_id: str) -> Links:
        """Schema-link a question (memoized).

        Linking is deterministic in (question, database, lexicon) and no
        consumer mutates the returned :class:`Links`, so results are shared
        through a bounded LRU — a micro-batch warms the memo once and every
        decode inside the batch reuses it.  Training and registration clear
        the memo because both change what linking would return.  Each
        database's :class:`SchemaLinker` is built here on first use, so a
        trained system carries none.
        """
        key = (db_id, question)
        links = self._link_cache.get(key)
        if links is None:
            linker = self._linkers.get(db_id)
            if linker is None:
                context = self.context(db_id)
                linker = SchemaLinker(context.database, context.enhanced)
                self._linkers[db_id] = linker
            links = linker.link(question, learned=self._lexicons.get(db_id))
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
