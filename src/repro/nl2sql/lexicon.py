"""Learned NL↔schema associations: what training actually teaches a system.

From each NL/SQL training pair, content n-grams of the question are
associated with the schema elements the SQL uses: columns, tables, and —
crucially — literal values ("quasars" ↔ ``specobj.class = 'QSO'``).  At
prediction time these associations let the system link question phrases to
schema elements it could never connect from the schema's surface names
alone, which is precisely why in-domain seed/synth data lifts Table 5
accuracy so sharply over the zero-shot rows.

Association strength is a PMI-flavoured count ratio; high-frequency generic
n-grams ("find the", "of the") wash out automatically because they
co-occur with everything.

The count tables are plain dicts of ints, not ``Counter``s: a trained system
holds tens of thousands of buckets, and plain dicts unpickle on pickle's C
fast path and drop out of the garbage collector's tracking, where every
``Counter`` stays tracked.  Schema linkers are built on first use
(``NLToSQLSystem.link``).

Lexicons are learned by one in-order fold over training pairs (:func:`fold`),
which ``NLToSQLSystem.train`` and the suite's per-split lexicon tasks share.
Folds of consecutive runs of pairs combine with :func:`merged`: counts add
and every key keeps the position it was first seen at, so the result equals
one fold over the runs' concatenated pairs, insertion order included (the
order that breaks :func:`dominant` ties).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.semql import nodes as sq

if TYPE_CHECKING:
    from collections.abc import Sequence

    from repro.datasets.records import NLSQLPair

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:\.[0-9]+)?")
_STOP = frozenset(
    "the a an of for and or to in on with that which are is was were all "
    "any each by from as at be this those these there find show list what "
    "give me return retrieve how many whose who".split()
)


def content_ngrams(question: str, max_n: int = 3) -> list[str]:
    """Content word n-grams (1..max_n) of a question."""
    tokens = _TOKEN_RE.findall(question.lower())
    ngrams: list[str] = []
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            window = tokens[i : i + n]
            if all(t in _STOP for t in window):
                continue
            ngrams.append(" ".join(window))
    return ngrams


def dominant(bucket: dict) -> tuple:
    """The ``(key, count)`` with the highest count, the first such key in
    insertion order on ties: exactly ``Counter(bucket).most_common(1)[0]``."""
    return max(bucket.items(), key=itemgetter(1))


@dataclass
class LearnedLexicon:
    """Phrase→schema-element association tables for one database."""

    db_id: str
    column_assoc: dict[str, dict] = field(default_factory=dict)  # ngram -> {(t,c): n}
    table_assoc: dict[str, dict] = field(default_factory=dict)  # ngram -> {t: n}
    value_assoc: dict[str, dict] = field(default_factory=dict)  # ngram -> {(t,c,v): n}
    ngram_freq: dict[str, int] = field(default_factory=dict)
    n_pairs: int = 0

    # -- training ----------------------------------------------------------------

    def observe(self, question: str, z: sq.Z | None) -> None:
        """Learn from one NL/SQL pair, given its SQL as a SemQL tree.

        ``z`` is None when the SQL is outside the SemQL subset; such pairs
        still count toward n-gram frequency and teach nothing else."""
        # Every set below is walked in sorted order: the tables' insertion
        # order breaks dominant() ties, and set order follows the hash seed.
        ngrams = sorted(set(content_ngrams(question)))
        for ngram in ngrams:
            self.ngram_freq[ngram] = self.ngram_freq.get(ngram, 0) + 1
        self.n_pairs += 1
        if z is None:
            return

        columns: set[tuple[str, str]] = set()
        tables: set[str] = set()
        values: set[tuple[str, str, str]] = set()
        for node in z.walk():
            if isinstance(node, sq.ColumnLeaf) and isinstance(node.table, sq.TableLeaf):
                columns.add((node.table.name.lower(), node.name.lower()))
                tables.add(node.table.name.lower())
            elif isinstance(node, sq.TableLeaf):
                tables.add(node.name.lower())
        for condition in sq.conditions_of(z):
            column = condition.attribute.column
            if not isinstance(column, sq.ColumnLeaf):
                continue
            table = column.table.name.lower() if isinstance(column.table, sq.TableLeaf) else ""
            for leaf in (condition.value, condition.value2):
                if not isinstance(leaf, sq.ValueLeaf) or leaf.value is None:
                    continue
                # Only *text* literals are worth memorising: numbers and
                # booleans always come from the question itself, and learning
                # them would teach spurious column→number associations.
                if isinstance(leaf.value, (bool, int, float)):
                    continue
                values.add((table, column.name.lower(), str(leaf.value).lower()))

        learned = (
            (self.column_assoc, sorted(columns)),
            (self.table_assoc, sorted(tables)),
            (self.value_assoc, sorted(values)),
        )
        for ngram in ngrams:
            for assoc, keys in learned:
                if keys:
                    bucket = assoc.get(ngram)
                    if bucket is None:
                        bucket = assoc[ngram] = {}
                    for key in keys:
                        bucket[key] = bucket.get(key, 0) + 1

    # -- scoring --------------------------------------------------------------------

    def _score(self, assoc: dict[str, dict], ngram: str, key) -> float:
        bucket = assoc.get(ngram)
        if not bucket or key not in bucket:
            return 0.0
        joint = bucket[key]
        freq = self.ngram_freq.get(ngram, 0)
        if freq < 2 or joint < 2:
            return 0.0
        # PMI-ish: how concentrated is this n-gram on this element?
        ratio = joint / freq
        specificity = math.log1p(len(ngram.split()))
        return ratio * specificity * min(1.0, joint / 5.0)

    def concentrated_column_ngrams(self, question: str) -> dict[str, tuple[str, str]]:
        """Question n-grams that *distinctively* name one column.

        Only n-grams whose column association is concentrated (one column
        holds the majority of the n-gram's mass) qualify — generic n-grams
        like a bare table name associate with every column of that table and
        would poison mention-order alignment.
        """
        result: dict[str, tuple[str, str]] = {}
        for ngram in sorted(set(content_ngrams(question))):
            bucket = self.column_assoc.get(ngram)
            if not bucket:
                continue
            best_key, best_count = dominant(bucket)
            total = sum(bucket.values())
            if best_count / total < 0.6:
                continue
            if self._score(self.column_assoc, ngram, best_key) < 0.25:
                continue
            result[ngram] = best_key
        return result

    def column_scores(self, question: str) -> Counter:
        """Aggregated evidence per (table, column) from all question n-grams."""
        scores: Counter = Counter()
        for ngram in sorted(set(content_ngrams(question))):
            bucket = self.column_assoc.get(ngram)
            if not bucket:
                continue
            for key in bucket:
                value = self._score(self.column_assoc, ngram, key)
                if value > 0.05:
                    scores[key] += value
        return scores

    def table_scores(self, question: str) -> Counter:
        scores: Counter = Counter()
        for ngram in sorted(set(content_ngrams(question))):
            bucket = self.table_assoc.get(ngram)
            if not bucket:
                continue
            for key in bucket:
                value = self._score(self.table_assoc, ngram, key)
                if value > 0.05:
                    scores[key] += value
        return scores

    def value_scores(self, question: str) -> Counter:
        """Aggregated evidence per (table, column, value literal).

        Each n-gram credits only its *dominant* value: a question mentioning
        "galaxies" co-occurs in training with every filter that galaxy
        queries happen to carry, but only ``class = 'GALAXY'`` holds the
        majority of the n-gram's mass — crediting the rest would hallucinate
        filters at prediction time.
        """
        scores: Counter = Counter()
        for ngram in sorted(set(content_ngrams(question))):
            bucket = self.value_assoc.get(ngram)
            if not bucket:
                continue
            best_key, best_count = dominant(bucket)
            if best_count / sum(bucket.values()) < 0.5:
                continue
            # The n-gram must also be *specific to* the value: a generic
            # word appearing in most questions ("spectroscopic") would
            # otherwise credit whatever value dominates the training mix.
            freq = self.ngram_freq.get(ngram, 0)
            if freq and best_count / freq < 0.55:
                continue
            value = self._score(self.value_assoc, ngram, best_key)
            if value > 0.05:
                scores[best_key] += value
        return scores


def fold(
    lexicons: dict[str, LearnedLexicon], pairs: Sequence[NLSQLPair], trees: Sequence
) -> dict[str, LearnedLexicon]:
    """Observe each pair, with its SemQL tree, on its database's lexicon, in
    pair order; a database's lexicon is created at its first pair."""
    for pair, z in zip(pairs, trees):
        lexicon = lexicons.get(pair.db_id)
        if lexicon is None:
            lexicon = lexicons[pair.db_id] = LearnedLexicon(db_id=pair.db_id)
        lexicon.observe(pair.question, z)
    return lexicons


def merged(db_id: str, parts: Sequence[LearnedLexicon]) -> LearnedLexicon:
    """A new lexicon of ``db_id`` equal to one fold over the pairs of
    ``parts`` in order (empty when there are none); the parts are not
    changed."""
    lexicon = LearnedLexicon(db_id=db_id)
    for part in parts:
        for mine, theirs in (
            (lexicon.column_assoc, part.column_assoc),
            (lexicon.table_assoc, part.table_assoc),
            (lexicon.value_assoc, part.value_assoc),
        ):
            for ngram, counts in theirs.items():
                bucket = mine.get(ngram)
                if bucket is None:
                    mine[ngram] = dict(counts)
                    continue
                for key, n in counts.items():
                    bucket[key] = bucket.get(key, 0) + n
        for ngram, n in part.ngram_freq.items():
            lexicon.ngram_freq[ngram] = lexicon.ngram_freq.get(ngram, 0) + n
        lexicon.n_pairs += part.n_pairs
    return lexicon
