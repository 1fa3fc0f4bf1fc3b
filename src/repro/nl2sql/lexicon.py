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
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.semql import nodes as sq
from repro.semql.from_sql import sql_to_semql
from repro.sql import parse

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


@dataclass
class LearnedLexicon:
    """Phrase→schema-element association tables for one database."""

    db_id: str
    column_assoc: dict[str, Counter] = field(default_factory=dict)  # ngram -> {(t,c): n}
    table_assoc: dict[str, Counter] = field(default_factory=dict)  # ngram -> {t: n}
    value_assoc: dict[str, Counter] = field(default_factory=dict)  # ngram -> {(t,c,v): n}
    ngram_freq: Counter = field(default_factory=Counter)
    n_pairs: int = 0

    # -- training ----------------------------------------------------------------

    def observe(self, question: str, sql: str, schema) -> bool:
        """Learn from one NL/SQL pair; returns False if the SQL is outside
        the SemQL subset (such pairs still count toward n-gram frequency)."""
        # Every set below is walked in sorted order: the counters' insertion
        # order breaks most_common() ties, and set order follows the hash seed.
        ngrams = sorted(set(content_ngrams(question)))
        for ngram in ngrams:
            self.ngram_freq[ngram] += 1
        self.n_pairs += 1
        try:
            z = sql_to_semql(parse(sql), schema)
        except ReproError:
            return False

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
                    bucket = assoc.setdefault(ngram, Counter())
                    for key in keys:
                        bucket[key] += 1
        return True

    # -- scoring --------------------------------------------------------------------

    def _score(self, assoc: dict[str, Counter], ngram: str, key) -> float:
        bucket = assoc.get(ngram)
        if not bucket or key not in bucket:
            return 0.0
        joint = bucket[key]
        freq = self.ngram_freq[ngram]
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
            (best_key, best_count), = bucket.most_common(1)
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
            (best_key, best_count), = bucket.most_common(1)
            if best_count / sum(bucket.values()) < 0.5:
                continue
            # The n-gram must also be *specific to* the value: a generic
            # word appearing in most questions ("spectroscopic") would
            # otherwise credit whatever value dominates the training mix.
            freq = self.ngram_freq[ngram]
            if freq and best_count / freq < 0.55:
                continue
            value = self._score(self.value_assoc, ngram, best_key)
            if value > 0.05:
                scores[best_key] += value
        return scores
