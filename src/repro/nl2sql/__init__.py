"""Trainable NL-to-SQL systems: ValueNet, T5 (w/o Picard) and SmBoP."""

from repro.nl2sql.base import DomainContext, NLToSQLSystem
from repro.nl2sql.features import extract_limit, extract_numbers, question_features
from repro.nl2sql.lexicon import LearnedLexicon, content_ngrams
from repro.nl2sql.linking import Links, SchemaLinker, ValueLink
from repro.nl2sql.smbop import SmBoP
from repro.nl2sql.t5 import T5Seq2Seq
from repro.nl2sql.templates_store import TemplateStore
from repro.nl2sql.valuenet import ValueNet

ALL_SYSTEMS = (ValueNet, T5Seq2Seq, SmBoP)
#: The systems by name (``repro.experiments.tasks.SYSTEMS`` lists the names).
SYSTEM_CLASSES = {system.name: system for system in ALL_SYSTEMS}

__all__ = [
    "NLToSQLSystem",
    "DomainContext",
    "ValueNet",
    "T5Seq2Seq",
    "SmBoP",
    "ALL_SYSTEMS",
    "SYSTEM_CLASSES",
    "SchemaLinker",
    "Links",
    "ValueLink",
    "LearnedLexicon",
    "TemplateStore",
    "question_features",
    "extract_numbers",
    "extract_limit",
    "content_ngrams",
]
