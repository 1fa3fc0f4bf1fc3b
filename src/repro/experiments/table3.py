"""Table 3 — SQL-to-NL translation quality of the four (simulated) LLMs.

Each model translates a sample of MiniSpider dev queries to natural
language; outputs are scored with SacreBLEU and embedding similarity
("SentenceBERT") against the gold questions, and with the equivalence judge
standing in for the paper's seven human experts.  §4.1.2's per-domain expert
rates (CORDIS 82% / OncoMX 73% / SDSS 53% in the paper) use the same judge
on the domain dev queries translated by the domain-fine-tuned GPT-3 model.

Expected shape (as in the paper): fine-tuned GPT-3 wins both automatic
metrics; the two GPT-3 variants beat GPT-2 and T5 on the expert rate;
SDSS is the hardest domain to verbalise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.experiments.reporting import render_table
from repro.experiments.tasks import domain_task, limited, salted_rng, table_task

if TYPE_CHECKING:
    from repro.experiments.runner import BenchmarkSuite


@dataclass
class Table3Row:
    model: str
    sacrebleu: float
    sentence_score: float
    expert_rate: float


def table3_task(params: dict, inputs: dict) -> dict:
    """Both parts of Table 3: ``"models"``, the four models' rows on a
    MiniSpider dev sample, and ``"domains"``, the §4.1.2 expert rate of each
    domain (name -> rate)."""
    return {
        "models": _model_rows(params, inputs["corpus"]),
        "domains": _domain_expert_rates(params, inputs),
    }


def _model_rows(params: dict, corpus) -> list[Table3Row]:
    """The Spider-dev section of Table 3 (four models, three metrics)."""
    from repro.llm.models import ALL_PROFILES, GPT3_ZERO_PROFILE, make_model
    from repro.metrics.bleu import corpus_bleu
    from repro.metrics.embedding_score import embedding_score
    from repro.metrics.equivalence import EquivalenceJudge

    seed = params["seed"]
    rng = salted_rng(seed, "table3-sample")
    sample = corpus.dev.pairs[:]
    rng.shuffle(sample)
    sample = sample[: params["table3_sample"]]

    rows = []
    for profile in ALL_PROFILES:
        model = make_model(profile, seed=seed)
        if profile is not GPT3_ZERO_PROFILE:
            # The paper fine-tunes GPT-2/GPT-3/T5 on Spider training pairs.
            for db_id in corpus.databases:
                db_train = [p for p in corpus.train.pairs if p.db_id == db_id]
                model.fine_tune(db_train, domain=db_id, lexicon=None)

        hypotheses = []
        references = []
        judged = 0
        for pair in sample:
            enhanced = corpus.enhanced[pair.db_id]
            hypothesis = model.translate_best(pair.sql, enhanced, domain=pair.db_id)
            hypotheses.append(hypothesis)
            refs = [pair.question]
            # Extra canonical paraphrases emulate Spider's multi-reference NL.
            realizer = corpus.realizer_for(pair.db_id)
            ref_rng = salted_rng(seed, f"table3-ref:{pair.sql}")
            try:
                refs.extend(realizer.candidates(pair.sql, 2, ref_rng))
            except ReproError:
                pass
            references.append(refs)
            judge = EquivalenceJudge(enhanced)
            if judge.judge(hypothesis, pair.sql).equivalent:
                judged += 1

        rows.append(
            Table3Row(
                model=profile.name,
                sacrebleu=corpus_bleu(hypotheses, references).score,
                sentence_score=embedding_score(hypotheses, references),
                expert_rate=judged / max(len(sample), 1),
            )
        )
    return rows


def _domain_expert_rates(params: dict, inputs: dict) -> dict[str, float]:
    """§4.1.2: expert rates of domain-fine-tuned GPT-3 on each domain's dev."""
    from repro.llm.models import GPT3_PROFILE, make_model
    from repro.metrics.equivalence import EquivalenceJudge

    rates = {}
    for name in params["domains"]:
        domain = inputs[domain_task(name)]
        model = make_model(GPT3_PROFILE, seed=params["seed"])
        model.fine_tune(domain.seed.pairs, domain=name, lexicon=domain.lexicon)
        judge = EquivalenceJudge(domain.enhanced, lexicon=domain.lexicon)
        correct = 0
        pairs = limited(domain.dev.pairs, params["dev_limit"])
        for pair in pairs:
            hypothesis = model.translate_best(pair.sql, domain.enhanced, domain=name)
            if judge.judge(hypothesis, pair.sql).equivalent:
                correct += 1
        rates[name] = correct / max(len(pairs), 1)
    return rates


def compute_table3(suite: BenchmarkSuite) -> list[Table3Row]:
    """The Spider-dev section of Table 3, from the ``table:3`` task."""
    return suite.artifact(table_task("3"))["models"]


def compute_domain_expert_rates(suite: BenchmarkSuite) -> dict[str, float]:
    """§4.1.2's per-domain expert rates, from the ``table:3`` task."""
    return suite.artifact(table_task("3"))["domains"]


def render_table3(suite: BenchmarkSuite) -> str:
    rows = compute_table3(suite)
    spider_part = render_table(
        "Table 3 — SQL-to-NL quality of the simulated LLMs (MiniSpider dev)",
        ["Model", "SacreBLEU", "SentenceScore", "Expert rate"],
        [
            (r.model, round(r.sacrebleu, 2), round(r.sentence_score, 3), round(r.expert_rate, 3))
            for r in rows
        ],
    )
    domain_rates = compute_domain_expert_rates(suite)
    domain_part = render_table(
        "Section 4.1.2 — domain expert rates of fine-tuned GPT-3",
        ["Domain", "Expert rate"],
        [(name, round(rate, 3)) for name, rate in domain_rates.items()],
        note="Paper: CORDIS 0.82, OncoMX 0.73, SDSS 0.53 (SDSS hardest).",
    )
    return spider_part + "\n\n" + domain_part
