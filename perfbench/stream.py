"""The ``serve`` workload's request stream.

The stream asks the dev questions of the served domains, each at most once
and as written, in an order drawn from the workload seed.  No two requests
share the normalized form the server's result cache keys on, so no request
can hit the cache.

Paraphrased wordings (``repro.nlgen.augmentations.augment_pairs``) are not
used: a paraphrase can link to a different schema element and decode in a
very different time, so drawing them per seed moved the latency tail by up
to 2x between seeds while the same questions as written kept it within
about 6%.  The stream is a pure function of (dev questions, seed).
"""

from __future__ import annotations

import random


def build_stream(dev_pairs_by_domain: dict, seed: int, n: int) -> list[tuple[str, str]]:
    """``n`` distinct ``(domain, question)`` requests for one seed.

    ``dev_pairs_by_domain`` maps a domain name to its dev ``NLSQLPair``
    list.  Raises ``ValueError`` when fewer than ``n`` distinct questions
    exist.
    """
    from repro.textutil import normalize_question

    seen: set[tuple[str, str]] = set()
    questions: list[tuple[str, str]] = []
    for domain in sorted(dev_pairs_by_domain):
        for pair in dev_pairs_by_domain[domain]:
            key = (domain, normalize_question(pair.question))
            if key not in seen:
                seen.add(key)
                questions.append((domain, pair.question))
    if n > len(questions):
        raise ValueError(
            f"a stream of {n} requests needs {n} distinct questions; "
            f"the dev splits supply {len(questions)}"
        )
    random.Random(seed).shuffle(questions)
    return questions[:n]
