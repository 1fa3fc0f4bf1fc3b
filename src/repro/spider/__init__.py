"""MiniSpider: the Spider-benchmark stand-in (hardness, domains, corpus)."""

from repro.lazy import lazy_exports

__getattr__ = lazy_exports(
    __name__,
    {
        "repro.spider.corpus": ("SpiderCorpus", "build_corpus"),
        "repro.spider.domains": ("DOMAIN_BUILDERS",),
        "repro.spider.hardness": (
            "HARDNESS_LEVELS", "classify_hardness", "hardness_distribution",
        ),
        "repro.spider.sampler": ("QuerySampler",),
    },
)

__all__ = [
    "SpiderCorpus",
    "build_corpus",
    "DOMAIN_BUILDERS",
    "classify_hardness",
    "hardness_distribution",
    "HARDNESS_LEVELS",
    "QuerySampler",
]
