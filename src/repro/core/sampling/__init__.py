"""Sampling management for NuPS (Section 4 of the paper)."""

from repro.core.sampling.alias import AliasSampler
from repro.core.sampling.conformity import ConformityLevel, SCHEME_CONFORMITY
from repro.core.sampling.distributions import (
    CategoricalDistribution,
    SamplingDistribution,
    UniformDistribution,
    UnigramDistribution,
)
from repro.core.sampling.manager import SamplingConfig, SamplingManager
from repro.core.sampling.schemes import (
    DEFAULT_SCHEME_FOR_LEVEL,
    SCHEMES_BY_NAME,
    DirectAccessRepurposingScheme,
    IndependentSamplingScheme,
    LocalSamplingScheme,
    PoolSampleReuseScheme,
    PostponingSampleReuseScheme,
    SamplingScheme,
    SchemeConfig,
)

__all__ = [
    "AliasSampler",
    "ConformityLevel",
    "SCHEME_CONFORMITY",
    "SamplingDistribution",
    "UniformDistribution",
    "CategoricalDistribution",
    "UnigramDistribution",
    "SamplingConfig",
    "SamplingManager",
    "SamplingScheme",
    "SchemeConfig",
    "IndependentSamplingScheme",
    "PoolSampleReuseScheme",
    "PostponingSampleReuseScheme",
    "LocalSamplingScheme",
    "DirectAccessRepurposingScheme",
    "DEFAULT_SCHEME_FOR_LEVEL",
    "SCHEMES_BY_NAME",
]
