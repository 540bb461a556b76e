"""Shared fixtures: the profile corpus and one full lemma-report run."""

import pytest
from hypothesis import HealthCheck, settings

from ostrovsky_lab.corpus import default_corpus
from ostrovsky_lab.lemmas import run_corpus

settings.register_profile(
    "lab",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("lab")


@pytest.fixture(scope="session")
def corpus():
    return default_corpus()


@pytest.fixture(scope="session")
def corpus_by_id(corpus):
    return {entry.profile_id: entry for entry in corpus}


@pytest.fixture(scope="session")
def design_t(corpus):
    """Largest |t| each built-in profile is designed to propagate at, by profile id.

    The four low-tier profiles are resolved out to t = 1, the rest at t = 1e-3.
    """
    low = {"gauss_low", "gauss_low_even", "band_unit", "band_low_even"}
    return {e.profile_id: 1.0 if e.profile_id in low else 1e-3 for e in corpus}


@pytest.fixture(scope="session")
def lemma_reports(corpus):
    """One full corpus verification pass, shared by every test that reads it."""
    return run_corpus(corpus, threads=4)
