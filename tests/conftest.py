"""Shared fixtures: a small, fast benchmark reused across unit tests.

``HYPOTHESIS_PROFILE=ci`` selects the CI profile: derandomised examples, no
deadline, and a reproduction blob printed with every failure.
"""
import os

import numpy as np
import pytest
from hypothesis import settings

from flowcamo.core import split_dataset
from flowcamo.harness import synth

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def pool_schema():
    return synth.attacker_pool_schema()


@pytest.fixture(scope="session")
def target_schema():
    return synth.target_schema()


@pytest.fixture(scope="session")
def profiles(pool_schema):
    return synth.default_profiles(pool_schema, n_classes=8)


@pytest.fixture(scope="session")
def small_dataset(profiles, pool_schema):
    return synth.generate_dataset(profiles, rows_per_class=60, seed=7, schema=pool_schema)


@pytest.fixture(scope="session")
def small_split(small_dataset):
    return split_dataset(small_dataset, 0.8, seed=7)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
