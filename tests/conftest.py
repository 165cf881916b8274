from __future__ import annotations

import pytest

from twistcat import catalogs
from twistcat.specio import load_spec

FINITE_FIXTURES = ("z2-lattice-on-z4", "super-on-z4", "s3-trivial-grading", "q8-z2")


@pytest.fixture(autouse=True)
def fresh_builtin_catalogs():
    """Each test starts with no builtin catalog built, so a library function
    that a test patches runs when the test builds a builtin, not only when
    an earlier test did."""
    catalogs._shared_catalog.cache_clear()


@pytest.fixture(scope="session")
def categories():
    """The four finite-group bundled fixtures, built once."""
    return {name: load_spec(name).build_category() for name in FINITE_FIXTURES}


@pytest.fixture(scope="session")
def lattice_cat(categories):
    return categories["z2-lattice-on-z4"]


@pytest.fixture(scope="session")
def s3_cat(categories):
    return categories["s3-trivial-grading"]


@pytest.fixture(scope="session")
def q8_cat(categories):
    return categories["q8-z2"]
