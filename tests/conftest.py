"""Shared fixtures: the paper's running example and small workloads."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.datasets import (
    cash_budget_constraints,
    cash_budget_schema,
    generate_balance_sheet,
    generate_cash_budget,
    generate_catalog,
    paper_acquired_instance,
    paper_ground_truth,
)

from tests._seeds import base_seed

#: Hypothesis runs deterministically: no local example database (a
#: counterexample cached by one run must not decide the next), and
#: every draw comes from the ``REPRO_TEST_SEED`` stream (see
#: ``tests/_seeds.py``).  A test's own ``@seed`` still takes priority.
settings.register_profile("repro", database=None)
settings.load_profile("repro")


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    # Runs before the Hypothesis plugin reads its seed option; an
    # explicit ``--hypothesis-seed`` on the command line wins.
    if config.getoption("hypothesis_seed", default=None) is None:
        config.option.hypothesis_seed = str(base_seed())


@pytest.fixture
def schema():
    return cash_budget_schema()


@pytest.fixture
def ground_truth():
    """The consistent instance of Figure 1."""
    return paper_ground_truth()


@pytest.fixture
def acquired():
    """The acquired instance of Figure 3 (250 instead of 220)."""
    return paper_acquired_instance()


@pytest.fixture
def constraints():
    """Constraints 1-3 of the running example."""
    return cash_budget_constraints()


@pytest.fixture
def cash_workload():
    return generate_cash_budget(n_years=2, seed=1)


@pytest.fixture
def balance_workload():
    return generate_balance_sheet(depth=2, branching=2, seed=1)


@pytest.fixture
def catalog_workload():
    return generate_catalog(n_categories=2, products_per_category=3, seed=1)
