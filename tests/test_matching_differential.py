"""Differential tests: the bit-parallel wrapper against textbook oracles.

``repro.wrapping.matching.levenshtein`` is Myers/Hyyrö's bit-vector
recurrence, and ``most_similar_item`` prunes candidates by length, by
an upper bound on the distance and by an exact-hit lookup.  None of it
may change a result.  The oracles kept here are the plainest possible
forms: the O(|a|·|b|) dynamic programme, and an msi that scores every
item with it and keeps the lexicographically first best.

The whole-wrapper check runs noisy E8 balance sheets of every shape
through the real :class:`~repro.wrapping.Wrapper` twice -- once as is,
once with the oracle msi patched in -- and requires identical output,
floats compared with ``==``.  Seeds derive from ``REPRO_TEST_SEED``.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from typing import List, Optional, Sequence, Tuple

from hypothesis import given, settings, strategies as st

import repro.wrapping.wrapper as wrapper_module
from repro.acquisition import OcrChannel
from repro.core import balance_sheet_scenario
from repro.datasets import generate_balance_sheet
from repro.wrapping import Wrapper
from repro.wrapping.matching import Lexicon, levenshtein, most_similar_item

from tests._seeds import base_seed, describe_seed


def reference_distance(a: str, b: str) -> int:
    """The textbook Levenshtein DP (unit costs), one row at a time."""
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        value = i
        for j, char_b in enumerate(b, start=1):
            value += 1  # insertion
            deletion = previous[j] + 1
            substitution = previous[j - 1] + (char_a != char_b)
            if deletion < value:
                value = deletion
            if substitution < value:
                value = substitution
            current.append(value)
        previous = current
    return previous[-1]


def reference_msi(
    text: str, items: Sequence[str], *, minimum_score: float = 0.0
) -> Tuple[Optional[str], float]:
    """Score every item with the DP; keep the lexicographically first best."""
    normalized = text.lower()
    scored = []
    for item in items:
        candidate = item.lower()
        total = len(normalized) + len(candidate)
        score = (
            1.0 if total == 0
            else 1.0 - reference_distance(normalized, candidate) / total
        )
        scored.append((-score, item))
    if not scored:
        return None, 0.0
    negative_score, item = min(scored)
    best = -negative_score
    if best < minimum_score:
        return None, max(best, 0.0)
    return item, best


SMALL = st.text(alphabet="ab", max_size=20)
WORDS = st.text(alphabet="abcdefgh #0123456789", max_size=40)
UNICODE = st.text(alphabet="aäbß€𝄞 İ", max_size=20)
#: Long enough that the bit-vectors span several machine words.
LONG = st.text(alphabet="abc", min_size=65, max_size=150)
STRINGS = st.one_of(SMALL, WORDS, UNICODE, LONG)


class TestLevenshteinAgainstDP:
    @settings(max_examples=400, deadline=None)
    @given(STRINGS, STRINGS)
    def test_equals_reference(self, a, b):
        assert levenshtein(a, b) == reference_distance(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(SMALL, UNICODE, LONG), st.one_of(SMALL, UNICODE, LONG))
    def test_upper_bound_contract(self, a, b):
        distance = reference_distance(a, b)
        for bound in range(0, distance + 3):
            expected = distance if distance <= bound else bound + 1
            assert levenshtein(a, b, upper_bound=bound) == expected, bound

    def test_long_mixed_strings(self):
        a = "x" * 70 + "€" * 5 + "y" * 70
        b = "y" * 3 + "x" * 68 + "€y" * 40
        assert levenshtein(a, b) == reference_distance(a, b)
        assert levenshtein(b, a) == reference_distance(b, a)


DICTIONARIES = st.lists(
    st.one_of(SMALL, WORDS, UNICODE), min_size=1, max_size=12
)


class TestMostSimilarItemAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(SMALL, WORDS, UNICODE), DICTIONARIES)
    def test_equals_brute_force(self, text, items):
        expected = reference_msi(text, items)
        got = most_similar_item(text, items)
        assert got == expected
        assert most_similar_item(text, Lexicon(items)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(SMALL, WORDS),
        DICTIONARIES,
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_minimum_score_matches(self, text, items, minimum_score):
        assert most_similar_item(
            text, items, minimum_score=minimum_score
        ) == reference_msi(text, items, minimum_score=minimum_score)

    def test_case_twins_tie_break_lexicographically(self):
        items = ["cash", "Cash", "CASH"]
        assert most_similar_item("cash", items) == reference_msi("cash", items)
        assert most_similar_item("cash", items) == ("CASH", 1.0)


# ---------------------------------------------------------------------------
# The whole wrapper on noisy E8 sheets
# ---------------------------------------------------------------------------

SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3)]
N_SHEETS = 200
NOISE = dict(numeric_error_rate=0.04, string_error_rate=0.04)
#: A match threshold only an exact row reaches.
STRICT = 0.99


def noisy_sheets(count: int) -> List[Tuple[int, object, object]]:
    base = base_seed()
    sheets = []
    for index in range(count):
        seed = base + index
        depth, branching = SHAPES[index % len(SHAPES)]
        workload = generate_balance_sheet(depth=depth, branching=branching, seed=seed)
        scenario = balance_sheet_scenario(workload)
        noisy, _ = OcrChannel(seed=seed, **NOISE).corrupt_document(scenario.document)
        sheets.append((seed, scenario, noisy))
    return sheets


def report_digest(report) -> Tuple[list, list]:
    instances = [
        (
            instance.pattern.name,
            instance.table_index,
            instance.row_index,
            instance.score,
            [
                (cell.raw_text, cell.bound_value, cell.score, cell.headline)
                for cell in instance.cells
            ],
        )
        for instance in report.instances
    ]
    unmatched = [
        (row.table_index, row.row_index, row.texts, row.best_score)
        for row in report.unmatched
    ]
    return instances, unmatched


def test_wrapper_output_equals_dp_oracle(monkeypatch):
    # Each sheet is wrapped at its own threshold and at a strict one
    # that leaves every imperfect row unmatched, so unmatched rows and
    # their best scores are compared too.
    runs = [
        (seed, metadata, noisy)
        for seed, scenario, noisy in noisy_sheets(N_SHEETS)
        for metadata in (
            scenario.metadata,
            dataclasses.replace(scenario.metadata, match_threshold=STRICT),
        )
    ]
    fast = [
        report_digest(Wrapper(metadata).wrap_document(noisy))
        for _, metadata, noisy in runs
    ]
    # The oracle is pure and slow: memoise it for this test only.
    monkeypatch.setattr(
        sys.modules[__name__],
        "reference_distance",
        functools.lru_cache(maxsize=None)(reference_distance),
    )
    oracle = functools.lru_cache(maxsize=None)(reference_msi)
    monkeypatch.setattr(
        wrapper_module,
        "most_similar_item",
        lambda text, items: oracle(text, tuple(items)),
    )
    repaired = unmatched = 0
    for (seed, metadata, noisy), got in zip(runs, fast):
        expected = report_digest(Wrapper(metadata).wrap_document(noisy))
        assert got == expected, describe_seed(seed)
        repaired += sum(
            raw != bound
            for *_, cells in expected[0]
            for raw, bound, _, _ in cells
        )
        unmatched += len(expected[1])
    # The sheets really exercise msi repair and unmatched rows, not
    # only exact hits.
    assert repaired > N_SHEETS
    assert unmatched > N_SHEETS
