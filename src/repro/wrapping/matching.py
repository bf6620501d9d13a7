"""String similarity, dictionary repair (msi) and t-norms.

The wrapper scores the match between a table cell and a row-pattern
cell.  For lexical-domain cells the score is the best similarity
between the cell text and any lexical item of the domain; the item
achieving it is the *most similar item* (msi), and binding the
instance to the msi instead of the raw text is the wrapper-level
"repair" of misspelled strings (Section 6.2).

Similarity is normalised Levenshtein::

    sim(a, b) = 1 - dist(a, b) / (len(a) + len(b))

This normalisation makes the paper's Example 13 concrete: with the
OCR misreading "bgnning cesh" of "beginning cash" the distance is 3
over combined length 26, giving a score of ~0.885 -- the "90%" cell
score of Figure 7(b) (an exact match scores 100%).

The distance is computed bit-parallel (Myers 1999, in Hyyrö's 2003
form for the global Levenshtein distance): one DP column per character
of the longer string, the whole column held as two delta bit-vectors
in Python ints, so a comparison costs a dozen integer operations per
character instead of a Python-level inner loop.  It is the same
distance the textbook DP computes, exactly.

The msi search keeps the first best item in sorted order, and skips
only work that cannot change that answer:

- a text equal (case-blind) to an item scores 1.0, the maximum, so
  the first such item is the answer; a per-dictionary lookup finds it
  without a scan;
- once an incumbent with score ``best`` exists, a later item of
  combined length ``total`` replaces it only with a distance
  ``d < total * (1 - best)``, i.e. ``d <= budget = floor(total *
  (1 - best))``.  An item whose length differs from the text's by more
  than the budget is skipped without a distance call
  (``|len(a) - len(b)|`` bounds the distance from below); otherwise
  the distance is asked with ``upper_bound=budget`` and answers
  ``budget + 1`` for anything beyond it.  That value is at least
  ``total * (1 - best)``, and floating-point division and subtraction
  are monotone, so its score is at most ``best``: it never replaces
  the incumbent (a tie does not).

Lexical domains sort and lower-case their items once
(:class:`Lexicon`), and the wrapper memoises msi answers per document.

Row scores combine cell scores with a *t-norm* (the paper leaves the
choice open; the A3 ablation bench compares them):

- product: ``prod(s_i)``;
- minimum (Gödel): ``min(s_i)``;
- Łukasiewicz: ``max(0, sum(s_i) - (n - 1))``.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Iterable, Optional, Sequence, Tuple as PyTuple


def levenshtein(a: str, b: str, upper_bound: Optional[int] = None) -> int:
    """Edit distance (substitution, insertion, deletion = 1).

    Bit-parallel: Myers' vector recurrence in Hyyrö's form for the
    global distance, one column of the DP per character of the longer
    string, the shorter one held as per-character bitmasks in a Python
    int (so no length limit).

    With *upper_bound* the result is the exact distance when it is at
    most ``upper_bound`` and exactly ``upper_bound + 1`` otherwise --
    the msi search uses this to skip hopeless dictionary items without
    changing any result.
    """
    if a == b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    if upper_bound is not None and len(b) - len(a) > upper_bound:
        return upper_bound + 1
    if not a:
        return len(b)
    # peq[c]: bit i set iff a[i] == c.  pv / mv: positive / negative
    # vertical deltas of the current column; score: its last cell.
    peq: Dict[str, int] = {}
    bit = 1
    for char in a:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv = mask
    mv = 0
    score = len(a)
    for char in b:
        eq = peq.get(char, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # The top row is 0, 1, 2, ...: a +1 horizontal delta enters
        # at bit 0 of every column (global, not substring, distance).
        ph = (ph << 1) | 1
        mh <<= 1
        pv = (mh | ~(xv | ph)) & mask
        mv = ph & xv
    if upper_bound is not None and score > upper_bound:
        return upper_bound + 1
    return score


def similarity(a: str, b: str, *, case_sensitive: bool = False) -> float:
    """Normalised similarity in [0, 1]: ``1 - dist / (|a| + |b|)``."""
    if not case_sensitive:
        a, b = a.lower(), b.lower()
    if not a and not b:
        return 1.0
    return 1.0 - levenshtein(a, b) / (len(a) + len(b))


class Lexicon(tuple):
    """Dictionary items prepared once for msi search.

    A sorted tuple of the items (so iteration order is the msi
    tie-break order) that also carries their lower-cased forms and,
    per lower-cased form, the first item that has it (the exact-hit
    index).  A lexical domain builds one at construction;
    :func:`most_similar_item` builds one per call from any other
    sequence.
    """

    lowered: PyTuple[str, ...]
    #: lower-cased form -> the first item (in sorted order) that has it
    exact: Dict[str, str]

    def __new__(cls, items: Iterable[str]) -> "Lexicon":
        lexicon = super().__new__(cls, sorted(items))
        lexicon.lowered = tuple(item.lower() for item in lexicon)
        lexicon.exact = {}
        for item, lowered in zip(lexicon, lexicon.lowered):
            lexicon.exact.setdefault(lowered, item)
        return lexicon


def most_similar_item(
    text: str,
    items: Sequence[str],
    *,
    minimum_score: float = 0.0,
) -> PyTuple[Optional[str], float]:
    """The msi: the dictionary item most similar to *text* and its score.

    Returns ``(None, best_score)`` when nothing reaches
    ``minimum_score``.  Ties break toward the lexicographically first
    item for determinism.  *items* may be any sequence; a
    :class:`Lexicon` is searched as is, anything else is prepared first.
    """
    lexicon = items if isinstance(items, Lexicon) else Lexicon(items)
    normalized = text.lower()
    best_item = lexicon.exact.get(normalized)
    if best_item is not None:
        # Score 1.0 is the maximum; the scan would keep the first
        # item reaching it, which ``exact`` records.
        return (best_item, 1.0) if minimum_score <= 1.0 else (None, 1.0)
    length = len(normalized)
    best_score = -1.0
    for item, candidate in zip(lexicon, lexicon.lowered):
        # Never 0: an item equal to the text was an exact hit above.
        total_length = length + len(candidate)
        if best_score > 0.0:
            # Prune (exact, see the module docstring): beating the
            # incumbent needs d < total*(1-best), i.e. d <= budget.
            budget = int(total_length * (1.0 - best_score))
            if abs(length - len(candidate)) > budget:
                continue
            distance = levenshtein(normalized, candidate, upper_bound=budget)
        else:
            distance = levenshtein(normalized, candidate)
        score = 1.0 - distance / total_length
        if score > best_score:
            best_item = item
            best_score = score
    if best_item is None or best_score < minimum_score:
        return None, max(best_score, 0.0)
    return best_item, best_score


class TNorm(enum.Enum):
    """T-norms available for combining cell scores into a row score."""

    PRODUCT = "product"
    MINIMUM = "minimum"
    LUKASIEWICZ = "lukasiewicz"

    def combine(self, scores: Iterable[float]) -> float:
        values = list(scores)
        if not values:
            return 1.0
        for value in values:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"t-norm input {value} outside [0, 1]")
        if self is TNorm.PRODUCT:
            return math.prod(values)
        if self is TNorm.MINIMUM:
            return min(values)
        return max(0.0, sum(values) - (len(values) - 1))
