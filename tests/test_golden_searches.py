"""Golden-search corpus: 96 seeded ``run_search`` runs (variants A/B/C,
novelty off and on, 4 seeds, 4 budgets) with a stub evaluator, frozen by
``tests/make_golden_searches.py``. Every change must reproduce them:
the same records in the same order, the same events at the same record
counts, the same aggregates."""
import json
from itertools import zip_longest
from pathlib import Path

import pytest

from make_golden_searches import run_case

CORPUS = json.loads((Path(__file__).parent / "data" / "golden_searches.json").read_text())


def kinds(case):
    return [e["kind"] for e in case["events"]]


def cut_mid_generation(case) -> bool:
    # without novelty every offspring is evaluated, so a generation cut
    # short has fewer than pop records after its GENERATION event
    last = max(i for i, k in enumerate(kinds(case)) if k in ("SEED", "GENERATION"))
    return (kinds(case)[last] == "GENERATION" and not case["novelty"]
            and case["aggregates"]["T"] - case["event_at"][last] < case["pop"])


def test_corpus_covers_every_ending():
    cases = CORPUS["cases"]
    assert len(cases) == 96
    for variant in "ABC":
        mine = [c for c in cases if c["variant"] == variant]
        assert any(c["events"][-1]["partial_seed"] for c in mine)
        assert any(cut_mid_generation(c) for c in mine)
        for novelty in (False, True):
            assert any(kinds(c).count("GENERATION") >= 2
                       for c in mine if c["novelty"] is novelty)
        if variant in "BC":
            assert all("RESEED" in kinds(c) for c in mine)


def first_difference(want: dict, got: dict) -> str | None:
    records = lambda c: list(zip(c["verdicts"], c["fitness"], c["genotypes"]))
    events = lambda c: list(zip(c["events"], c["event_at"]))
    for what, rows in (("record", records), ("event", events)):
        for i, (w, g) in enumerate(zip_longest(rows(want), rows(got))):
            if w != g:
                return f"{what} {i}: want {w}, got {g}"
    if want["aggregates"] != got["aggregates"]:
        return f"aggregates: want {want['aggregates']}, got {got['aggregates']}"
    return None


@pytest.mark.parametrize("variant", ["A", "B", "C"])
def test_searches_match_golden_corpus(variant):
    mismatches = []
    for case in CORPUS["cases"]:
        if case["variant"] != variant:
            continue
        got = json.loads(json.dumps(run_case(case)))
        diff = first_difference(case, got)
        if diff is not None:
            mismatches.append(f"{variant} novelty={case['novelty']} seed={case['seed']} "
                              f"budget={case['budget']} pop={case['pop']}: {diff}")
    assert mismatches == []
