"""Golden-verdict corpus: 200 seeded genotypes, valid and invalid, at 12
and 25 m/s, with the verdict, violation kinds and max_oob frozen by
``tests/make_golden_roads.py``. Every change must reproduce them:
same verdict, same kinds, |delta max_oob| <= 1e-9."""
import json
from pathlib import Path

from make_golden_roads import judge_entry

CORPUS = json.loads((Path(__file__).parent / "data" / "golden_roads.json").read_text())


def test_corpus_covers_every_verdict_and_kind():
    entries = CORPUS["entries"]
    assert len(entries) == 200
    assert {e["speed"] for e in entries} == {12.0, 25.0}
    assert {e["verdict"] for e in entries} == {"PASS", "FAIL", "INVALID"}
    assert {k for e in entries for k in e["kinds"]} == \
           {"OVERLAP", "TOO_SHARP", "OUT_OF_MAP", "TOO_SHORT"}


def test_verdicts_match_golden_corpus():
    mismatches = []
    for entry in CORPUS["entries"]:
        got = judge_entry(entry["points"], entry["speed"])
        if (got["verdict"], got["kinds"]) != (entry["verdict"], entry["kinds"]) \
                or abs(got["max_oob"] - entry["max_oob"]) > 1e-9:
            mismatches.append((entry["id"], entry["verdict"], entry["kinds"],
                               entry["max_oob"], got))
    assert mismatches == []
