"""Golden digests of verify_instance: the SHA-256 of its JSON and of its text
for the 13 corpus instances and 200 seeded random (f, p), each at four
(kmax, budget) settings.

verify_golden.json was recorded while verification still formatted RepRoot
objects and ran the series in Fraction arithmetic; every output since must
match it byte for byte.  Running this file as a script rewrites the digests
from the package on the path:

    PYTHONPATH=src python tests/test_verify_golden.py
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from igusazeta.cli import parse_poly
from igusazeta.exactpoly import IntPoly, squarefree_part
from igusazeta.oracle import verify_instance

from corpus import CORPUS

GOLDEN_PATH = Path(__file__).parent / "verify_golden.json"
SETTINGS = [(0, 10**7), (5, 1000), (12, 10**5), (12, 10**6)]


def random_instances(n: int = 200) -> list[tuple[IntPoly, int]]:
    """n nonzero (f, p), p in {2, 3, 5, 7} and deg f <= 5: a third dense, a
    third with a repeated linear factor, a third with p-content."""
    rng = random.Random("verify-golden")
    out = []
    while len(out) < n:
        p = rng.choice((2, 3, 5, 7))
        kind = len(out) % 3
        f = IntPoly([rng.randint(-60, 60) for _ in range(rng.randint(1, 4))])
        if kind == 1:
            f = f * IntPoly([rng.randint(-2 * p, 2 * p), 1]) ** rng.randint(2, 4)
        elif kind == 2:
            f = f * p ** rng.randint(1, 3)
        if not f.is_zero and f.degree <= 5:
            out.append((f, p))
    return out


def cases() -> list[tuple[IntPoly, int, int, int]]:
    instances = [(parse_poly(text), p) for text, p in CORPUS] + random_instances()
    return [(f, p, kmax, budget) for f, p in instances for kmax, budget in SETTINGS]


def digests(f: IntPoly, p: int, kmax: int, budget: int) -> dict:
    result = verify_instance(f, p, kmax, budget)
    text = json.dumps(result.to_json_dict(), sort_keys=True)
    return {
        "poly": f.to_text(),
        "prime": p,
        "kmax": kmax,
        "budget": budget,
        "json_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "describe_sha256": hashlib.sha256(result.describe().encode()).hexdigest(),
    }


def test_cases_are_the_recorded_ones():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert len(golden) == 4 * (len(CORPUS) + 200)
    recorded = [(g["poly"], g["prime"], g["kmax"], g["budget"]) for g in golden]
    assert recorded == [(f.to_text(), p, kmax, budget) for f, p, kmax, budget in cases()]


def test_random_instances_cover_content_and_repeated_factors():
    instances = random_instances()
    assert {p for _, p in instances} == {2, 3, 5, 7}
    assert any(f.content() % p == 0 for f, p in instances)
    assert any(squarefree_part(f).degree < f.degree for f, p in instances)


@pytest.mark.parametrize("kmax, budget", SETTINGS)
def test_verification_matches_its_golden_digests(kmax, budget):
    golden = json.loads(GOLDEN_PATH.read_text())
    for case, want in zip(cases(), golden):
        if case[2:] == (kmax, budget):
            assert digests(*case) == want, want


if __name__ == "__main__":
    rows = [json.dumps(digests(*case)) for case in cases()]
    GOLDEN_PATH.write_text("[\n" + ",\n".join(rows) + "\n]\n")
    print(f"wrote {len(rows)} digests to {GOLDEN_PATH}")
