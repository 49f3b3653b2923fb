"""The codon-table oracle agrees with the naive aligner and the genetic code.

    python3 -m pytest -q perfbench/test_oracle.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from inputs import AMINO_ACIDS, NUCLEOTIDES, SYNONYMS, generate  # noqa: E402
from oracle import Oracle, codon_table  # noqa: E402
from repro.core.aligner import alignment_scores_naive  # noqa: E402


@pytest.mark.parametrize("seed", range(12))
def test_oracle_scores_equal_naive_aligner(seed: int) -> None:
    rng = np.random.default_rng(seed)
    residues = int(rng.integers(1, 9))
    protein = "".join(rng.choice(list(AMINO_ACIDS), residues))
    codes = [rng.integers(0, 4, int(rng.integers(3 * residues, 90)), dtype=np.uint8)
             for _ in range(3)]
    oracle = Oracle(codes)
    flat = oracle.scores(protein)
    start = 0
    for ref in codes:
        letters = "".join(NUCLEOTIDES[c] for c in ref)
        naive = alignment_scores_naive(protein, letters)
        assert flat[start : start + naive.size].tolist() == naive.tolist()
        start += ref.size


def test_hits_stay_inside_each_reference() -> None:
    rng = np.random.default_rng(7)
    codes = [rng.integers(0, 4, n, dtype=np.uint8) for n in (40, 7, 55)]
    oracle = Oracle(codes)
    for reference, position, _ in oracle.hits("MK", 0):
        assert position + 6 <= codes[reference].size


def test_synonymous_codons_score_three_except_serine_agy() -> None:
    table = codon_table()
    for a, aa in enumerate(AMINO_ACIDS):
        for k, codon in enumerate(SYNONYMS[aa]):
            expected = 1 if aa == "S" and k >= 4 else 3
            assert table[a, codon] == expected, (aa, codon)


def test_planted_homologs_score_as_predicted() -> None:
    inputs = generate("interactive", 3)
    oracle = Oracle(inputs.codes)
    for plant in inputs.plants:
        predicted = oracle.planted_score(plant.query, plant.codons)
        found = {(r, p): s for r, p, s in oracle.hits(plant.query, predicted)}
        assert found[(plant.reference, plant.position)] == predicted
