"""Independent output check: the codon-table oracle.

FabP's score decomposes by codon, because a Type III condition looks back
only within its own codon.  With ``T`` a 20 x 64 table (amino acid x
reference codon) holding how many of the residue's three instructions
match that codon, the score of a query ``q`` at reference position ``k``
is ``sum_i T[q_i][codon at k + 3i]``.

``T`` is built once from the comparator semantics
(:func:`repro.core.comparator.instruction_matches`), never from a scoring
engine, scan or service path, so it checks all of them.  Scores are summed
three codons per gather, which cuts the passes over a whole database to a
third.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.comparator import instruction_matches
from repro.core.encoding import encode_query

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
_AA_INDEX = {aa: i for i, aa in enumerate(AMINO_ACIDS)}

#: One hit list: ``((reference, position, score), ...)`` sorted.
HitList = Tuple[Tuple[int, int, int], ...]


def codon_table() -> np.ndarray:
    """``T[a, c]``: matches of amino acid ``a``'s three instructions on codon ``c``.

    Codon ``c`` is ``16 * n0 + 4 * n1 + n2`` in the 2-bit nucleotide codes.
    Instruction ``j`` of a residue sees the codon's own earlier nucleotides
    as its look-back inputs; the first never looks back.
    """
    table = np.zeros((len(AMINO_ACIDS), 64), dtype=np.int16)
    for a, aa in enumerate(AMINO_ACIDS):
        instructions = encode_query(aa).instructions
        for c in range(64):
            n = (c >> 4, (c >> 2) & 3, c & 3)
            table[a, c] = sum(
                instruction_matches(
                    instructions[j],
                    n[j],
                    n[j - 1] if j >= 1 else 0,
                    n[j - 2] if j >= 2 else 0,
                )
                for j in range(3)
            )
    return table


class Oracle:
    """Thresholded hit lists over one database, from the codon table."""

    def __init__(self, codes: Sequence[np.ndarray]):
        self.table = codon_table().astype(np.uint8)
        self.lengths = [int(c.size) for c in codes]
        flat = np.concatenate([np.asarray(c, dtype=np.int32) for c in codes])
        self._starts = np.cumsum([0] + self.lengths[:-1]).astype(np.int64)
        #: ``codon[p]``: the codon starting at flat position ``p``.
        self._codon = flat[:-2] * 16 + flat[1:-1] * 4 + flat[2:]
        #: ``triple[p]``: codons at ``p``, ``p + 3`` and ``p + 6`` as one index.
        self._triple = (
            self._codon[:-6] * 4096 + self._codon[3:-3] * 64 + self._codon[6:]
        )

    def scores(self, protein: str) -> np.ndarray:
        """Score at every start position of the concatenated database.

        Sums three codons per gather through a 64**3-entry table; scores
        fit ``uint8`` for queries of up to 85 residues.
        """
        if len(protein) > 85:
            raise ValueError("oracle scores fit uint8 only up to 85 residues")
        rows = self.table[[_AA_INDEX[aa] for aa in protein]]
        count = self._codon.size + 2 - 3 * len(protein) + 1
        total = np.zeros(max(count, 0), dtype=np.uint8)
        if count <= 0:
            return total
        gathered = np.empty(count, dtype=np.uint8)
        i = 0
        while i + 3 <= len(protein):
            triple_table = (
                rows[i][:, None, None]
                + rows[i + 1][None, :, None]
                + rows[i + 2][None, None, :]
            ).ravel()
            np.take(triple_table, self._triple[3 * i : 3 * i + count], out=gathered)
            total += gathered
            i += 3
        for i in range(i, len(protein)):
            np.take(rows[i], self._codon[3 * i : 3 * i + count], out=gathered)
            total += gathered
        return total

    def hits(self, protein: str, threshold: int) -> HitList:
        """Every (reference, position, score) at or above ``threshold``."""
        scores = self.scores(protein)
        span = 3 * len(protein)
        found: List[Tuple[int, int, int]] = []
        for position in np.flatnonzero(scores >= threshold).tolist():
            reference = int(np.searchsorted(self._starts, position, "right")) - 1
            local = position - int(self._starts[reference])
            if local + span <= self.lengths[reference]:
                found.append((reference, local, int(scores[position])))
        return tuple(found)

    def planted_score(self, protein: str, codons: Sequence[int]) -> int:
        """The score ``T`` predicts for ``protein`` over the given codons."""
        return int(
            sum(self.table[_AA_INDEX[aa], c] for aa, c in zip(protein, codons))
        )


def threshold_for(protein: str, min_identity: float) -> int:
    """The absolute threshold the aligner derives from ``min_identity``."""
    return int(np.ceil(min_identity * (3 * len(protein))))
