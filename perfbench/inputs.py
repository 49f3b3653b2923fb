"""Seeded inputs of the four workloads: references, queries, planted homologs.

Everything here is a pure function of ``(workload, seed)``: the same seed
gives byte-identical FASTA files, query streams and plant ledgers.  The
program under test receives only the generated inputs.

A planted homolog is a query back-translated with a random synonymous
codon per residue (standard genetic code, own copy below) and written over
a random stretch of a random reference.  Its expected score is what the
codon table predicts for the codons actually written: 3 per residue,
except serine written as AGU/AGC, which FabP's UCN pattern scores 1.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

NUCLEOTIDES = "ACGU"  # index == FabP 2-bit code
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

_GENETIC_CODE = {
    "F": "UUU UUC", "L": "UUA UUG CUU CUC CUA CUG", "I": "AUU AUC AUA",
    "M": "AUG", "V": "GUU GUC GUA GUG", "S": "UCU UCC UCA UCG AGU AGC",
    "P": "CCU CCC CCA CCG", "T": "ACU ACC ACA ACG", "A": "GCU GCC GCA GCG",
    "Y": "UAU UAC", "H": "CAU CAC", "Q": "CAA CAG", "N": "AAU AAC",
    "K": "AAA AAG", "D": "GAU GAC", "E": "GAA GAG", "C": "UGU UGC",
    "W": "UGG", "R": "CGU CGC CGA CGG AGA AGG", "G": "GGU GGC GGA GGG",
}


def _codon_index(codon: str) -> int:
    a, b, c = (NUCLEOTIDES.index(n) for n in codon)
    return 16 * a + 4 * b + c


#: Synonymous codons of each amino acid, as codon indices (16 n0 + 4 n1 + n2).
SYNONYMS: Dict[str, Tuple[int, ...]] = {
    aa: tuple(_codon_index(c) for c in codons.split())
    for aa, codons in _GENETIC_CODE.items()
}


@dataclass(frozen=True)
class Plant:
    """One planted homolog: ``query`` written at ``reference:position``."""

    query: str
    reference: int
    position: int
    codons: Tuple[int, ...]


@dataclass(frozen=True)
class Shape:
    """The make-up of one workload's database and queries."""

    references: int
    ref_length: int
    ref_jitter: int
    query_residues: int
    plants: int


#: Input shapes.  Why each looks the way it does is in README.md.
SHAPES: Dict[str, Shape] = {
    "interactive": Shape(24, 2_000, 200, 40, 12),
    "bulk": Shape(4, 256_000, 16_000, 40, 16),
    "sharded-mixed": Shape(128, 4_000, 400, 40, 12),
    "oneshot": Shape(32, 16_000, 1_000, 40, 8),
}


@dataclass
class Inputs:
    """One workload's generated database and query source."""

    workload: str
    seed: int
    shape: Shape
    names: List[str]
    codes: List[np.ndarray]
    plants: List[Plant]
    _streams: Dict[str, np.random.Generator] = field(default_factory=dict)

    def fasta_text(self) -> str:
        lines: List[str] = []
        for name, codes in zip(self.names, self.codes):
            lines.append(f">{name}")
            letters = np.frombuffer(NUCLEOTIDES.encode(), np.uint8)[codes]
            text = letters.tobytes().decode()
            lines.extend(text[i : i + 70] for i in range(0, len(text), 70))
        return "\n".join(lines) + "\n"

    def write_fasta(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.fasta_text())
        return path

    def random_query(self, stream: str) -> str:
        """The next query of a named, seeded stream (distinct in practice)."""
        rng = self._streams.get(stream)
        if rng is None:
            rng = np.random.default_rng(
                [self.seed, _stable_hash(self.workload), _stable_hash(stream)]
            )
            self._streams[stream] = rng
        picks = rng.integers(0, len(AMINO_ACIDS), self.shape.query_residues)
        return "".join(AMINO_ACIDS[i] for i in picks)

    def stream_rng(self, stream: str) -> np.random.Generator:
        """A seeded generator for load decisions (repeats, thresholds)."""
        return np.random.default_rng(
            [self.seed, _stable_hash(self.workload), _stable_hash(stream), 1]
        )

    @property
    def lengths(self) -> List[int]:
        return [int(c.size) for c in self.codes]

    def cells(self, protein: str) -> int:
        """Query elements x alignment positions over the whole database."""
        span = 3 * len(protein)
        return span * sum(max(0, n - span + 1) for n in self.lengths)


def _stable_hash(text: str) -> int:
    return zlib.crc32(text.encode())


def generate(workload: str, seed: int) -> Inputs:
    """Build ``workload``'s inputs for ``seed`` (see :data:`SHAPES`)."""
    shape = SHAPES[workload]
    rng = np.random.default_rng([seed, _stable_hash(workload)])
    names: List[str] = []
    codes: List[np.ndarray] = []
    for r in range(shape.references):
        length = shape.ref_length + int(
            rng.integers(-shape.ref_jitter, shape.ref_jitter + 1)
        )
        names.append(f"{workload}_ref{r:04d}")
        codes.append(rng.integers(0, 4, length, dtype=np.uint8))
    inputs = Inputs(workload, seed, shape, names, codes, [])
    span = 3 * shape.query_residues
    # Plants go into distinct (reference, slot) pairs so none overlap.
    slots_per_ref = (shape.ref_length - shape.ref_jitter) // (2 * span)
    chosen = rng.choice(shape.references * slots_per_ref, shape.plants, replace=False)
    for slot in sorted(chosen.tolist()):
        reference, within = divmod(slot, slots_per_ref)
        position = within * 2 * span + int(rng.integers(0, span))
        query = inputs.random_query("plants")
        planted = tuple(
            SYNONYMS[aa][int(rng.integers(0, len(SYNONYMS[aa])))] for aa in query
        )
        target = codes[reference]
        for i, codon in enumerate(planted):
            target[position + 3 * i : position + 3 * i + 3] = (
                codon >> 4, (codon >> 2) & 3, codon & 3,
            )
        inputs.plants.append(Plant(query, reference, position, planted))
    return inputs

