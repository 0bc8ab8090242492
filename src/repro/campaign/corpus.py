"""The fuzz corpus: seeds worth mutating, and why they were kept.

A *seed* is one genotype the fuzzer can replay — a fault schedule
(ops-per-boot brown-out placements) plus, for applications that consume
input, the stimulus byte string.  The corpus keeps exactly the seeds
that taught the campaign something: a run enters when it executed a
translated block no earlier run reached, or when it produced a verdict
no earlier run produced.  Everything else is discarded — mutating a run
that replayed known behaviour is wasted budget.

Determinism contract: :meth:`Corpus.consider` is called once per record
in run-index order, so for a fixed campaign seed the corpus evolves
identically across repetitions, worker counts, execution paths, and
journal resumes — which is what keeps fuzz reports byte-identical.

The on-disk form (``--corpus PATH``) is a small JSON document whose
entries seed round zero of a later campaign (:func:`Corpus.load_seeds`),
letting a fuzz campaign pick up the search where a previous one left
off without replaying its journal.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from repro.campaign.oracle import AGREE

CORPUS_FORMAT = 1


class Corpus:
    """Novelty-keeping seed pool with campaign-wide coverage accounting."""

    def __init__(self) -> None:
        self.entries: list[dict] = []
        #: Every block entry PC any considered run has executed.
        self.covered: set[int] = set()
        #: Verdict histogram over every considered record (kept or not).
        self.verdicts: dict[str, int] = {}
        self._genotypes: set[tuple] = set()

    def __len__(self) -> int:
        return len(self.entries)

    def consider(self, record: dict) -> dict | None:
        """Account for one finished run; keep it if it was novel.

        Returns the corpus entry when the record was kept, else
        ``None``.  Error records (no ``fuzz`` key — the run never
        produced a leg) feed the verdict histogram but are never kept:
        there is no coverage to credit and no genotype worth mutating.
        """
        verdict = record["verdict"]["verdict"]
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        first_verdict = self.verdicts[verdict] == 1
        fuzz = record.get("fuzz")
        if fuzz is None:
            return None
        blocks = fuzz["coverage"]["blocks"]
        new_blocks = [b for b in blocks if b not in self.covered]
        self.covered.update(blocks)
        schedule = record["plan"]["ops_schedule"]
        genotype = (tuple(schedule), fuzz["stimulus"])
        if genotype in self._genotypes:
            return None
        if not new_blocks and not first_verdict:
            return None
        intermittent = record["intermittent"] or {}
        entry = {
            "index": record["index"],
            "round": fuzz["round"],
            "op": fuzz["op"],
            "parent": fuzz["parent"],
            "schedule": list(schedule),
            "stimulus": fuzz["stimulus"],
            "signature": fuzz["coverage"]["signature"],
            "blocks": len(blocks),
            "new_blocks": len(new_blocks),
            "verdict": verdict,
            # Energy metadata: how much harvested lifetime the seed
            # consumed — boots taken and brown-outs injected.
            "boots": intermittent.get("boots", 0),
            "injected": record["injected_reboots"],
        }
        self.entries.append(entry)
        self._genotypes.add(genotype)
        return entry

    def pick(self, rng: random.Random) -> dict:
        """Draw one entry to mutate, biased toward productive seeds.

        Weight rises with the coverage the seed discovered and with
        interesting (non-agreeing) verdicts, so the search exploits the
        frontier without ever starving the rest of the pool.
        """
        if not self.entries:
            raise IndexError("cannot pick from an empty corpus")
        weights = [
            1 + entry["new_blocks"] + (2 if entry["verdict"] != AGREE else 0)
            for entry in self.entries
        ]
        shot = rng.random() * sum(weights)
        acc = 0.0
        for entry, weight in zip(self.entries, weights):
            acc += weight
            if shot < acc:
                return entry
        return self.entries[-1]

    # -- persistence -------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write the corpus as a seed file for a future campaign."""
        path = Path(path)
        payload = {"corpus": CORPUS_FORMAT, "entries": self.entries}
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return path

    @staticmethod
    def load_seeds(path: str | Path) -> list[dict]:
        """Load a seed file's genotypes: ``{"schedule", "stimulus"}`` dicts.

        Only the genotype is trusted — coverage and verdict metadata
        were measured by a different campaign and are recomputed when
        the seeds run.
        """
        data = json.loads(Path(path).read_text())
        if data.get("corpus") != CORPUS_FORMAT:
            raise ValueError(
                f"{path} is not a format-{CORPUS_FORMAT} fuzz corpus"
            )
        return [
            {
                "schedule": [int(n) for n in entry["schedule"]],
                "stimulus": entry.get("stimulus"),
            }
            for entry in data.get("entries", ())
        ]
