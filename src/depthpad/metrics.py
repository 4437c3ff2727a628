"""Evaluation metrics for presentation attack detection, plus the live score.

A record is accepted as bona fide when its score reaches the threshold.
APCER is the worst per-instrument acceptance rate among attacks, BPCER the
bona fide rejection rate, ACER their mean. HTER averages the rejection rate
with the acceptance rate pooled over all attacks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .depthlabel import LIVING

ATTACK = "attack"


@dataclass(frozen=True)
class EvalRecord:
    """One scored sample: score in [0, 1], its label, and the PAI tag."""

    score: float
    label: str
    attack_kind: Optional[str] = None

    def __post_init__(self) -> None:
        if not np.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be finite in [0, 1], got {self.score!r}")
        if self.label not in (LIVING, ATTACK):
            raise ValueError(f"label must be {LIVING!r} or {ATTACK!r}, "
                             f"got {self.label!r}")


def masked_depth_term(fused: Sequence, masks: Sequence) -> float:
    """Mean masked depth over the sequence, each frame normalized by its mask size."""
    if len(fused) != len(masks) or not fused:
        raise ValueError(f"{len(fused)} depth maps vs {len(masks)} masks")
    terms = []
    for grid, mask in zip(fused, masks):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(getattr(mask, "values", mask))
        if grid.shape != values.shape:
            raise ValueError(f"mask shape {values.shape} does not match "
                             f"depth shape {grid.shape}")
        count = values.sum()
        if count == 0:
            raise ValueError("empty face mask")
        terms.append(np.abs(grid * values).sum() / count)
    return float(np.mean(terms))


def living_score(b_hat: float, fused: Sequence, masks: Sequence,
                 beta: float) -> float:
    """Final live score: beta * b_hat + (1 - beta) * mean masked depth."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta * b_hat + (1.0 - beta) * masked_depth_term(fused, masks)


def _split(records: Sequence[EvalRecord]):
    living = [r for r in records if r.label == LIVING]
    attacks = [r for r in records if r.label == ATTACK]
    if not living or not attacks:
        raise ValueError("need at least one living and one attack record")
    return living, attacks


def _accepted(record: EvalRecord, threshold: float) -> bool:
    return record.score >= threshold


def apcer_bpcer_acer(records: Sequence[EvalRecord],
                     threshold: float) -> tuple[float, float, float]:
    """Worst per-PAI acceptance rate, bona fide rejection rate, and their mean."""
    summary = metrics_summary(records, threshold)
    return summary["apcer"], summary["bpcer"], summary["acer"]


def hter(records: Sequence[EvalRecord], threshold: float) -> float:
    """Half total error rate; attacks pooled into one false-acceptance rate."""
    return metrics_summary(records, threshold)["hter"]


def metrics_summary(records: Sequence[EvalRecord], threshold: float) -> dict:
    """All metrics in one JSON-ready dict with fixed keys.

    The attacks are grouped by tag once; untagged attacks share the ATTACK
    group with attacks tagged "attack", so apcer is max(per_pai_apcer).
    """
    living, attacks = _split(records)
    counts: dict[str, list[int]] = {}   # tag -> [accepted, total]
    for rec in attacks:
        group = counts.setdefault(rec.attack_kind or ATTACK, [0, 0])
        group[0] += _accepted(rec, threshold)
        group[1] += 1
    per_pai = {kind: accepted / total
               for kind, (accepted, total) in sorted(counts.items())}
    apcer = max(per_pai.values())
    bpcer = sum(not _accepted(r, threshold) for r in living) / len(living)
    far = sum(accepted for accepted, _ in counts.values()) / len(attacks)
    return {
        "threshold": threshold,
        "apcer": apcer,
        "bpcer": bpcer,
        "acer": (apcer + bpcer) / 2.0,
        "hter": (bpcer + far) / 2.0,
        "per_pai_apcer": per_pai,
        "n_living": len(living),
        "n_attack": len(attacks),
    }


def read_records_csv(path) -> list[EvalRecord]:
    """Load records from a CSV with columns score,label,attack_kind."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["score", "label", "attack_kind"]
        if reader.fieldnames is None or list(reader.fieldnames) != expected:
            raise ValueError(f"records CSV must have columns {expected}, "
                             f"got {reader.fieldnames}")
        for line_no, row in enumerate(reader, start=2):
            try:
                score = float(row["score"])
            except (TypeError, ValueError):
                raise ValueError(f"line {line_no}: bad score {row['score']!r}")
            kind = row["attack_kind"] or None
            try:
                records.append(EvalRecord(score, row["label"], kind))
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}")
    if not records:
        raise ValueError("records CSV holds no data rows")
    return records


def write_records_csv(records: Sequence[EvalRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["score", "label", "attack_kind"])
        for rec in records:
            writer.writerow([repr(float(rec.score)), rec.label,
                             rec.attack_kind or ""])
