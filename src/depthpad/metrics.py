"""Evaluation metrics for presentation attack detection, plus the live score.

A record is accepted as bona fide when its score reaches the threshold.
APCER is the worst per-instrument acceptance rate among attacks, BPCER the
bona fide rejection rate, ACER their mean. HTER averages the rejection rate
with the acceptance rate pooled over all attacks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .depthlabel import LIVING

ATTACK = "attack"
RECORD_FIELDS = ["score", "label", "attack_kind"]


def check_record(score: float, label: str) -> None:
    """The rule every record obeys: a finite score in [0, 1] and a known label."""
    if not math.isfinite(score) or not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be finite in [0, 1], got {score!r}")
    if label not in (LIVING, ATTACK):
        raise ValueError(f"label must be {LIVING!r} or {ATTACK!r}, got {label!r}")


@dataclass(frozen=True)
class EvalRecord:
    """One scored sample: score in [0, 1], its label, and the PAI tag."""

    score: float
    label: str
    attack_kind: Optional[str] = None

    def __post_init__(self) -> None:
        check_record(self.score, self.label)


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """Checked records as read-only columns, the input of the metrics core.

    scores is float64 and living a boolean mask. groups holds each record's
    index into group_names, the PAI groups in order of first appearance: a
    record's tag, or ATTACK when untagged. Only attack records are counted
    by group. Codes, not a numpy string array, keep the memory at one int
    per record however long a tag is.
    """

    scores: np.ndarray
    living: np.ndarray
    groups: np.ndarray
    group_names: tuple[str, ...]

    @classmethod
    def from_lists(cls, scores: list, labels: list, kinds: list) -> "RecordColumns":
        """Columns from per-record scores, labels and tags already checked."""
        index: dict[str, int] = {}
        codes = [index.setdefault(kind or ATTACK, len(index)) for kind in kinds]
        columns = (np.array(scores, dtype=np.float64),
                   np.array([label == LIVING for label in labels], dtype=bool),
                   np.array(codes, dtype=np.intp))
        for column in columns:
            column.flags.writeable = False
        return cls(*columns, tuple(index))

    @classmethod
    def of(cls, records: Sequence[EvalRecord]) -> "RecordColumns":
        """Columns of records that each passed check_record when built."""
        return cls.from_lists([r.score for r in records],
                              [r.label for r in records],
                              [r.attack_kind for r in records])

    def __len__(self) -> int:
        return len(self.scores)


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


def apcer_bpcer_acer(records: RecordColumns | Sequence[EvalRecord],
                     threshold: float) -> tuple[float, float, float]:
    """Worst per-PAI acceptance rate, bona fide rejection rate, and their mean."""
    summary = metrics_summary(records, threshold)
    return summary["apcer"], summary["bpcer"], summary["acer"]


def hter(records: RecordColumns | Sequence[EvalRecord],
         threshold: float) -> float:
    """Half total error rate; attacks pooled into one false-acceptance rate."""
    return metrics_summary(records, threshold)["hter"]


def metrics_summary(records: RecordColumns | Sequence[EvalRecord],
                    threshold: float) -> dict:
    """All metrics in one JSON-ready dict with fixed keys.

    records is a RecordColumns or a sequence of EvalRecord. The attacks are
    grouped by tag once; untagged attacks share the ATTACK group with
    attacks tagged "attack", so apcer is max(per_pai_apcer). Rates are
    Python int / int and the groups are in sorted order.
    """
    if not isinstance(records, RecordColumns):
        records = RecordColumns.of(records)
    accepted = records.scores >= threshold
    attack = ~records.living
    n_living = int(np.count_nonzero(records.living))
    n_attack = len(records) - n_living
    if not n_living or not n_attack:
        raise ValueError("need at least one living and one attack record")
    n_groups = len(records.group_names)
    totals = np.bincount(records.groups[attack], minlength=n_groups).tolist()
    hits = np.bincount(records.groups[attack & accepted],
                       minlength=n_groups).tolist()
    per_pai = {name: hit / total for name, hit, total
               in sorted(zip(records.group_names, hits, totals)) if total}
    apcer = max(per_pai.values())
    bpcer = int(np.count_nonzero(records.living & ~accepted)) / n_living
    far = sum(hits) / n_attack
    return {
        "threshold": threshold,
        "apcer": apcer,
        "bpcer": bpcer,
        "acer": (apcer + bpcer) / 2.0,
        "hter": (bpcer + far) / 2.0,
        "per_pai_apcer": per_pai,
        "n_living": n_living,
        "n_attack": n_attack,
    }


def read_records_csv(path) -> RecordColumns:
    """Load records from a CSV with columns score,label,attack_kind.

    Every data row has exactly three fields; blank lines are skipped, and
    an error names the physical line it was found on.
    """
    scores, labels, kinds = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RECORD_FIELDS:
            raise ValueError(f"records CSV must have columns {RECORD_FIELDS}, "
                             f"got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(RECORD_FIELDS):
                raise ValueError(f"line {reader.line_num}: expected "
                                 f"{len(RECORD_FIELDS)} fields, got {len(row)}")
            text, label, kind = row
            try:
                score = float(text)
            except ValueError:
                raise ValueError(f"line {reader.line_num}: bad score {text!r}")
            try:
                check_record(score, label)
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}")
            scores.append(score)
            labels.append(label)
            kinds.append(kind)
    if not scores:
        raise ValueError("records CSV holds no data rows")
    return RecordColumns.from_lists(scores, labels, kinds)


def write_records_csv(records: Sequence[EvalRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for rec in records:
            writer.writerow([repr(float(rec.score)), rec.label,
                             rec.attack_kind or ""])
