"""Evaluation metrics for presentation attack detection, plus the live score.

A record is accepted as bona fide when its score reaches the threshold.
APCER is the worst per-instrument acceptance rate among attacks, BPCER the
bona fide rejection rate, ACER their mean. HTER averages the rejection rate
with the acceptance rate pooled over all attacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .supervision import multi_frame_loss


@dataclass(frozen=True)
class RecordCounts:
    """What the metrics need of a records file: its counts at one threshold.

    living is the living records' (records, accepted) pair. groups holds
    one (name, (records, accepted)) item per PAI group of attack records,
    sorted by name; a group is a record's tag, or ATTACK when untagged. A
    record is accepted when its score reaches the threshold.
    """

    threshold: float
    living: tuple[int, int]
    groups: tuple[tuple[str, tuple[int, int]], ...]

    def __len__(self) -> int:
        return self.living[0] + sum(total for _, (total, _) in self.groups)


def masked_depth_term(fused: np.ndarray, mask: np.ndarray) -> float:
    """Mean masked depth over a (T, H, W) stack, each frame normalized by its mask size.

    mask is one 0/1 face mask, (H, W) for every frame or (T, H, W) per frame;
    a frame whose mask is empty is an error.
    """
    fused = np.asarray(fused, dtype=float)
    mask = np.asarray(mask)
    if fused.ndim != 3 or not len(fused):
        raise ValueError(f"depth must be a nonempty (T, H, W) stack, got {fused.shape}")
    if mask.shape not in (fused.shape, fused.shape[1:]):
        raise ValueError(f"mask is {mask.shape}, not {fused.shape[1:]} or {fused.shape}")
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("mask values must be 0 or 1")
    counts = mask.sum(axis=(-2, -1))
    if not np.all(counts):
        raise ValueError("empty face mask")
    terms = np.abs(fused * mask).sum(axis=(1, 2)) / counts
    return float(np.mean(terms))


def living_score(b_hat: float, depth_term: float, beta: float) -> float:
    """Final live score: beta * b_hat + (1 - beta) * masked_depth_term."""
    return multi_frame_loss(depth_term, b_hat, beta)


def metrics_summary(counts: RecordCounts) -> dict:
    """All metrics in one JSON-ready dict with fixed keys.

    Untagged attacks share the ATTACK group with attacks tagged "attack",
    so apcer is max(per_pai_apcer). Rates are Python int / int and the
    groups are in sorted order.
    """
    n_living, living_hits = counts.living
    n_attack = sum(total for _, (total, _) in counts.groups)
    if not n_living or not n_attack:
        raise ValueError("need at least one living and one attack record")
    per_pai = {name: hits / total for name, (total, hits) in counts.groups}
    apcer = max(per_pai.values())
    bpcer = (n_living - living_hits) / n_living
    far = sum(hits for _, (_, hits) in counts.groups) / n_attack
    return {
        "threshold": counts.threshold,
        "apcer": apcer,
        "bpcer": bpcer,
        "acer": (apcer + bpcer) / 2.0,
        "hter": (bpcer + far) / 2.0,
        "per_pai_apcer": per_pai,
        "n_living": n_living,
        "n_attack": n_attack,
    }


def read_records_csv(path, threshold: float) -> RecordCounts:
    """Count the records of a CSV with columns score,label,attack_kind.

    The file is UTF-8 with strict quoting, so a quote left open is an
    error rather than a field that runs to the end of the file. Every data
    row has exactly three fields; blank lines are skipped, and an error
    names the physical line of the first bad row in file order. The path
    is opened once and read in one pass, so a pipe works. Memory holds one
    buffer of about two blocks (see records._text_blocks), the tally of
    each PAI group and at most records.TABLE_TAILS tails.

    The reader is depthpad.records, imported here so that a process that
    never reads a records file never loads it.
    """
    from . import records

    living, groups = records.count(path, threshold)
    counts = RecordCounts(threshold, tuple(living),
                          tuple((name, tuple(groups[name]))
                                for name in sorted(groups)))
    if not len(counts):
        raise ValueError("records CSV holds no data rows")
    return counts
