"""Evaluation metrics for presentation attack detection, plus the live score.

A record is accepted as bona fide when its score reaches the threshold.
APCER is the worst per-instrument acceptance rate among attacks, BPCER the
bona fide rejection rate, ACER their mean. HTER averages the rejection rate
with the acceptance rate pooled over all attacks.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

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
    def from_codes(cls, scores: np.ndarray, keys: np.ndarray,
                   pairs) -> "RecordColumns":
        """Columns from checked scores and codebook keys.

        keys[i] is record i's index into pairs, the distinct
        (label, attack_kind) pairs in order of first appearance.
        """
        names: dict[str, int] = {}
        living = np.array([label == LIVING for label, _ in pairs], dtype=bool)
        group = np.array([names.setdefault(kind or ATTACK, len(names))
                          for _, kind in pairs], dtype=np.intp)
        columns = (scores, living[keys], group[keys])
        for column in columns:
            column.flags.writeable = False
        return cls(*columns, tuple(names))

    def __len__(self) -> int:
        return len(self.scores)


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
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    return beta * b_hat + (1.0 - beta) * depth_term


def metrics_summary(records: RecordColumns, threshold: float) -> dict:
    """All metrics in one JSON-ready dict with fixed keys.

    The attacks are grouped by tag once; untagged attacks share the ATTACK
    group with attacks tagged "attack", so apcer is max(per_pai_apcer).
    Rates are Python int / int and the groups are in sorted order.
    """
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

    The file is UTF-8 with strict quoting, so a quote left open is an
    error rather than a field that runs to the end of the file. Every data
    row has exactly three fields; blank lines are skipped, and an error
    names the physical line of the first bad row in file order. One pass
    only splits rows; the scores are then checked as one column and the
    labels once per distinct (label, attack_kind) pair.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, strict=True)
            texts, keys, book, stop = _split_rows(reader, reader)
    except UnicodeDecodeError:
        texts, keys, book, stop = _split_rows_above_bad_byte(path)
    pairs = list(book)
    keys = np.array(keys, dtype=np.intp)
    try:
        scores = np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        first = 0    # some score does not parse; the walk below finds it
    else:
        # check_record's rule by column: NaN fails both comparisons.
        known = np.array([label in (LIVING, ATTACK) for label, _ in pairs],
                         dtype=bool)
        good = (scores >= 0.0) & (scores <= 1.0) & known[keys]
        first = len(texts) if good.all() else int(np.argmin(good))
    # Messages come from the per-row rule alone, at the first row it fails.
    for index in range(first, len(texts)):
        text, (label, _) = texts[index], pairs[keys[index]]
        try:
            score = float(text)
        except ValueError:
            raise ValueError(f"line {_line_of(path, index)}: bad score {text!r}")
        try:
            check_record(score, label)
        except ValueError as exc:
            raise ValueError(f"line {_line_of(path, index)}: {exc}")
    if stop is not None:
        raise stop
    if not texts:
        raise ValueError("records CSV holds no data rows")
    return RecordColumns.from_codes(scores, keys, pairs)


def _split_rows(reader, rows) -> tuple[list, list, dict, Optional[ValueError]]:
    """Check the header and split the data rows, parsing nothing.

    rows yields the rows of the csv reader (the reader itself, or a prefix
    of it). Returns each row's score text, its index into the codebook of
    (label, attack_kind) pairs, that codebook, and the error that ended the
    pass early, or None.
    """
    try:
        header = next(rows, None)
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}")
    if header != RECORD_FIELDS:
        raise ValueError(f"records CSV must have columns {RECORD_FIELDS}, "
                         f"got {header}")
    texts, keys, book = [], [], {}
    width = len(RECORD_FIELDS)
    try:
        for row in rows:
            if len(row) == width:
                text, label, kind = row
                texts.append(text)
                keys.append(book.setdefault((label, kind), len(book)))
            elif row:
                return texts, keys, book, ValueError(
                    f"line {reader.line_num}: expected {width} fields, "
                    f"got {len(row)}")
    except csv.Error as exc:
        return texts, keys, book, ValueError(f"line {reader.line_num}: {exc}")
    return texts, keys, book, None


def _split_rows_above_bad_byte(path) -> tuple[list, list, dict, ValueError]:
    """_split_rows over the rows that end above the first undecodable byte.

    The text layer decodes in chunks and rejects a whole chunk, rows above
    the bad byte included, so those rows are split again from a read that
    replaces the byte. The decode error names the byte's physical line and
    its offset in the file (decoding the raw bytes gives the offset), and it
    ends the pass unless a row above that line already did.
    """
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        error = ValueError(f"line {line}: {exc}")
    else:
        raise ValueError(f"{path} changed while it was read")
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh, strict=True)
        above = itertools.takewhile(lambda _: reader.line_num < line, reader)
        try:
            texts, keys, book, stop = _split_rows(reader, above)
        except ValueError:
            if reader.line_num < line:
                raise
            raise error from None
    if reader.line_num >= line:
        stop = error
    return texts, keys, book, stop


def _line_of(path, index: int) -> int:
    """Physical line on which data row index (blank lines not counted) ends.

    Undecodable bytes are replaced, as when the rows above them were split.
    """
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh, strict=True)
        next(reader)
        for row in reader:
            if row:
                if not index:
                    return reader.line_num
                index -= 1
    raise ValueError(f"{path} changed while it was read")
