"""Evaluation metrics for presentation attack detection, plus the live score.

A record is accepted as bona fide when its score reaches the threshold.
APCER is the worst per-instrument acceptance rate among attacks, BPCER the
bona fide rejection rate, ACER their mean. HTER averages the rejection rate
with the acceptance rate pooled over all attacks.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .supervision import multi_frame_loss

LIVING = "living"
ATTACK = "attack"
RECORD_FIELDS = ["score", "label", "attack_kind"]
BLOCK_BYTES = 1 << 16    # bytes read and decoded at a time
SCORE_DIGITS = 24        # decimals of a plain score compared as text
TAIL_BYTES = 64          # widest label,attack_kind tail grouped by numpy
_HEADERS = tuple((",".join(RECORD_FIELDS) + end).encode()
                 for end in ("\n", "\r\n"))


def check_record(score: float, label: str) -> None:
    """The rule every record obeys: a finite score in [0, 1] and a known label."""
    if not math.isfinite(score) or not 0.0 <= score <= 1.0:
        raise ValueError(f"score must be finite in [0, 1], got {score!r}")
    if label not in (LIVING, ATTACK):
        raise ValueError(f"label must be {LIVING!r} or {ATTACK!r}, got {label!r}")


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
    is opened once and read in one pass, so a pipe works, and memory holds
    one block plus the tally of each PAI group.

    Blocks are counted by _count_plain while they are plain, as every
    block of a file with no quoted field, NUL or lone carriage return is.
    The first block that is not, or that holds a bad row, and every block
    after it are split by csv and checked by _count_rows a row at a time,
    which words every error.
    """
    living, groups = [0, 0], {}
    cuts = _score_cuts(threshold)
    with open(path, "rb") as fh:
        blocks, lines, rest = _text_blocks(fh), 0, None
        try:
            for data in blocks:
                if not lines and data.startswith(_HEADERS):
                    data, lines = data[data.index(b"\n") + 1:], 1
                rows = (_count_plain(data, threshold, cuts, living, groups)
                        if lines else None)
                if rows is None:
                    rest = data
                    break
                lines += rows
        except _NextLineError as exc:
            raise ValueError(f"line {lines + 1}: {exc}")
        if rest is not None:
            reader = csv.reader(itertools.chain.from_iterable(
                map(_text, itertools.chain([rest], blocks))), strict=True)
            if not lines:
                try:
                    header = next(reader, None)
                except (csv.Error, _NextLineError) as exc:
                    raise _located(exc, reader, 0)
                if header != RECORD_FIELDS:
                    raise ValueError(f"records CSV must have columns "
                                     f"{RECORD_FIELDS}, got {header}")
            _count_rows(reader, lines, threshold, living, groups)
    counts = RecordCounts(threshold, tuple(living),
                          tuple((name, tuple(tally))
                                for name, tally in sorted(groups.items())))
    if not len(counts):
        raise ValueError("records CSV holds no data rows")
    return counts


class _NextLineError(ValueError):
    """An error on the line after the last one the reader was given.

    An undecodable byte is worded as decoding the whole file words it.
    """


def _located(exc: Exception, reader, base: int) -> ValueError:
    """exc, raised reading or checking reader's rows, naming its line.

    base is the number of lines read before the reader's first line.
    """
    line = base + reader.line_num + isinstance(exc, _NextLineError)
    return ValueError(f"line {line}: {exc}")


def _text(data: bytes):
    """A block as a text stream, read as the file would be (newline="")."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")


def _text_blocks(fh):
    """The lines of binary file fh as blocks of bytes that end at a line break.

    Each block is valid UTF-8, to be read as the file would be (newline="").
    Line breaks are ASCII, so a cut after one never splits a UTF-8
    sequence, and a cut after a carriage return waits for the next byte, so
    a CRLF stays whole in one block, where _count_plain reads it as one line
    break. At an undecodable byte the lines above its line come first, then
    _NextLineError with the byte's offset in the file.
    One leading UTF-8 byte order mark, as spreadsheet tools write, is read
    as the encoding mark and not as text; offsets still count it.

    A line longer than three maximal csv fields is never held whole: its
    first bytes to that length, less their last character, are the last
    block, and csv fails within them (or the line is an error of its own).
    The limit is csv.field_size_limit() at the time. When those bytes hold
    more than a record's fields, csv never splits them: the line is the
    _NextLineError that names their field count.
    """
    parts, offset = [fh.read(len(codecs.BOM_UTF8))], 0
    if parts[0] == codecs.BOM_UTF8:
        parts, offset = [], len(codecs.BOM_UTF8)
    while True:
        block, bad = fh.read(BLOCK_BYTES), None
        cut = 1 + max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1))
        if block and not cut:
            parts.append(block)
            # Three fields of 4-byte characters, quotes and delimiters, and one.
            cap = 3 * (4 * csv.field_size_limit() + 3) + 4
            if sum(map(len, parts)) <= cap:
                continue
            data, parts = b"".join(parts), []
            cut = cap - 1
            while cut > cap - 4 and data[cut] & 0xC0 == 0x80:
                cut -= 1    # a continuation byte: the character began earlier
            block = data[:cut]
            bad = csv.Error(f"a line longer than {cap} bytes is not a record")
        data = b"".join([*parts, block[:cut]])
        parts = [block[cut:]]
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            start, end = offset + exc.start, offset + exc.end - 1
            where = (f"byte 0x{data[exc.start]:02x} in position {start}"
                     if start == end else f"bytes in position {start}-{end}")
            bad = _NextLineError(f"{exc.encoding!r} codec can't decode "
                                 f"{where}: {exc.reason}")
            head = data[:exc.start]
            data = head[:1 + max(head.rfind(b"\n"), head.rfind(b"\r"))]
        if isinstance(bad, csv.Error):    # a long line's decodable start
            start = 1 + max(data.rfind(b"\n"), data.rfind(b"\r"))
            fields = _field_count(data, start)
            if fields > len(RECORD_FIELDS):
                bad = _NextLineError(f"expected {len(RECORD_FIELDS)} fields, "
                                     f"got {fields}")
                data = data[:start]
        yield data
        if bad is not None:
            raise bad
        offset += len(data)
        if not block:
            return


def _field_count(data: bytes, start: int) -> int:
    """The fields csv splits the line data[start:] into, none of them built.

    A field is quoted when it starts with a quote, and it runs to the quote
    that is not doubled; a delimiter outside quoted fields ends a field.
    """
    if data.find(b'"', start) < 0:
        return data.count(b",", start) + 1
    fields, at = 1, start
    while True:
        if data.startswith(b'"', at):
            at += 1
            while True:    # to the quote that closes the field
                at = data.find(b'"', at) + 1
                if not at:
                    return fields
                if not data.startswith(b'"', at):
                    break
                at += 1
        at = data.find(b",", at) + 1
        if not at:
            return fields
        fields += 1


def _score_cuts(threshold) -> tuple[bytes, bytes]:
    """The keys _count_plain compares a score's decimals with, as bytes.

    Let m be the midpoint between threshold and the float below it, and M
    its first SCORE_DIGITS decimals, truncated. A score 0.d, d of at most
    SCORE_DIGITS digits, is at least threshold as a float when d, padded
    with "0", exceeds M (its value then exceeds m and rounds to threshold
    or beyond), and below it when padded d is below M (its value is below
    m and rounds to the float below or lower). m is a dyadic rational,
    computed with integers. Returns (above, at_least), compared with d and
    the comma after it: d + "," > above, M and one "0", exactly when
    padded d exceeds M, and d + "," >= at_least, M without its trailing
    zeros and a comma, exactly when padded d reaches M. A d equal to M is
    left to float. Outside (0, 1] the keys take every score or none, and
    a NaN threshold none.
    """
    t = float(threshold)
    if not 0.0 < t <= 1.0:
        return (b"", b"") if t <= 0.0 else (b"\xff", b"\xff")
    a, b = t.as_integer_ratio()
    c, d = math.nextafter(t, 0.0).as_integer_ratio()
    digits = (a * d + c * b) * 10 ** SCORE_DIGITS // (2 * b * d)
    digits = f"{digits:0{SCORE_DIGITS}d}"
    return (digits + "0").encode(), (digits.rstrip("0") + ",").encode()


def _count_plain(data: bytes, threshold: float, cuts, living: list,
                 groups: dict):
    """Count a plain block's rows into living and groups, as csv would.

    A block is plain when it ends in a line break, holds no quote or NUL,
    every carriage return in it is part of a CRLF, every line that is not
    blank holds exactly two commas, and no field is longer than
    csv.field_size_limit(): csv splits each such line at its commas, and
    takes a CRLF as one line break and a blank line as no row. A score
    spelled 0, 0. or 0.d... with at most SCORE_DIGITS decimals is in
    range, and is compared with the threshold as text by the cuts of
    _score_cuts. Any other score, and one equal to the truncated midpoint,
    is parsed and checked by float as check_record does. Each distinct
    label,attack_kind tail is checked once.

    Returns how many lines were counted, blank ones included, or None,
    counting nothing, when the block is not plain or one of its rows
    breaks the rule.
    """
    if not data:
        return 0
    if not data.endswith(b"\n") or b'"' in data or b"\0" in data:
        return None
    width = SCORE_DIGITS + 1    # a score's decimals and the comma after them
    buf = np.frombuffer(data + b"," * max(width, TAIL_BYTES), np.uint8)
    breaks = np.flatnonzero(buf == ord("\n"))
    ends = breaks    # where each line's last field ends
    if b"\r" in data:
        crlf = buf[breaks - 1] == ord("\r")    # index -1 is a pad comma
        if np.count_nonzero(buf == ord("\r")) != np.count_nonzero(crlf):
            return None    # a lone carriage return, which csv takes as a break
        ends = breaks - crlf
    starts = np.concatenate(([0], breaks[:-1] + 1))
    rows = starts < ends    # the lines that are not blank
    starts, ends = starts[rows], ends[rows]
    if not len(ends):
        return len(breaks)
    commas = np.flatnonzero(buf[:len(data)] == ord(","))
    if len(commas) != 2 * len(ends):
        return None
    # There are twice as many commas as rows, so each row holds exactly two
    # when its first comma follows its start and its second precedes its end.
    firsts, seconds = commas[0::2], commas[1::2]
    lengths = firsts - starts
    if not (np.all(lengths >= 0) and np.all(seconds < ends)
            and max(lengths.max(), (seconds - firsts).max() - 1,
                    (ends - seconds).max() - 1) <= csv.field_size_limit()):
        return None
    decimals = np.maximum(lengths - 2, 0)
    cells = sliding_window_view(buf, width)[firsts - decimals]
    spelled = ((buf[starts] == ord("0")) & (lengths <= SCORE_DIGITS + 2)
               & ((lengths == 1) | (buf[starts + 1] == ord(".")))
               & (((cells - ord("0")) > 9).argmax(axis=1) == decimals))
    cells = cells.view(f"S{width}").ravel()
    above, at_least = cuts
    accepted = cells > above
    undecided = ~spelled | (cells >= at_least) & ~accepted
    for row in np.flatnonzero(undecided).tolist():
        try:
            score = float(data[starts[row]:firsts[row]].decode())
        except ValueError:
            return None
        if not 0.0 <= score <= 1.0:
            return None
        accepted[row] = score >= threshold
    keys, tails = _tail_keys(data, buf, firsts, ends)
    pairs = [tail.decode().split(",") for tail in tails]
    if any(label not in (LIVING, ATTACK) for label, _ in pairs):
        return None
    totals = np.bincount(keys, minlength=len(pairs)).tolist()
    hits = np.bincount(keys[accepted], minlength=len(pairs)).tolist()
    for (label, kind), total, hit in zip(pairs, totals, hits):
        tally = (living if label == LIVING
                 else groups.setdefault(kind or ATTACK, [0, 0]))
        tally[0] += total
        tally[1] += hit
    return len(breaks)


# _TAIL_MASKS[n] keeps the first n of TAIL_BYTES bytes, as uint64 words.
_TAIL_MASKS = np.where(
    np.arange(TAIL_BYTES) < np.arange(TAIL_BYTES + 1)[:, None],
    np.uint8(0xFF), np.uint8(0)).view(np.uint64)


def _tail_keys(data: bytes, buf, firsts, ends):
    """Number a plain block's rows by their label,attack_kind tail.

    Returns (keys, tails): the tail of row i is tails[keys[i]]. Tails of up
    to TAIL_BYTES bytes are read as zero-padded words and grouped by a hash
    of them; each row's words are then compared with its group's first
    row's, so the grouping is exact. Wider tails, or two tails that share
    a hash, are grouped by a dict of their bytes.
    """
    lengths = ends - firsts - 1
    words = -(-int(lengths.max()) // 8)
    if words <= TAIL_BYTES // 8:
        cells = sliding_window_view(buf, 8 * words)[firsts + 1]
        cells = cells.view(np.uint64)
        cells &= _TAIL_MASKS[lengths, :words]
        digest = cells[:, 0].copy()
        for column in cells.T[1:]:
            digest *= np.uint64(0x9E3779B97F4A7C15)
            digest ^= column
        _, first, keys = np.unique(digest, return_index=True,
                                   return_inverse=True)
        if np.array_equal(cells, cells[first[keys]]):
            return keys, [data[a + 1:b] for a, b
                          in zip(firsts[first].tolist(), ends[first].tolist())]
    book = {}
    keys = np.fromiter((book.setdefault(data[a + 1:b], len(book))
                        for a, b in zip(firsts.tolist(), ends.tolist())),
                       np.intp, len(ends))
    return keys, list(book)


def _count_rows(reader, base: int, threshold: float, living: list,
                groups: dict) -> None:
    """Check and count every row reader yields, one at a time in file order.

    base is the number of lines read before the reader's first line.
    living is the living records' [records, accepted] tally and groups
    maps each PAI group to its own; both are updated in place. A score is
    checked on each row as check_record does, a label once per distinct
    (label, attack_kind) pair.
    """
    tallies, width = {}, len(RECORD_FIELDS)
    try:
        for row in reader:
            if len(row) != width:
                if row:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                continue
            text, label, kind = row
            try:
                score = float(text)
            except ValueError:
                raise ValueError(f"bad score {text!r}")
            if not 0.0 <= score <= 1.0:    # NaN fails both comparisons
                check_record(score, label)
            tally = tallies.get((label, kind))
            if tally is None:
                check_record(score, label)
                tally = tallies[label, kind] = (
                    living if label == LIVING
                    else groups.setdefault(kind or ATTACK, [0, 0]))
            tally[0] += 1
            if score >= threshold:
                tally[1] += 1
    except (csv.Error, ValueError) as exc:
        raise _located(exc, reader, base)
