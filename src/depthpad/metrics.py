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
BLOCK_BYTES = 1 << 18    # bytes read and checked at a time
SCORE_DIGITS = 24        # decimals of a plain score compared as text
TAIL_BYTES = 64          # widest label,attack_kind tail grouped by numpy
TABLE_TAILS = 256        # most distinct tails a file's _TailTable holds
_HEADERS = tuple((",".join(RECORD_FIELDS) + end).encode()
                 for end in ("\n", "\r\n"))
# Commas after each block, so that the word reads of its last rows stay in
# the buffer: a row's tail is read as wide as the block's widest, and its
# score as SCORE_DIGITS decimals.
_PAD = b"," * max(TAIL_BYTES, SCORE_DIGITS + 8)


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
    is opened once and read in one pass, so a pipe works. Memory holds one
    buffer of about two blocks (see _text_blocks), the tally of each PAI
    group and at most TABLE_TAILS tails.

    Blocks are counted in that buffer by _count_plain while they are
    plain, as every block of a file with no quoted field, NUL or lone
    carriage return is. The first block that is not, or that holds a bad
    row, and every block after it are copied out as bytes, split by csv
    and checked by _count_rows a row at a time, which words every error.
    The plain blocks of a file share one _TailTable, so a tail's label is
    checked once per file while the table holds it. The buffer is emptied
    when csv takes over, so the copied block, which may be the capped start
    of a long line that csv fails on, is not held twice.
    """
    living, groups = [0, 0], {}
    cuts, table = _score_cuts(threshold), _TailTable(living, groups)
    with open(path, "rb") as fh:
        blocks, lines, rest = _text_blocks(fh), 0, None
        try:
            for area, end in blocks:
                start = 0
                if not lines and area.startswith(_HEADERS, 0, end):
                    start, lines = area.index(b"\n") + 1, 1
                rows = (_count_plain(area, start, end, threshold, cuts, table)
                        if lines else None)
                if rows is None:
                    rest = bytes(memoryview(area)[start:end])
                    area.clear()
                    break
                lines += rows
        except _NextLineError as exc:
            raise ValueError(f"line {lines + 1}: {exc}")
        if rest is not None:
            copies = (bytes(memoryview(area)[:end]) for area, end in blocks)
            reader = csv.reader(itertools.chain.from_iterable(
                map(_text, itertools.chain([rest], copies))), strict=True)
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
                          tuple((name, tuple(groups[name]))
                                for name in sorted(groups)))
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

    Each block is yielded as (area, end): its bytes are area[:end], and
    len(_PAD) commas follow them. area is one bytearray for the whole file,
    which holds the carried start of a line, one BLOCK_BYTES read into it
    with readinto, and the pad; a line up to a block long fits as it is,
    and a longer one extends it in place, so no view of area may be kept
    from one block to the next. The next block overwrites a block, so each
    is used before the next is asked for. The bytes after the cut are saved
    before the pad is written over them, so a caller may empty area once it
    is done with a block: the next block puts those bytes back and extends
    area before its readinto.

    Each block is valid UTF-8, to be read as the file would be (newline="");
    only a block with a byte of 0x80 or above is decoded to check it.
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
    area = bytearray(2 * BLOCK_BYTES + len(_PAD))
    held, offset = fh.readinto(memoryview(area)[:len(codecs.BOM_UTF8)]), 0
    if area.startswith(codecs.BOM_UTF8, 0, held):
        held, offset = 0, len(codecs.BOM_UTF8)
    while True:
        if len(area) < held + BLOCK_BYTES + len(_PAD):    # a line past a block
            area.extend(bytes(held + BLOCK_BYTES + len(_PAD) - len(area)))
        got = fh.readinto(memoryview(area)[held:held + BLOCK_BYTES])
        end, bad = held + got, None
        cut = 1 + max(area.rfind(b"\n", held, end),
                      area.rfind(b"\r", held, end - 1))
        if not got:
            cut = end
        elif not cut:
            # Three fields of 4-byte characters, quotes and delimiters, and one.
            cap = 3 * (4 * csv.field_size_limit() + 3) + 4
            if end <= cap:
                held = end
                continue
            cut = cap - 1
            while cut > cap - 4 and area[cut] & 0xC0 == 0x80:
                cut -= 1    # a continuation byte: the character began earlier
            bad = csv.Error(f"a line longer than {cap} bytes is not a record")
        carry = area[cut:end] if bad is None else b""
        if cut and np.frombuffer(area, np.uint8, cut).max() >= 0x80:
            try:
                str(memoryview(area)[:cut], "utf-8")
            except UnicodeDecodeError as exc:
                start, last = offset + exc.start, offset + exc.end - 1
                where = (f"byte 0x{area[exc.start]:02x} in position {start}"
                         if start == last
                         else f"bytes in position {start}-{last}")
                bad = _NextLineError(f"{exc.encoding!r} codec can't decode "
                                     f"{where}: {exc.reason}")
                cut = 1 + max(area.rfind(b"\n", 0, exc.start),
                              area.rfind(b"\r", 0, exc.start))
        if isinstance(bad, csv.Error):    # a long line's decodable start
            start = 1 + max(area.rfind(b"\n", 0, cut), area.rfind(b"\r", 0, cut))
            fields = _field_count(area, start, cut)
            if fields > len(RECORD_FIELDS):
                bad = _NextLineError(f"expected {len(RECORD_FIELDS)} fields, "
                                     f"got {fields}")
                cut = start
        area[cut:cut + len(_PAD)] = _PAD
        yield area, cut
        if bad is not None:
            raise bad
        if not got:
            return
        offset += cut
        held = len(carry)
        area[:held] = carry
        del carry    # held in area alone, so a long line is not held twice


def _field_count(data: bytes, start: int, end: int) -> int:
    """The fields csv splits the line data[start:end] into, none of them built.

    A field is quoted when it starts with a quote, and it runs to the quote
    that is not doubled; a delimiter outside quoted fields ends a field.
    """
    if data.find(b'"', start, end) < 0:
        return data.count(b",", start, end) + 1
    fields, at = 1, start
    while True:
        if data.startswith(b'"', at, end):
            at += 1
            while True:    # to the quote that closes the field
                at = data.find(b'"', at, end) + 1
                if not at:
                    return fields
                if not data.startswith(b'"', at, end):
                    break
                at += 1
        at = data.find(b",", at, end) + 1
        if not at:
            return fields
        fields += 1


def _score_cuts(threshold) -> tuple[bytes, bytes]:
    """The keys _rank_scores compares a score's decimals with, as bytes.

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


def _count_plain(area: bytearray, start: int, end: int, threshold: float,
                 cuts, table: _TailTable):
    """Count the rows of area[start:end] into the tallies of table, as csv would.

    The block is read where it lies, with the len(_PAD) commas that follow
    it in area; nothing of it is copied. A block is plain when it ends in
    a line break, holds no quote or NUL, every carriage return in it is
    part of a CRLF, every line that is not blank holds exactly two commas,
    and no field is longer than
    csv.field_size_limit(): csv splits each such line at its commas, and
    takes a CRLF as one line break and a blank line as no row. Scores are
    ranked by _rank_scores, and rows are grouped by their label,attack_kind
    tail by table, which checks each distinct label once.

    Returns how many lines were counted, blank ones included, or None,
    counting nothing, when the block is not plain or one of its rows
    breaks the rule.
    """
    if start == end:
        return 0
    if (area[end - 1] != ord("\n") or area.find(b'"', start, end) >= 0
            or area.find(b"\0", start, end) >= 0):
        return None
    buf = np.frombuffer(area, np.uint8, end + len(_PAD))
    block = buf[start:end]
    breaks = np.flatnonzero(block == ord("\n"))
    breaks += start
    ends = breaks    # where each line's last field ends
    if area.find(b"\r", start, end) >= 0:
        crlf = buf[breaks - 1] == ord("\r")    # index -1 is a pad comma
        if np.count_nonzero(block == ord("\r")) != np.count_nonzero(crlf):
            return None    # a lone carriage return, which csv takes as a break
        ends = breaks - crlf
    starts = np.concatenate(([start], breaks[:-1] + 1))
    rows = starts < ends    # the lines that are not blank
    starts, ends = starts[rows], ends[rows]
    if not len(ends):
        return len(breaks)
    commas = np.flatnonzero(block == ord(","))
    commas += start
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
    accepted, undecided = _rank_scores(buf, starts, firsts, lengths, cuts)
    for row in np.flatnonzero(undecided).tolist():
        try:
            score = float(area[starts[row]:firsts[row]].decode())
        except ValueError:
            return None
        if not 0.0 <= score <= 1.0:
            return None
        accepted[row] = score >= threshold
    grouped = table.group(area, buf, firsts, ends)
    if grouped is None:
        return None
    keys, tallies = grouped
    totals = np.bincount(keys, minlength=len(tallies)).tolist()
    hits = np.bincount(keys[accepted], minlength=len(tallies)).tolist()
    for tally, total, hit in zip(tallies, totals, hits):
        tally[0] += total
        tally[1] += hit
    return len(breaks)


def _words(padded: np.ndarray, dtype: str) -> np.ndarray:
    """The dtype word at each byte offset of uint8 padded, as one unaligned view."""
    size = np.dtype(dtype).itemsize
    return np.ndarray((len(padded) - size + 1,), dtype, padded, strides=(1,))


# A score of n bytes, n <= SCORE_DIGITS + 3, spelled 0.d... has _DECIMALS[n]
# decimals, and _DIGIT_MASKS[j][n] keeps those in its big-endian word j.
_DECIMALS = np.maximum(np.arange(SCORE_DIGITS + 4) - 2, 0)
_DIGIT_MASKS = np.where(
    np.arange(8 * -(-SCORE_DIGITS // 8)) < _DECIMALS[:, None],
    np.uint8(0xFF), np.uint8(0)).view(">u8").astype(np.uint64).T.copy()
_ZEROS = np.uint64(0x3030303030303030)    # b"0" * 8
_SIXES = np.uint64(0x0606060606060606)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)


def _rank_scores(padded: np.ndarray, starts, firsts, lengths, cuts):
    """Rank a plain block's scores against the threshold of cuts.

    A score spelled 0, 0. or 0.d... with at most SCORE_DIGITS decimals is
    in range, and is compared with the threshold as text by the cuts of
    _score_cuts. Its decimals are read as big-endian words, and checked to
    be digits a word at a time. A row whose first word is below the first
    8 bytes of at_least, or above those of above, is ranked by that word;
    the rest are compared as text.

    Returns (accepted, undecided): undecided marks any other score, and
    one equal to the truncated midpoint, to be parsed and checked by float
    as check_record does.
    """
    short = np.minimum(lengths, SCORE_DIGITS + 3)
    at = firsts - _DECIMALS[short]    # the first decimal, or the comma
    heads = _words(padded, "<u2")[starts]
    spelled = (heads | np.uint16(0x200)) == np.uint16(0x2E30)    # "0." or "0,"
    spelled &= short <= SCORE_DIGITS + 2
    words = _words(padded, ">u8")
    key = words[at].astype(np.uint64)    # the first 8 bytes from at
    nondigits = np.zeros(len(at), np.uint64)
    for j, masks in enumerate(_DIGIT_MASKS):
        # Digits become 0-9, and bytes past the decimals 0. Any other byte
        # has a high nibble, or gains one when 6 is added; a carry out of a
        # byte comes only from one that has a high nibble already.
        word = (words[8 * j:][at] if j else key) ^ _ZEROS
        word &= masks[short]
        nondigits |= word
        word += _SIXES
        nondigits |= word
    spelled &= nondigits & _HIGH_NIBBLES == 0
    above, at_least = cuts
    # The first 8 bytes of each cut, as compared as text: NUL-padded.
    high, low = (np.uint64(int.from_bytes(cut[:8].ljust(8, b"\0"), "big"))
                 for cut in cuts)
    accepted = key > high
    undecided = ~spelled
    tied = np.flatnonzero(key - low <= high - low)    # low <= key <= high
    if len(tied):
        width = SCORE_DIGITS + 1    # a score's decimals and the comma after
        cells = sliding_window_view(padded, width)
        cells = cells[at[tied]].view(f"S{width}").ravel()
        accepted[tied] = cells > above
        undecided[tied] |= (cells >= at_least) & ~accepted[tied]
    return accepted, undecided


# _TAIL_MASKS[j][n] keeps the first n bytes of a tail in its little-endian word j.
_TAIL_MASKS = np.where(
    np.arange(TAIL_BYTES) < np.arange(TAIL_BYTES + 1)[:, None],
    np.uint8(0xFF), np.uint8(0)).view("<u8").astype(np.uint64).T.copy()
# A tail's digest is the sum of its words j times _DIGEST[j], modulo 2**64.
_DIGEST = np.uint64(0x9E3779B97F4A7C15) ** np.arange(
    1, TAIL_BYTES // 8 + 1, dtype=np.uint64)


class _TailTable:
    """The label,attack_kind tails of a file's plain blocks, with their tallies.

    It holds at most TABLE_TAILS tails of up to TAIL_BYTES bytes, sorted by
    digest, each with its words, its length and the tally its rows count
    into, and after them a sentinel that no row matches. A block is counted
    against the table when every row matches, in words and length, the tail
    held at its digest, so the grouping is exact whatever the digests. Any
    other block groups its own rows, and its tails join the table when they
    fit; a tail whose digest is held already stays out.
    """

    def __init__(self, living: list, groups: dict):
        self.living, self.groups = living, groups
        self.digests = np.array([np.iinfo(np.uint64).max], np.uint64)
        self.words = np.zeros((TAIL_BYTES // 8, 1), np.uint64)
        self.lengths = np.array([-1])
        self.tallies = [[0, 0]]

    def group(self, area: bytearray, padded: np.ndarray, firsts, ends):
        """Number a plain block's rows by their tail.

        Returns (keys, tallies), row i counting into tallies[keys[i]], or
        None when a tail's label is neither LIVING nor ATTACK. Tails are
        read as little-endian words, zeroed past their length. A block
        with a tail wider than TAIL_BYTES, or with two tails that share a
        digest, is grouped by a dict of its tails' bytes.
        """
        lengths = ends - firsts - 1
        width = -(-int(lengths.max()) // 8)
        if width > TAIL_BYTES // 8:
            return self._by_bytes(area, firsts, ends)
        read = _words(padded, "<u8")
        words = np.empty((width, len(firsts)), np.uint64)
        for j, column in enumerate(words):
            np.bitwise_and(read[8 * j + 1:][firsts], _TAIL_MASKS[j][lengths],
                           out=column)
        digest = words[0] * _DIGEST[0]
        for j in range(1, width):
            digest += words[j] * _DIGEST[j]
        at = np.searchsorted(self.digests, digest)
        hit = self.lengths[at] == lengths
        for held, column in zip(self.words, words):
            hit &= held[at] == column
        if hit.all():
            return at, self.tallies
        _, first, keys = np.unique(digest, return_index=True,
                                   return_inverse=True)
        if not (np.array_equal(lengths, lengths[first][keys])
                and np.array_equal(words, words[:, first][:, keys])):
            return self._by_bytes(area, firsts, ends)
        tallies = self._tallies([area[a + 1:b] for a, b in
                                 zip(firsts[first].tolist(),
                                     ends[first].tolist())])
        if tallies is None:
            return None
        self._hold(digest[first], words[:, first], lengths[first], tallies)
        return keys, tallies

    def _by_bytes(self, area: bytearray, firsts, ends):
        """group, by a dict of the tails' bytes; the table is left as it is."""
        book = {}
        keys = np.fromiter((book.setdefault(bytes(area[a + 1:b]), len(book))
                            for a, b in zip(firsts.tolist(), ends.tolist())),
                           np.intp, len(ends))
        tallies = self._tallies(list(book))
        return None if tallies is None else (keys, tallies)

    def _tallies(self, tails: list):
        """The tally of each tail, or None when a label is not known."""
        pairs = [tail.decode().split(",") for tail in tails]
        if any(label not in (LIVING, ATTACK) for label, _ in pairs):
            return None
        return [_tally(label, kind, self.living, self.groups)
                for label, kind in pairs]

    def _hold(self, digests, words, lengths, tallies: list) -> None:
        """Hold a block's tails, of distinct digests, but each whose digest
        is held already; hold none when they do not all fit."""
        new = self.digests[np.searchsorted(self.digests, digests)] != digests
        if len(self.tallies) + np.count_nonzero(new) > TABLE_TAILS + 1:
            return
        digests = np.concatenate([self.digests, digests[new]])
        order = np.argsort(digests, kind="stable")
        padded = np.zeros((len(self.words), np.count_nonzero(new)), np.uint64)
        padded[:len(words)] = words[:, new]
        self.digests = digests[order]
        self.words = np.concatenate([self.words, padded], axis=1)[:, order]
        self.lengths = np.concatenate([self.lengths, lengths[new]])[order]
        tallies = self.tallies + [tally for tally, is_new
                                  in zip(tallies, new.tolist()) if is_new]
        self.tallies = [tallies[i] for i in order.tolist()]


def _tally(label: str, kind: str, living: list, groups: dict) -> list:
    """The [records, accepted] tally that a row of label and kind counts
    into: living's, or its PAI group's, an empty kind counting as ATTACK."""
    if label == LIVING:
        return living
    return groups.setdefault(kind or ATTACK, [0, 0])


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
                tally = tallies[label, kind] = _tally(label, kind, living,
                                                      groups)
            tally[0] += 1
            if score >= threshold:
                tally[1] += 1
    except (csv.Error, ValueError) as exc:
        raise _located(exc, reader, base)
