import codecs
import csv
import dataclasses
import io
import math
import tempfile
import tracemalloc
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from depthpad import metrics
from depthpad.metrics import (
    ATTACK,
    BLOCK_BYTES,
    LIVING,
    RECORD_FIELDS,
    SCORE_DIGITS,
    check_record,
    living_score,
    masked_depth_term,
    metrics_summary,
    read_records_csv,
)

from conftest import record_counts

# Rows of GOOD_ROW in TestChunkBoundaries: a block and a half, so the row
# after them starts mid-way into the second block.
MID_BLOCK_ROWS = 3 * BLOCK_BYTES // 2 // len("0.5,living,\n")


def brute_force_rates(records, threshold):
    # Independent recount: walk the (score, label, attack_kind) records one by
    # one with plain dicts.
    pai_total, pai_accept = {}, {}
    living_total = living_reject = 0
    attack_total = attack_accept = 0
    for score, label, kind in records:
        accepted = score >= threshold
        if label == LIVING:
            living_total += 1
            living_reject += 0 if accepted else 1
        else:
            key = kind or ATTACK
            pai_total[key] = pai_total.get(key, 0) + 1
            pai_accept[key] = pai_accept.get(key, 0) + int(accepted)
            attack_total += 1
            attack_accept += int(accepted)
    apcer = max(pai_accept[k] / pai_total[k] for k in pai_total)
    bpcer = living_reject / living_total
    frr = living_reject / living_total
    far = attack_accept / attack_total
    return apcer, bpcer, (apcer + bpcer) / 2, (frr + far) / 2


def write_records(path, records):
    """A records CSV of (score, label, attack_kind) rows, scores by repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        writer.writerows([repr(score), label, kind or ""]
                         for score, label, kind in records)


class TestCheckRecord:
    def test_score_range(self):
        with pytest.raises(ValueError):
            check_record(1.5, LIVING)
        with pytest.raises(ValueError):
            check_record(float("nan"), LIVING)
        check_record(0.0, LIVING)
        check_record(1.0, ATTACK)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            check_record(0.5, "genuine")


class TestLivingScore:
    def test_arithmetic_example(self):
        # beta 0.9, confident b_hat, mean masked depth 0.5.
        fused = np.full((1, 32, 32), 0.5)
        depth = masked_depth_term(fused, np.ones((32, 32), dtype=int))
        assert living_score(1.0, depth, 0.9) == pytest.approx(0.95)

    def test_spoof_scores_zero(self):
        fused = np.zeros((4, 32, 32))
        mask = np.ones((32, 32), dtype=int)
        assert living_score(0.0, masked_depth_term(fused, mask), 0.9) == 0.0

    def test_beta_one_ignores_depth(self):
        fused = np.full((1, 32, 32), 0.7)
        depth = masked_depth_term(fused, np.ones((32, 32), dtype=int))
        assert living_score(0.42, depth, 1.0) == pytest.approx(0.42)

    def test_empty_mask_rejected(self):
        fused = np.ones((3, 32, 32))
        with pytest.raises(ValueError, match="empty face mask"):
            masked_depth_term(fused, np.zeros((32, 32), dtype=int))
        masks = np.ones((3, 32, 32), dtype=int)
        masks[1] = 0  # one empty frame is enough
        with pytest.raises(ValueError, match="empty face mask"):
            masked_depth_term(fused, masks)

    def test_masked_term_uses_only_face_cells(self):
        grid = np.zeros((4, 4))
        grid[0, 0] = 0.8
        grid[3, 3] = 0.4
        mask = np.zeros((4, 4), dtype=int)
        mask[0, 0] = 1
        assert masked_depth_term([grid], [mask]) == pytest.approx(0.8)

    def test_per_frame_normalization(self):
        g1 = np.full((4, 4), 0.5)
        m1 = np.ones((4, 4), dtype=int)
        g2 = np.zeros((4, 4))
        g2[1, 1] = 0.9
        m2 = np.zeros((4, 4), dtype=int)
        m2[1, 1] = 1
        assert masked_depth_term([g1, g2], [m1, m2]) == pytest.approx((0.5 + 0.9) / 2)

    def test_stack_equals_list(self):
        # A (T, H, W) stack and the same frames as a list give one result.
        rng = np.random.default_rng(31)
        frames = [rng.random((6, 5)) for _ in range(3)]
        masks = [(rng.random((6, 5)) < 0.5).astype(int) for _ in range(3)]
        for mask in masks:
            mask[0, 0] = 1
        for frame_mask in (masks, masks[0]):
            want = masked_depth_term(frames, frame_mask)
            assert masked_depth_term(np.stack(frames), np.asarray(frame_mask)) == want

    def test_one_mask_equals_repeated_mask(self):
        rng = np.random.default_rng(32)
        fused = rng.random((4, 6, 6))
        mask = (rng.random((6, 6)) < 0.5).astype(np.int64)
        mask[2, 3] = 1
        assert masked_depth_term(fused, mask) == masked_depth_term(
            fused, np.broadcast_to(mask, fused.shape))

    def test_mask_binary_enforced(self):
        for value in (2, -1, 0.5, np.nan):
            mask = np.ones((3, 3))
            mask[1, 1] = value
            with pytest.raises(ValueError, match="mask values must be 0 or 1"):
                masked_depth_term(np.ones((2, 3, 3)), mask)

    @pytest.mark.parametrize("shape", [(4,), (4, 5), (5, 4), (2, 4, 4),
                                       (1, 3, 4, 4), (4, 4, 1)])
    def test_mask_shape_must_match_frame_or_stack(self, shape):
        with pytest.raises(ValueError, match="mask is"):
            masked_depth_term(np.ones((3, 4, 4)), np.ones(shape, dtype=int))

    @pytest.mark.parametrize("fused", [np.ones((4, 4)), np.ones((0, 4, 4)),
                                       np.ones((2, 1, 4, 4))])
    def test_depth_must_be_a_nonempty_stack(self, fused):
        with pytest.raises(ValueError, match=r"\(T, H, W\) stack"):
            masked_depth_term(fused, np.ones((4, 4), dtype=int))


def make_records(per_pai_counts, living_counts, threshold=0.5):
    """Counts with exact accept/reject numbers at the threshold."""
    hi, lo = threshold + 0.2, threshold - 0.2
    records = []
    for kind, (accepted, rejected) in per_pai_counts.items():
        records += [(hi, ATTACK, kind)] * accepted
        records += [(lo, ATTACK, kind)] * rejected
    accepted, rejected = living_counts
    records += [(hi, LIVING, None)] * accepted
    records += [(lo, LIVING, None)] * rejected
    return record_counts(records, threshold)


class TestApcerBpcerAcer:
    def test_fixed_operating_point(self):
        # One attack in forty accepted (2.5%), no bona fide rejections; the
        # mean lands at 1.25%, shown as 1.3 at one decimal with halves
        # rounding up.
        records = make_records({"print1": (1, 39)}, (10, 0))
        summary = metrics_summary(records)
        assert summary["apcer"] == pytest.approx(0.025)
        assert summary["bpcer"] == 0.0
        assert summary["acer"] == pytest.approx(0.0125)
        half_up = Decimal(str(summary["acer"] * 100)).quantize(Decimal("0.1"),
                                                                ROUND_HALF_UP)
        assert half_up == Decimal("1.3")

    def test_perfect_separation(self):
        records = make_records({"print1": (0, 5), "replay1": (0, 5)}, (5, 0))
        summary = metrics_summary(records)
        assert (summary["apcer"], summary["bpcer"], summary["acer"]) == (0.0, 0.0, 0.0)

    def test_worst_pai_wins(self):
        records = make_records({"print1": (1, 9), "replay1": (3, 3)}, (4, 1))
        summary = metrics_summary(records)
        assert summary["apcer"] == pytest.approx(0.5)  # replay1 is the weak spot
        assert summary["bpcer"] == pytest.approx(0.2)
        assert summary["acer"] == pytest.approx(0.35)

    def test_matches_brute_force_on_random_sets(self):
        rng = np.random.default_rng(0)
        kinds = ["print1", "print2", "replay1", ATTACK, None]
        for _ in range(100):
            records = [(rng.random(), LIVING, None)
                       for _ in range(rng.integers(1, 8))]
            records += [(rng.random(), ATTACK, kinds[rng.integers(len(kinds))])
                        for _ in range(rng.integers(1, 12))]
            threshold = rng.random()
            summary = metrics_summary(record_counts(records, threshold))
            got = tuple(summary[k] for k in ("apcer", "bpcer", "acer", "hter"))
            assert got == pytest.approx(brute_force_rates(records, threshold))
            assert summary["apcer"] == got[0]
            assert summary["apcer"] == max(summary["per_pai_apcer"].values())

    def test_untagged_attacks_group_with_attack_tag(self):
        # One accepted untagged attack and two rejected "attack"-tagged ones
        # form a single group of three.
        records = record_counts([(0.9, ATTACK, None), (0.1, ATTACK, ATTACK),
                                 (0.1, ATTACK, ATTACK), (0.9, LIVING, None)],
                                0.5)
        summary = metrics_summary(records)
        assert summary["per_pai_apcer"] == {ATTACK: pytest.approx(1 / 3)}
        assert summary["apcer"] == max(summary["per_pai_apcer"].values())

    def test_missing_class_rejected(self):
        with pytest.raises(ValueError):
            metrics_summary(record_counts([(0.5, LIVING, None)], 0.5))
        with pytest.raises(ValueError):
            metrics_summary(record_counts([(0.5, ATTACK, "print1")], 0.5))

    def test_acer_dominates_half_of_worst_rate(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            records = [(rng.random(), LIVING, None) for _ in range(5)]
            records += [(rng.random(), ATTACK, "print1") for _ in range(5)]
            summary = metrics_summary(record_counts(records, 0.5))
            acer = summary["acer"]
            assert 0.0 <= acer <= 1.0
            assert acer >= max(summary["apcer"], summary["bpcer"]) / 2


class TestHter:
    def test_perfect_separation(self):
        records = make_records({"print1": (0, 5)}, (5, 0))
        assert metrics_summary(records)["hter"] == 0.0

    def test_everything_wrong(self):
        records = make_records({"print1": (5, 0)}, (0, 5))
        assert metrics_summary(records)["hter"] == 1.0

    def test_pooled_attacks(self):
        # Per-PAI rates 0.5 and 0.0 pool to 3/12, not to the max.
        records = make_records({"print1": (3, 3), "replay1": (0, 6)}, (6, 0))
        assert metrics_summary(records)["hter"] == pytest.approx(
            (0.0 + 3 / 12) / 2)


class TestThresholdMonotonicity:
    def test_rates_move_monotonically(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            records = [(rng.random(), LIVING, None) for _ in range(8)]
            records += [(rng.random(), ATTACK, rng.choice(["print1", "replay1"]))
                        for _ in range(8)]
            thresholds = np.linspace(0, 1.0001, 12)
            bpcers, apcers = [], []
            for th in thresholds:
                summary = metrics_summary(record_counts(records, th))
                apcers.append(summary["apcer"])
                bpcers.append(summary["bpcer"])
            assert all(b2 >= b1 for b1, b2 in zip(bpcers, bpcers[1:]))
            assert all(a2 <= a1 for a1, a2 in zip(apcers, apcers[1:]))


class TestSummaryAndCsv:
    def test_summary_keys_and_values(self):
        records = make_records({"print1": (1, 39)}, (10, 0))
        summary = metrics_summary(records)
        assert list(summary) == ["threshold", "apcer", "bpcer", "acer", "hter",
                                 "per_pai_apcer", "n_living", "n_attack"]
        assert summary["acer"] == pytest.approx(0.0125)
        assert summary["per_pai_apcer"] == {"print1": pytest.approx(0.025)}
        assert summary["n_living"] == 10
        assert summary["n_attack"] == 40

    def test_csv_round_trip(self, tmp_path):
        records = [(0.9, LIVING, None), (0.2, ATTACK, "print1"),
                   (0.4, ATTACK, None), (0.6, ATTACK, ATTACK)]
        path = tmp_path / "records.csv"
        write_records(path, records)
        back = read_records_csv(path, 0.5)
        assert back == record_counts(records, 0.5)
        assert len(back) == 4
        assert back.living == (1, 1)
        assert back.groups == (("attack", (2, 1)), ("print1", (1, 0)))

    def test_counts_are_immutable(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records(path, [(0.9, LIVING, None), (0.2, ATTACK, "print1")])
        counts = read_records_csv(path, 0.5)
        for field in ("threshold", "living", "groups"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(counts, field, getattr(counts, field))
        assert isinstance(counts.living, tuple)
        assert all(isinstance(item, tuple) and isinstance(item[1], tuple)
                   for item in counts.groups)

    def test_bad_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("score,label,attack_kind\n0.5,living,\nnope,attack,print1\n")
        with pytest.raises(ValueError, match="line 3"):
            read_records_csv(path, 0.5)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("score,label,attack_kind\n\n0.5,living,\n\nnope,attack,x\n")
        with pytest.raises(ValueError, match="^line 5: bad score 'nope'$"):
            read_records_csv(path, 0.5)
        path.write_text("score,label,attack_kind\n\n0.5,living,\n\n0.2,attack,x\n\n")
        counts = read_records_csv(path, 0.3)
        assert len(counts) == 2
        assert counts.living == (1, 1)
        assert counts.groups == (("x", (1, 0)),)

    def test_rule_errors_name_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for row, message in (("1.5,living,", "score must be finite"),
                             ("nan,attack,x", "score must be finite"),
                             ("0.5,genuine,", "label must be")):
            path.write_text(f"score,label,attack_kind\n0.5,living,\n{row}\n")
            with pytest.raises(ValueError, match=f"^line 3: {message}"):
                read_records_csv(path, 0.5)

    def test_over_long_field_names_its_line(self, tmp_path):
        path = tmp_path / "long.csv"
        long_tag = "x" * (csv.field_size_limit() + 1)
        path.write_text(f"score,label,{long_tag}\n0.5,living,\n")
        with pytest.raises(ValueError, match="^line 1: field larger than"):
            read_records_csv(path, 0.5)
        body = f"score,label,attack_kind\n0.5,living,\n0.2,attack,{long_tag}\n"
        path.write_text(body)
        with pytest.raises(ValueError, match="^line 3: field larger than"):
            read_records_csv(path, 0.5)
        # A bad row above the over-long field is the one reported.
        path.write_text(body.replace("0.5,living", "nope,living"))
        with pytest.raises(ValueError, match="^line 2: bad score 'nope'$"):
            read_records_csv(path, 0.5)

    def test_bad_row_above_undecodable_bytes_wins(self, tmp_path):
        path = tmp_path / "bytes.csv"
        rows = b"0.5,living,\n" * 4000    # 48 KB between them, in one block
        path.write_bytes(b"score,label,attack_kind\n0.5,living,\nnope,attack,\n"
                         + rows + b"0.2,attack,\xff\xfe\n")
        with pytest.raises(ValueError, match="^line 3: bad score 'nope'$"):
            read_records_csv(path, 0.5)

    def test_bad_row_in_the_undecodable_block_wins(self, tmp_path):
        path = tmp_path / "bytes.csv"
        head = b"score,label,attack_kind\n0.5,living,\n"
        path.write_bytes(head + b"nope,attack,\n0.2,attack,\xff\n")
        with pytest.raises(ValueError, match="^line 3: bad score 'nope'$"):
            read_records_csv(path, 0.5)
        path.write_bytes(head + b"0.5,attack\n0.2,attack,\xff\n")
        with pytest.raises(ValueError, match="^line 3: expected 3 fields, got 2$"):
            read_records_csv(path, 0.5)
        # The row that holds the byte is not checked: the byte comes first.
        path.write_bytes(head + b"nope,attack,\xff\n")
        with pytest.raises(ValueError, match="^line 3: 'utf-8' codec"):
            read_records_csv(path, 0.5)

    def test_unclosed_quote_names_its_line(self, tmp_path):
        path = tmp_path / "quote.csv"
        path.write_text('score,label,attack_kind\n0.9,living,\n'
                        '0.5,attack,"abc\n0.2,living,\n0.3,attack,x\n')
        with pytest.raises(ValueError, match="^line 5: unexpected end of data$"):
            read_records_csv(path, 0.5)
        # A bad row above the open quote is the one reported.
        path.write_text('score,label,attack_kind\nnope,living,\n'
                        '0.5,attack,"abc\n0.2,living,\n')
        with pytest.raises(ValueError, match="^line 2: bad score 'nope'$"):
            read_records_csv(path, 0.5)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_undecodable_byte_names_its_line(self, tmp_path, newline):
        path = tmp_path / "bytes.csv"
        for rows in (1, 4000):    # next to the header, and 4000 rows below it
            lines = ([b"score,label,attack_kind"] + [b"0.5,living,"] * rows
                     + [b"0.2,att\xffack,", b"0.1,attack,"])
            path.write_bytes(newline.join(lines) + newline)
            with pytest.raises(ValueError, match=f"^line {rows + 2}: 'utf-8' "
                                                 "codec can't decode byte 0xff"):
                read_records_csv(path, 0.5)
        path.write_bytes(b"score,label,\xffattack_kind\n0.5,living,\n")
        with pytest.raises(ValueError, match="^line 1: 'utf-8' codec"):
            read_records_csv(path, 0.5)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_records_csv(path, 0.5)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("score,label,attack_kind\n")
        with pytest.raises(ValueError):
            read_records_csv(path, 0.5)


# -- property tests: the columnar core against the per-record recount -------

record_st = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([LIVING, ATTACK]),
    st.sampled_from([None, "", ATTACK, "print", "replay", "mask"]))


@st.composite
def scored_sets(draw):
    """Records with both classes, and a threshold that may tie a score."""
    records = draw(st.lists(record_st, min_size=0, max_size=40))
    records.append((draw(st.floats(0.0, 1.0)), LIVING,
                    draw(st.sampled_from([None, "print"]))))
    records.append((draw(st.floats(0.0, 1.0)), ATTACK,
                    draw(st.sampled_from([None, ATTACK, "print"]))))
    records = draw(st.permutations(records))
    tie = st.sampled_from([score for score, _, _ in records])
    threshold = draw(st.one_of(tie, st.floats(0.0, 1.0)))
    return records, threshold


class TestColumnarCoreProperties:
    @settings(max_examples=300, deadline=None)
    @given(scored_sets())
    def test_summary_equals_brute_force(self, drawn):
        records, threshold = drawn
        summary = metrics_summary(record_counts(records, threshold))
        got = (summary["apcer"], summary["bpcer"], summary["acer"],
               summary["hter"])
        assert got == brute_force_rates(records, threshold)
        assert summary["apcer"] == max(summary["per_pai_apcer"].values())
        attacks = [r for r in records if r[1] == ATTACK]
        assert list(summary["per_pai_apcer"]) == sorted(
            {kind or ATTACK for _, _, kind in attacks})
        assert summary["n_living"] == len(records) - len(attacks)
        assert summary["n_attack"] == len(attacks)
        assert type(summary["n_living"]) is int
        assert type(summary["n_attack"]) is int

    @settings(max_examples=300, deadline=None)
    @given(scored_sets())
    def test_tied_score_is_accepted(self, drawn):
        records, _ = drawn
        score, label, kind = records[0]
        summary = metrics_summary(record_counts(records, score))
        # The record at the threshold counts as accepted: a living one keeps
        # BPCER below 1, an attack lifts its PAI's APCER above 0.
        if label == LIVING:
            assert summary["bpcer"] < 1.0
        else:
            assert summary["per_pai_apcer"][kind or ATTACK] > 0.0

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scored_sets())
    def test_csv_columns_give_the_same_summary(self, drawn):
        records, threshold = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            write_records(path, records)
            back = read_records_csv(path, threshold)
        assert back == record_counts(records, threshold)
        assert metrics_summary(back) == metrics_summary(
            record_counts(records, threshold))


# -- differential test: the column reader against the row-at-a-time one ------

def reference_read_records_csv(path):
    """The reader that checked each row as it went, kept as the reference.

    Returns (scores, living, groups, group_names) or raises ValueError.
    """
    scores, labels, kinds = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, strict=True)
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
    index = {}
    codes = [index.setdefault(kind or ATTACK, len(index)) for kind in kinds]
    return (np.array(scores, dtype=np.float64),
            np.array([label == LIVING for label in labels], dtype=bool),
            np.array(codes, dtype=np.intp), tuple(index))


# Tags csv writes bare (some too wide to group as words), and tags it quotes.
plain_tag_st = st.one_of(
    st.sampled_from(["", ATTACK, "print", "Attack", LIVING]),
    st.text(alphabet="ab _", max_size=6),
    st.integers(metrics.TAIL_BYTES - 8, metrics.TAIL_BYTES).map(
        lambda width: ("ab _" * width)[:width]))
tag_st = st.one_of(plain_tag_st, st.text(alphabet='ab ,"\n\r', max_size=6))


def spellings(value):
    """Ways to write a score of value that float reads back near it."""
    return [repr(value), repr(value) + "000", format(value, ".17f"),
            format(value, ".40f")]


score_st = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.integers(0, 3)).map(
        lambda drawn: spellings(drawn[0])[drawn[1]]),
    st.sampled_from(["0", "1", "1e-1", " 0.5", "-0.0", "0.", "1.0", ".5"]))


def faults(tags):
    """Rows that break the rule, with tags drawn from tags."""
    return st.one_of(
        # wrong field count
        st.lists(st.sampled_from(["0.5", LIVING, "", "x,y"]), min_size=1,
                 max_size=5).filter(lambda row: len(row) != 3),
        # unparseable score
        st.tuples(st.sampled_from(["nope", "", "0.5.1", "0x1", "1,5", "0..5",
                                   "0.5x", "0.1-2"]),
                  st.sampled_from([LIVING, ATTACK]), tags).map(list),
        # score out of range or not finite
        st.tuples(st.sampled_from(["1.5", "-0.1", "nan", "inf", "-inf",
                                   "1_0"]),
                  st.sampled_from([LIVING, ATTACK]), tags).map(list),
        # unknown label
        st.tuples(st.floats(0.0, 1.0).map(repr),
                  st.sampled_from(["genuine", "Living", "", "attack "]),
                  tags).map(list))


plain_fault_st, fault_st = faults(plain_tag_st), faults(tag_st)


def midpoint_below(threshold, digits, step=0):
    """The midpoint between threshold and the float below it, truncated to
    digits decimals and moved by step units of the last, as a score."""
    mid = (Fraction(threshold)
           + Fraction(math.nextafter(threshold, -math.inf))) / 2
    return f"0.{math.floor(mid * 10 ** digits) + step:0{digits}d}"


@st.composite
def records_csv_texts(draw):
    """A records CSV and a threshold: valid rows, blank lines and zero or
    more faults, with LF or CRLF line ends. Half the files have no quoted
    tag before their first fault, so they reach the numpy path; the other
    half draw tags that csv quotes. The threshold is a row's score, a float
    next to one, or any float in [0, 1]; rows written as the decimals of
    the midpoint below it, truncated, sit on either side of its cut."""
    plain = draw(st.booleans())
    valid_row = st.tuples(score_st, st.sampled_from([LIVING, ATTACK]),
                          plain_tag_st if plain else tag_st).map(list)
    rows = draw(st.lists(st.one_of(valid_row, st.just([])), max_size=25))
    near = [value for row in rows if row
            for value in (float(row[0]), math.nextafter(float(row[0]), 2.0),
                          math.nextafter(float(row[0]), -1.0))]
    if near and draw(st.booleans()):
        threshold = near[draw(st.integers(0, len(near) - 1))]
    else:
        threshold = draw(st.floats(0.0, 1.0))
    if 0.0 < threshold <= 1.0:
        for digits, step in draw(st.lists(st.tuples(
                st.sampled_from([SCORE_DIGITS - 1, SCORE_DIGITS,
                                 SCORE_DIGITS + 1]),
                st.sampled_from([0, 0, 1])), max_size=3)):
            rows.insert(draw(st.integers(0, len(rows))),
                        [midpoint_below(threshold, digits, step),
                         draw(st.sampled_from([LIVING, ATTACK])), "cut"])
    for fault in draw(st.lists(plain_fault_st if plain else fault_st,
                               max_size=3)):
        rows.insert(draw(st.integers(0, len(rows))), fault)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n",
                                                                  "\r\n"])))
    writer.writerow(RECORD_FIELDS)
    writer.writerows(rows)
    return out.getvalue(), threshold


def read_outcome(read, *args):
    try:
        return read(*args)
    except ValueError as exc:
        return str(exc)


def counts_of_columns(columns, threshold):
    """Counts of the reference reader's columns at threshold."""
    scores, living, groups, group_names = columns
    return record_counts([(score, LIVING if is_living else ATTACK,
                           group_names[group])
                          for score, is_living, group
                          in zip(scores.tolist(), living.tolist(),
                                 groups.tolist())], threshold)


class TestReaderMatchesRowAtATimeReference:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(records_csv_texts())
    def test_same_columns_or_same_message(self, drawn):
        text, threshold = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.csv"
            path.write_text(text, newline="")
            want = read_outcome(reference_read_records_csv, path)
            got = read_outcome(read_records_csv, path, threshold)
        if isinstance(want, str):
            assert got == want
            return
        assert got == counts_of_columns(want, threshold)

    @pytest.mark.parametrize("first", ["", "\n", '0.2,attack,"a\nb"\n',
                                       "0.2,attack,x\r\n"],
                             ids=["none", "blank line", "quoted tag", "CRLF"])
    def test_lines_count_on_past_plain_blocks(self, tmp_path, first):
        # Several plain blocks, then a blank line, a tag quoted over two
        # lines or a CRLF. Only the quoted tag hands the file to csv: from
        # its block on the file is read by csv, and the lines of the blocks
        # counted before it still number its rows.
        rows = "0.25,attack,print\n0.75,living,\n0.5,attack,\n"
        repeats = 3 * BLOCK_BYTES // len(rows)
        head = HEADER + rows * repeats + first
        path = tmp_path / "records.csv"
        path.write_text(head + rows * 5, newline="")
        assert len(read_both(path)) == 3 * (repeats + 5) + ("," in first)
        path.write_text(head + rows * 5 + "nope,attack,\n" + rows,
                        newline="")
        line = head.count("\n") + 16
        assert read_both(path) == f"line {line}: bad score 'nope'"

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_blank_lines_count_in_plain_blocks(self, tmp_path, newline):
        # Blank lines are lines but never rows, in the plain blocks numpy
        # counts as in the block csv reads after them.
        rows = "0.25,attack,print\n\n0.75,living,\n"
        text = (HEADER + "\n" + rows * (3 * BLOCK_BYTES // len(rows))
                + "\nnope,attack,\n")
        path = tmp_path / "records.csv"
        path.write_text(text.replace("\n", newline), newline="")
        line = text.count("\n")
        assert read_both(path) == f"line {line}: bad score 'nope'"


# -- the streaming reader at its block boundaries ----------------------------

HEADER = "score,label,attack_kind\n"
GOOD_ROW = "0.5,living,\n"


def read_both(path, threshold=0.5):
    """The reader's outcome, asserted equal to the reference reader's."""
    got = read_outcome(read_records_csv, path, threshold)
    want = read_outcome(reference_read_records_csv, path)
    assert got == (want if isinstance(want, str)
                   else counts_of_columns(want, threshold))
    return got


class TestFieldCount:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet='a,"', min_size=1, max_size=12),
           st.sampled_from(["", "x\n"]))
    def test_matches_csv_on_each_line_it_parses(self, line, before):
        try:
            row = next(csv.reader([line], strict=True))
        except csv.Error:
            return    # strict csv refuses the line itself
        data = (before + line).encode()
        assert metrics._field_count(data, len(before), len(data)) == len(row)


class TestChunkBoundaries:
    def test_first_bad_row_in_the_second_block(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(HEADER + GOOD_ROW * (MID_BLOCK_ROWS + 10) + "\n\n"
                        + '0.2,attack,"a\nb"\nnope,attack,x\n')
        assert read_both(path) == (f"line {MID_BLOCK_ROWS + 16}: "
                                   "bad score 'nope'")

    def test_earlier_bad_row_wins_across_blocks(self, tmp_path):
        # Row MID_BLOCK_ROWS, in the second block, breaks the rule; the row
        # after it has two fields.
        path = tmp_path / "records.csv"
        path.write_text(HEADER + GOOD_ROW * (MID_BLOCK_ROWS - 1)
                        + "1.5,living,\n" + "0.5,attack\n" + GOOD_ROW)
        assert read_both(path) == (f"line {MID_BLOCK_ROWS + 1}: score must be "
                                   "finite in [0, 1], got 1.5")

    @pytest.mark.parametrize("where", ["row before mid-block",
                                       "row at mid-block", "block cut"])
    def test_multi_line_tag_at_a_boundary(self, tmp_path, where):
        tag = '0.2,attack,"a\nb\r\nc\rd"\n'     # three line breaks
        before = {"row before mid-block": MID_BLOCK_ROWS - 1,
                  "row at mid-block": MID_BLOCK_ROWS,
                  "block cut": (BLOCK_BYTES - len(HEADER)) // len(GOOD_ROW)}
        rows = [GOOD_ROW] * (MID_BLOCK_ROWS + 20)
        rows.insert(before[where], tag)
        path = tmp_path / "records.csv"
        path.write_text(HEADER + "".join(rows), newline="")
        counts = read_both(path)
        assert counts.groups == (("a\nb\r\nc\rd", (1, 0)),)
        path.write_text(HEADER + "".join(rows) + "nope,attack,\n", newline="")
        assert read_both(path) == (f"line {len(rows) + 5}: "
                                   "bad score 'nope'")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_bad_byte_right_after_the_block_cut(self, tmp_path, newline):
        # The line above the bad byte ends on the block's last byte; a
        # line break whose next byte is unread is no cut, so for CRLF the
        # cut waits for the LF in the next block.
        row = GOOD_ROW.replace("\n", newline)
        head = HEADER.replace("\n", newline) + row * (BLOCK_BYTES // len(row) - 9)
        end = BLOCK_BYTES + len(newline) - 1
        fill = "0.5,attack," + "x" * (end - len(head) - 11 - len(newline))
        raw = (head + fill + newline).encode()
        assert len(raw) == end
        path = tmp_path / "records.csv"
        path.write_bytes(raw + b"\xff,attack,\n".replace(b"\n",
                                                          newline.encode()))
        line = raw.count(newline.encode()) + 1
        with pytest.raises(ValueError, match=(
                f"^line {line}: 'utf-8' codec can't decode byte 0xff in "
                f"position {len(raw)}: invalid start byte$")):
            read_records_csv(path, 0.5)

    def test_bad_byte_after_a_line_longer_than_a_block(self, tmp_path):
        # The bad byte is in the block after the one the long line ends in.
        # That line is a valid row longer than a block: a zero-padded score
        # and a tag, each as long as a field csv takes.
        limit = csv.field_size_limit()
        row = f"0.{'0' * (limit - 3)}5,attack,{'x' * limit}\n"
        assert len(row) > BLOCK_BYTES
        raw = (HEADER + row
               + GOOD_ROW * (BLOCK_BYTES // len(GOOD_ROW))).encode()
        path = tmp_path / "records.csv"
        path.write_bytes(raw + b"0.2,attack,\xe2\x82\n")
        line = raw.count(b"\n") + 1
        with pytest.raises(ValueError, match=(
                f"^line {line}: 'utf-8' codec can't decode bytes in position "
                f"{len(raw) + 11}-{len(raw) + 12}: invalid continuation byte$")):
            read_records_csv(path, 0.5)

    @pytest.mark.parametrize("carried", range(len(metrics._PAD) + 9))
    def test_row_carried_under_the_pad(self, tmp_path, monkeypatch, carried):
        # The first block ends `carried` bytes into a row, so those bytes lie
        # where the pad is written after the cut until the next block takes
        # them in. The first read takes as many bytes as a byte order mark,
        # so the first block ends at byte BLOCK_BYTES + 3 of the file.
        monkeypatch.setattr(metrics, "BLOCK_BYTES", 512)
        tag = "s" * (metrics.TAIL_BYTES - len("attack,") - 1)
        row = f"0.{'3' * SCORE_DIGITS},attack,{tag}\n"
        assert len(row) > carried
        fill = len(codecs.BOM_UTF8) + 512 - carried - len(HEADER)
        rows = fill // len(GOOD_ROW) - 1
        last = fill - rows * len(GOOD_ROW) - len("0.5,attack,\n")
        head = HEADER + GOOD_ROW * rows + f"0.5,attack,{'y' * last}\n"
        assert len(head) == len(codecs.BOM_UTF8) + 512 - carried
        path = tmp_path / "records.csv"
        path.write_text(head + row + GOOD_ROW * 50 + "0.75,attack,x\n")
        counts = read_both(path, 1 / 3)
        assert dict(counts.groups)[tag] == (1, 1)
        path.write_text(head + row + GOOD_ROW * 50 + "nope,attack,x\n")
        assert read_both(path, 1 / 3) == (f"line {head.count(chr(10)) + 52}: "
                                          "bad score 'nope'")

    @pytest.mark.parametrize("pad", range(4))
    def test_line_past_the_cap_fails_as_if_read_whole(self, tmp_path, pad):
        # Four-byte characters, shifted so that the cap falls on every byte
        # of one: the cut never splits a character into a bad byte.
        path = tmp_path / "records.csv"
        tag = "x" * pad + "\U0001f600" * (3 * csv.field_size_limit() + 9)
        message = (f"^line 3: field larger than field limit "
                   f"\\({csv.field_size_limit()}\\)$")
        path.write_text(HEADER + GOOD_ROW + f"0.2,attack,{tag}\n" + GOOD_ROW)
        assert path.stat().st_size > 12 * csv.field_size_limit()
        with pytest.raises(ValueError, match=message):
            read_records_csv(path, 0.5)
        path.write_text(HEADER + GOOD_ROW + '0.2,attack,"'
                        + '""' * (csv.field_size_limit() * 7) + '"\n')
        with pytest.raises(ValueError, match=message):
            read_records_csv(path, 0.5)

    def test_line_past_the_cap_is_held_only_to_the_cap(self, tmp_path):
        # 20 million empty fields would take 160 MB of pointers; the first
        # cap bytes' fields take 8 bytes each.
        cap = 3 * (4 * csv.field_size_limit() + 3) + 4
        path = tmp_path / "records.csv"
        path.write_text(HEADER + GOOD_ROW + "," * 20_000_000 + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^line 3: expected 3 "
                               r"fields, got (\d+)$") as exc_info:
                read_records_csv(path, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(str(exc_info.value).split()[-1]) <= cap
        assert peak < 4 * cap, peak

    @pytest.mark.parametrize("unit", ['"a,""b",', 'x"y,'])
    def test_long_line_fields_are_counted_as_csv_splits_them(self, tmp_path,
                                                             unit):
        # Quoted fields hide their delimiters and doubled quotes, a quote
        # inside an unquoted field is text; the count is csv's own for the
        # held start of the line, and no field of it is built.
        cap = 3 * (4 * csv.field_size_limit() + 3) + 4
        units = (cap - 1) // len(unit)
        want = len(next(csv.reader([unit * units], strict=True)))
        path = tmp_path / "records.csv"
        path.write_text(HEADER + GOOD_ROW + unit * (2 * units) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^line 3: expected 3 "
                               f"fields, got {want}$"):
                read_records_csv(path, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * cap, peak

    def test_line_past_the_cap_never_reads_as_a_row(self, tmp_path,
                                                      monkeypatch):
        # With the cap below csv's own limit the cut line splits into three
        # fields, yet the line is still an error.
        monkeypatch.setattr(csv, "field_size_limit", lambda: 4)
        path = tmp_path / "records.csv"
        path.write_text(HEADER + f"0.5,attack,{'x' * 3 * BLOCK_BYTES}\n"
                        + GOOD_ROW)
        with pytest.raises(ValueError, match="^line 2: a line longer than "
                           "61 bytes is not a record$"):
            read_records_csv(path, 0.5)

    def test_memory_is_one_block_however_long_the_file(self, tmp_path):
        # About 14 blocks of records peak within 1.5x of about two blocks'
        # peak: the reader holds one block at a time.
        rows = "0.25,attack,print\n0.75,living,\n0.5,attack,\n"
        peaks = []
        for blocks in (2, 14):
            path = tmp_path / f"{blocks}.csv"
            repeats = blocks * BLOCK_BYTES // len(rows)
            path.write_text(HEADER + rows * repeats)
            tracemalloc.start()
            try:
                counts = read_records_csv(path, 0.5)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(counts) == 3 * repeats
        assert peaks[1] <= 1.5 * peaks[0], peaks


# -- which path reads a file -----------------------------------------------

ROWS = "0.25,attack,print\n0.75,living,\n0.5,attack,\n" * 3000    # ~2 blocks


class ReachedCsv(Exception):
    """Raised by a stand-in for csv.reader."""


class TestReadPath:
    @pytest.mark.parametrize("text, plain", [
        (HEADER + ROWS, True),
        ((HEADER + ROWS).replace("\n", "\r\n"), True),
        (HEADER + "\n" + ROWS.replace("living,\n", "living,\n\r\n\n"), True),
        ("\ufeff" + HEADER + ROWS, True),
        (HEADER, True),
        (HEADER + '0.2,attack,"print"\n' + ROWS, False),
        (HEADER + ROWS + "0.2,attack,x\r\r\n", False),
    ], ids=["LF", "CRLF", "blank lines", "BOM", "header only", "quoted tag",
            "CR CR LF"])
    def test_only_quoting_reaches_csv(self, tmp_path, monkeypatch, text,
                                      plain):
        # numpy reads every file with no quoted field, NUL or lone carriage
        # return, and csv is never called for it. "CR CR LF" is a CRLF file
        # written again in text mode: csv takes its first CR as a break.
        path = tmp_path / "records.csv"
        path.write_text(text.removeprefix("\ufeff"), newline="")
        want = read_both(path)    # the reference reads a BOM as text
        path.write_text(text, newline="")

        def reader(*args, **kwargs):
            raise ReachedCsv

        monkeypatch.setattr(metrics.csv, "reader", reader)
        if plain:
            assert read_outcome(read_records_csv, path, 0.5) == want
        else:
            with pytest.raises(ReachedCsv):
                read_records_csv(path, 0.5)


# -- the tail table and the score words of plain blocks --------------------

class TestTailTable:
    @pytest.mark.parametrize("tags", [metrics.TABLE_TAILS,
                                      metrics.TABLE_TAILS + 1, None],
                             ids=["as many as it holds", "one more",
                                  "all distinct"])
    def test_many_distinct_tags_match_the_reference(self, tmp_path,
                                                    monkeypatch, tags):
        # About three blocks of rows whose tags cycle through `tags` tags,
        # or all differ. The table holds the first block's tags when they
        # fit and never more than TABLE_TAILS; past that each block groups
        # its own rows.
        held, hold = [], metrics._TailTable._hold

        def spy(table, *args):
            hold(table, *args)
            held.append(len(table.tallies) - 1)    # less the sentinel

        monkeypatch.setattr(metrics._TailTable, "_hold", spy)
        rows = 3 * BLOCK_BYTES // 20
        path = tmp_path / "records.csv"
        path.write_text(HEADER + "".join(
            f"0.{i % 1000:03d},attack,t{i % (tags or rows)}\n"
            for i in range(rows)))
        counts = read_both(path)
        assert len(counts.groups) == (tags or rows)
        assert max(held) == (tags if tags == metrics.TABLE_TAILS else 0)

    def test_short_tail_read_as_wide_as_the_widest(self, tmp_path):
        # The last row of the block is read TAIL_BYTES wide, past its end.
        path = tmp_path / "records.csv"
        tag = "x" * (metrics.TAIL_BYTES - len("attack,"))
        path.write_text(HEADER + f"0.5,attack,{tag}\n0.5,living,\n")
        assert len(read_both(path)) == 2

    def test_grouping_does_not_rest_on_the_digest(self, tmp_path,
                                                  monkeypatch):
        # Every tail digests to 0. The first block's one tail is held. The
        # blocks of its 16-byte prefix match its first two words, and the
        # tails of its length in later blocks collide with it and with each
        # other; all are counted apart, and a bad label of that length is
        # still found on its line.
        monkeypatch.setattr(metrics, "_DIGEST", np.zeros_like(metrics._DIGEST))
        held, prefix = "0.25,attack,aaaaaaaaaa\n", "0.25,attack,aaaaaaaaa\n"
        later = ("0.5,attack,bbbbbbbbbb\n0.125,attack,cccccccccc\n"
                 "0.75,attack,aaaaaaaaaa\n")
        head = (HEADER + held * (2 * BLOCK_BYTES // len(held))
                + prefix * (2 * BLOCK_BYTES // len(prefix))
                + later * (BLOCK_BYTES // len(later)))
        path = tmp_path / "records.csv"
        path.write_text(head)
        counts = read_both(path)
        assert [name for name, _ in counts.groups] == [
            "aaaaaaaaa", "aaaaaaaaaa", "bbbbbbbbbb", "cccccccccc"]
        path.write_text(head + "0.5,attacK,aaaaaaaaaa\n" + later)
        assert read_both(path) == (f"line {head.count(chr(10)) + 1}: label "
                                   "must be 'living' or 'attack', got 'attacK'")


SCORE_WORD_EDGES = [7, 8, 9, 15, 16, 17, 23, 24, 25]    # decimals


class TestScoreWords:
    @pytest.mark.parametrize("threshold", [0.5, 0.1, 2 / 3, 1.0])
    @pytest.mark.parametrize("digits", SCORE_WORD_EDGES)
    def test_scores_that_tie_on_the_first_word(self, tmp_path, threshold,
                                               digits):
        # Scores around the truncated midpoint below threshold share its
        # first decimals, up to 8 of them, so they tie with the cuts' first
        # words and are ranked as text, or by float past SCORE_DIGITS.
        path = tmp_path / "records.csv"
        path.write_text(HEADER + "".join(
            f"{midpoint_below(threshold, width, step)},attack,\n"
            for width in (digits, 8) for step in (-1, 0, 1)))
        assert len(read_both(path, threshold)) == 6

    @pytest.mark.parametrize("digits", SCORE_WORD_EDGES)
    def test_a_non_digit_at_each_decimal_is_a_bad_score(self, tmp_path,
                                                        digits):
        # The bytes on each side of the digits, at every decimal of each of
        # a score's words, and an exponent, which float may read.
        path = tmp_path / "records.csv"
        score = midpoint_below(0.5, digits)
        for at in range(2, len(score)):
            for char in "/:e":
                bad = score[:at] + char + score[at + 1:]
                path.write_text(HEADER + GOOD_ROW + f"{bad},living,\n")
                got = read_both(path)
                if char != "e":
                    assert got == f"line 3: bad score {bad!r}"
