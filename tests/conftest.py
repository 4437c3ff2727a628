import time

import numpy as np

from depthpad.metrics import RecordColumns, check_record

FULL_SUITE_BUDGET_S = 60.0


def pytest_sessionstart(session):
    session.config._suite_t0 = time.perf_counter()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    elapsed = time.perf_counter() - config._suite_t0
    verdict = "PASS" if elapsed < FULL_SUITE_BUDGET_S else "FAIL"
    terminalreporter.write_line(
        f"ACCEPTANCE {verdict}: full suite wall clock {elapsed:.1f}s "
        f"(budget {FULL_SUITE_BUDGET_S:.0f}s)")


def record_columns(records) -> RecordColumns:
    """Columns of (score, label, attack_kind) tuples, each checked by
    check_record as the records reader checks a row."""
    book, keys = {}, []
    for score, label, kind in records:
        check_record(score, label)
        keys.append(book.setdefault((label, kind), len(book)))
    return RecordColumns.from_codes(
        np.array([score for score, _, _ in records], dtype=np.float64),
        np.array(keys, dtype=np.intp), list(book))
