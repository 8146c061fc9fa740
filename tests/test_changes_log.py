"""CHANGES.md stays legible: from entry ``FIRST_CHECKED`` on, an entry
is at most 15 lines of at most 100 characters (ROADMAP item 7).  Reads
the file, writes nothing."""

import os
import re

CHANGES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "CHANGES.md")
FIRST_CHECKED = 1
MAX_LINES, MAX_WIDTH = 15, 100


def entries(text: str) -> dict:
    """PR number -> the lines of its entry: from the line that opens with
    ``PR <n>:`` up to the next such line, trailing blank lines dropped."""
    found: dict = {}
    for line in text.splitlines():
        head = re.match(r"PR (\d+):", line)
        if head:
            body = found.setdefault(int(head.group(1)), [])
        if found:
            body.append(line)
    for body in found.values():
        while body and not body[-1].strip():
            body.pop()
    return found


def test_checked_entries_are_short():
    with open(CHANGES, encoding="utf-8") as fh:
        checked = {n: body for n, body in entries(fh.read()).items()
                   if n >= FIRST_CHECKED}
    assert checked, f"no entry numbered {FIRST_CHECKED} or later"
    for n, body in sorted(checked.items()):
        assert len(body) <= MAX_LINES, f"PR {n}: {len(body)} lines"
        wide = [line for line in body if len(line) > MAX_WIDTH]
        assert not wide, f"PR {n}: {len(wide)} lines over {MAX_WIDTH}"


def test_an_entry_runs_to_the_next_one():
    text = "PR 7: a\nmore\n\nPR 26: b\n  c\n\n\nPR 27: d"
    assert entries(text) == {7: ["PR 7: a", "more"],
                             26: ["PR 26: b", "  c"], 27: ["PR 27: d"]}
