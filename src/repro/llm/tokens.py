"""Approximate token counting (BPE-free, deterministic).

A calibration of roughly 0.75 tokens per word plus punctuation/code
symbols matches hosted tokenizers within ~15% on technical English,
which is plenty for context-window accounting and latency simulation.

Long identifiers split into several BPE tokens: a run of ``L`` ASCII
letters and digits counts ``max(1, (L + 4) // 5)``, one token per five
characters, rounded up.  The pattern takes such a run five characters at
a time — ``ceil(L / 5)`` matches — so the count is simply the number of
matches and no piece is measured in Python.

A text's count is the sum of its lines' counts, exactly: ``"\\n"`` is
whitespace, neither alternative of the pattern can match it, so every
match lies inside one line.  A prompt is mostly corpus lines and fact
statements this process has counted before, so a line's count is kept
in one bounded memo.  It is a pure function of the line: no ingest,
registry or engine can make an entry stale, and nothing clears it.
"""

from __future__ import annotations

import re
from functools import lru_cache

_TOKEN_RE = re.compile(r"[A-Za-z0-9]{1,5}|[^\sA-Za-z0-9]")

#: Distinct lines whose counts the process keeps (least recently counted
#: dropped first); several times the corpus, which is ~900 lines.
_LINE_MEMO_SIZE = 4096

#: The longest line the memo keeps, about twice the corpus's longest
#: (487 characters).  A longer one — a pasted log, a minified blob — is
#: counted and not kept, so the memo's keys stay under
#: ``_LINE_MEMO_SIZE * _LINE_MEMO_MAX_CHARS`` characters.
_LINE_MEMO_MAX_CHARS = 1024


def _scan_line(line: str) -> int:
    return len(_TOKEN_RE.findall(line))


_count_short_line = lru_cache(maxsize=_LINE_MEMO_SIZE)(_scan_line)


def _count_line(line: str) -> int:
    if len(line) > _LINE_MEMO_MAX_CHARS:
        return _scan_line(line)
    return _count_short_line(line)


def count_tokens(text: str) -> int:
    """Approximate LLM token count of ``text``."""
    return sum(map(_count_line, text.split("\n")))
