"""The paper's Table I scoring rubric."""

from __future__ import annotations

from enum import IntEnum


class Score(IntEnum):
    """Rubric for LLM responses (higher is better) — paper Table I."""

    NONSENSICAL = 0
    INCORRECT = 1
    MINOR_INACCURACIES = 2
    CORRECT = 3
    IDEAL = 4


RUBRIC: dict[Score, str] = {
    Score.NONSENSICAL: "Nonsensical answer",
    Score.INCORRECT: "Incorrect or inaccurate statements (hallucinations) in the answer",
    Score.MINOR_INACCURACIES: "Correct material with only minor inaccuracies",
    Score.CORRECT: "Answer is clear and correct",
    Score.IDEAL: "Ideal answer, close to what an expert would respond",
}
