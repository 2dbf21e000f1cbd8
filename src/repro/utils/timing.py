"""Wall-clock timing helpers used to reproduce the paper's Table II.

The paper reports per-stage Min/Max/Avg running times for the RAG
process and the LLM response separately.  :class:`StageTimer` collects
named stage durations across many pipeline invocations and produces the
same Min/Max/Avg summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class TimingStats:
    """Min/Max/Avg summary over a series of durations (seconds)."""

    count: int
    minimum: float
    maximum: float
    average: float
    total: float

    @classmethod
    def from_samples(cls, samples: list[float]) -> "TimingStats":
        if not samples:
            raise ValueError("cannot summarize an empty sample list")
        total = sum(samples)
        return cls(
            count=len(samples),
            minimum=min(samples),
            maximum=max(samples),
            average=total / len(samples),
            total=total,
        )

    def as_row(self, ndigits: int = 2) -> tuple[float, float, float]:
        """(Min, Max, Avg) rounded — the layout of the paper's Table II."""
        return (
            round(self.minimum, ndigits),
            round(self.maximum, ndigits),
            round(self.average, ndigits),
        )


@dataclass
class StageTimer:
    """Accumulates named stage durations across pipeline runs."""

    samples: dict[str, list[float]] = field(default_factory=dict)

    def record(self, stage: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative duration for stage {stage!r}: {seconds}")
        self.samples.setdefault(stage, []).append(seconds)

    def stats(self, stage: str) -> TimingStats:
        try:
            return TimingStats.from_samples(self.samples[stage])
        except KeyError:
            raise KeyError(f"no samples recorded for stage {stage!r}") from None

