"""Mechanical blind grading against the Table I rubric.

The grader sees only the question and the answer text — not the pipeline
that produced it (that is the "blind" in blind review).  It resolves the
answer against the fact registry:

* key/extra fact coverage (signature detection),
* registered falsehoods asserted by the answer,
* generic fabrications: a PETSc-style identifier that exists neither in
  the corpus nor in the registry, asserted to exist ("``X`` is a ..."),
* grounded refusals ("there is no PETSc function named ...").

and maps the findings onto the rubric exactly as Section V-A describes
(e.g. the all-fabrication KSPBurb answer scores 0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.corpus.facts import FactRegistry
from repro.errors import EvaluationError
from repro.evaluation.benchmark import BenchmarkQuestion
from repro.evaluation.rubric import Score
from repro.utils.textproc import code_tokens, is_petsc_api_identifier

_REFUSAL_RE = re.compile(
    r"no PETSc (?:function|object|option|routine)(?: or \w+)? named|does not exist",
    re.IGNORECASE,
)


@dataclass
class GradedAnswer:
    """The grader's verdict plus its evidence trail."""

    qid: str
    score: Score
    key_found: tuple[str, ...] = ()
    key_missing: tuple[str, ...] = ()
    extra_found: tuple[str, ...] = ()
    extra_missing: tuple[str, ...] = ()
    falsehoods: tuple[str, ...] = ()
    fabrications: tuple[str, ...] = ()
    refusal: bool = False
    justification: str = ""


@dataclass
class BlindGrader:
    """Scores answers on the 0–4 rubric using the fact registry."""

    registry: FactRegistry
    known_identifiers: frozenset[str] = field(default_factory=frozenset)

    # ------------------------------------------------------------- detection
    def _fabricated_identifiers(self, answer: str) -> list[str]:
        """Unknown identifiers the answer asserts to exist."""
        out: list[str] = []
        for ident in dict.fromkeys(code_tokens(answer)):
            if not is_petsc_api_identifier(ident):
                continue
            if ident in self.known_identifiers:
                continue
            if any(ident in f.topics for f in self.registry.facts.values()):
                continue
            if re.search(rf"{re.escape(ident)}\s+is\s+(?:an?|the)\b", answer):
                out.append(ident)
        return out

    # ------------------------------------------------------------- grading
    def grade(self, question: BenchmarkQuestion, answer: str) -> GradedAnswer:
        if not isinstance(answer, str):
            raise EvaluationError(f"answer for {question.qid} must be a string")
        asserted, wrong = self.registry.detect(answer)
        facts_found = {f.fact_id for f in asserted}
        falsehoods = tuple(sorted(f.false_id for f in wrong))
        registered_fabrications = tuple(
            fid for fid in falsehoods if self.registry.falsehood(fid).fabrication
        )
        generic_fabrications = tuple(self._fabricated_identifiers(answer))
        fabrications = tuple(dict.fromkeys(registered_fabrications + generic_fabrications))
        refusal = _REFUSAL_RE.search(answer) is not None

        if question.kind == "nonexistent":
            return self._grade_nonexistent(question, fabrications, falsehoods, refusal)

        key_found = tuple(f for f in question.key_facts if f in facts_found)
        key_missing = tuple(f for f in question.key_facts if f not in facts_found)
        extra_found = tuple(f for f in question.extra_facts if f in facts_found)
        extra_missing = tuple(f for f in question.extra_facts if f not in facts_found)
        key_cov = len(key_found) / len(question.key_facts)

        if fabrications and key_cov == 0.0:
            score, why = Score.NONSENSICAL, (
                f"fabricated {', '.join(fabrications)} with no correct key content"
            )
        elif falsehoods or fabrications:
            bad = ", ".join(dict.fromkeys(falsehoods + fabrications))
            score, why = Score.INCORRECT, f"contains incorrect statements: {bad}"
        elif key_cov == 1.0 and not extra_missing:
            score, why = Score.IDEAL, "all key and expert-level facts present, nothing wrong"
        elif key_cov == 1.0:
            score, why = Score.CORRECT, (
                f"all key facts present; missing expert detail: {', '.join(extra_missing)}"
            )
        elif key_cov >= 0.5:
            score, why = Score.MINOR_INACCURACIES, (
                f"partially correct; missing key facts: {', '.join(key_missing)}"
            )
        elif key_found or (facts_found and refusal):
            score, why = Score.MINOR_INACCURACIES, "some correct material but incomplete"
        else:
            score, why = Score.INCORRECT, "does not address the question's key facts"

        return GradedAnswer(
            qid=question.qid,
            score=score,
            key_found=key_found,
            key_missing=key_missing,
            extra_found=extra_found,
            extra_missing=extra_missing,
            falsehoods=falsehoods,
            fabrications=fabrications,
            refusal=refusal,
            justification=why,
        )

    def _grade_nonexistent(
        self,
        question: BenchmarkQuestion,
        fabrications: tuple[str, ...],
        falsehoods: tuple[str, ...],
        refusal: bool,
    ) -> GradedAnswer:
        if fabrications:
            score, why = Score.NONSENSICAL, (
                f"hallucinated a description of a fictitious API: {', '.join(fabrications)}"
            )
        elif refusal and not falsehoods:
            score, why = Score.IDEAL, "correctly identified the API as nonexistent"
        elif refusal:
            score, why = Score.MINOR_INACCURACIES, "refused but added inaccurate statements"
        else:
            score, why = Score.INCORRECT, "neither refused nor fabricated cleanly"
        return GradedAnswer(
            qid=question.qid,
            score=score,
            falsehoods=falsehoods,
            fabrications=fabrications,
            refusal=refusal,
            justification=why,
        )
