"""The request-lifecycle service layer (DESIGN.md §12).

One front door, :class:`ReproService`, whose two entry points are the
scheduler: ``answer_many`` (open → classify → execute → commit/close)
and ``answer``, the same steps for one synchronous request.
"""

from repro.service.lifecycle import AnswerResponse, BatchResult
from repro.service.service import ReproService

__all__ = ["AnswerResponse", "BatchResult", "ReproService"]
