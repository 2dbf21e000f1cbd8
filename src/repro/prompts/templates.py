"""Minimal prompt templating (LangChain-PromptTemplate-shaped)."""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import PromptError

_VAR_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z0-9_]*)\}")


@dataclass(frozen=True)
class PromptTemplate:
    """A text template with ``{variable}`` placeholders.

    Variables are discovered from the template; rendering with missing or
    unexpected variables raises :class:`PromptError` rather than silently
    producing a malformed prompt.
    """

    template: str

    @property
    def input_variables(self) -> frozenset[str]:
        return frozenset(_VAR_RE.findall(self.template))

    def format(self, **kwargs: str) -> str:
        required = self.input_variables
        given = set(kwargs)
        if required - given:
            raise PromptError(f"missing prompt variables: {sorted(required - given)}")
        if given - required:
            raise PromptError(f"unexpected prompt variables: {sorted(given - required)}")

        def _sub(m: re.Match[str]) -> str:
            return str(kwargs[m.group(1)])

        return _VAR_RE.sub(_sub, self.template)
