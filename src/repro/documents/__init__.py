"""Document model, loaders, and text splitters.

These are from-scratch equivalents of the LangChain components the paper
uses to build its RAG databases: ``DirectoryLoader``,
``UnstructuredMarkdownLoader`` and ``RecursiveCharacterTextSplitter``.
"""

from repro.documents.document import Document
from repro.documents.loaders import (
    DirectoryLoader,
    JsonLinesLoader,
    MarkdownLoader,
    TextLoader,
)
from repro.documents.splitters import (
    MarkdownHeaderTextSplitter,
    RecursiveCharacterTextSplitter,
    TextSplitter,
)

__all__ = [
    "Document",
    "DirectoryLoader",
    "JsonLinesLoader",
    "MarkdownLoader",
    "TextLoader",
    "MarkdownHeaderTextSplitter",
    "RecursiveCharacterTextSplitter",
    "TextSplitter",
]
