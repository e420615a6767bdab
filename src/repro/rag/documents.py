"""Document chunks and chunking.

RAG databases pair each embedding with a document chunk.  REIS assigns each
chunk a 4KB sub-page or a 16KB page depending on the chunking granularity
(Sec. 4.1.1).  Chunks here are synthetic but deterministic, so retrieval
results can be checked end-to-end (query -> embedding -> document text).
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, List, NamedTuple, Sequence

import numpy as np


class _ChunkFields(NamedTuple):
    chunk_id: int
    text: str
    source: str = ""


class DocumentChunk(_ChunkFields):
    """One retrievable unit of text: an immutable, hashable record whose
    ``repr`` and equality are its fields'."""

    __slots__ = ()

    @classmethod
    def decoded(cls, chunk_ids: Sequence[int], texts: Sequence[str]) -> List["DocumentChunk"]:
        """Chunks of ``(chunk_ids[i], texts[i])`` with no source, built by
        ``tuple.__new__`` from C: no Python call per chunk."""
        return list(map(tuple.__new__, repeat(cls), zip(chunk_ids, texts, repeat(""))))

    def encode_bytes(self, target_size: int | None = None) -> np.ndarray:
        """UTF-8 bytes, optionally padded/truncated to ``target_size``."""
        raw = np.frombuffer(self.text.encode("utf-8"), dtype=np.uint8)
        if target_size is None:
            return raw.copy()
        out = np.zeros(target_size, dtype=np.uint8)
        n = min(raw.size, target_size)
        out[:n] = raw[:n]
        return out

    @staticmethod
    def decode_bytes(data: np.ndarray) -> str:
        """Inverse of :meth:`encode_bytes` (strips zero padding)."""
        raw = bytes(data.tobytes()).rstrip(b"\x00")
        return raw.decode("utf-8", errors="replace")

    @staticmethod
    def decode_rows(rows: np.ndarray) -> List[str]:
        """:meth:`decode_bytes` of every row of a ``(n, slot_bytes)`` uint8
        matrix, in one pass: the rows viewed as fixed-width byte strings
        (numpy drops a bytes element's trailing NULs, which is exactly the
        padding strip) and decoded by ``bytes.decode`` mapped from C."""
        rows = np.ascontiguousarray(rows)
        packed = rows.view(f"S{rows.shape[1]}").ravel().tolist()
        return list(map(bytes.decode, packed, repeat("utf-8"), repeat("replace")))


def chunk_text(text: str, chunk_chars: int, overlap_chars: int = 0) -> List[str]:
    """Split ``text`` into fixed-size chunks with optional overlap."""
    if chunk_chars <= 0:
        raise ValueError("chunk_chars must be positive")
    if not 0 <= overlap_chars < chunk_chars:
        raise ValueError("overlap must be in [0, chunk_chars)")
    step = chunk_chars - overlap_chars
    chunks = []
    for start in range(0, max(len(text), 1), step):
        piece = text[start : start + chunk_chars]
        if piece:
            chunks.append(piece)
        if start + chunk_chars >= len(text):
            break
    return chunks


def synthetic_chunk(chunk_id: int, topic: int, dataset: str) -> DocumentChunk:
    """Deterministic synthetic chunk: identifiable by id and topic."""
    text = (
        f"[{dataset}#{chunk_id}] This passage belongs to topic {topic}. "
        f"It summarizes fact {chunk_id % 97} about subject {topic}, including "
        f"supporting details {chunk_id % 13} and {chunk_id % 7} referenced by "
        f"queries on this topic."
    )
    return DocumentChunk(chunk_id=chunk_id, text=text, source=dataset)


class Corpus:
    """A collection of chunks addressable by chunk id."""

    def __init__(self, chunks: Sequence[DocumentChunk]) -> None:
        self._chunks = list(chunks)
        ids = [c.chunk_id for c in self._chunks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate chunk ids in corpus")
        self._by_id = {c.chunk_id: c for c in self._chunks}

    def __len__(self) -> int:
        return len(self._chunks)

    def __iter__(self) -> Iterator[DocumentChunk]:
        return iter(self._chunks)

    def __getitem__(self, chunk_id: int) -> DocumentChunk:
        return self._by_id[chunk_id]

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._by_id

    def add(self, chunk: DocumentChunk) -> None:
        """Register a streamed-in chunk (ids must stay unique)."""
        if chunk.chunk_id in self._by_id:
            raise ValueError(f"duplicate chunk id {chunk.chunk_id}")
        self._chunks.append(chunk)
        self._by_id[chunk.chunk_id] = chunk

    def max_chunk_bytes(self) -> int:
        """Size of the largest UTF-8 encoded chunk (0 for an empty corpus).

        The layout engine packs document slots to the smallest power of two
        that holds this.
        """
        return max(
            (len(chunk.text.encode("utf-8")) for chunk in self._chunks),
            default=0,
        )

    @classmethod
    def synthetic(cls, n_chunks: int, topics: Sequence[int], dataset: str) -> "Corpus":
        """Build ``n_chunks`` synthetic chunks with the given topic labels."""
        if len(topics) != n_chunks:
            raise ValueError("need one topic per chunk")
        return cls(
            [synthetic_chunk(i, int(topics[i]), dataset) for i in range(n_chunks)]
        )
