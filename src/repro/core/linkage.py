"""Alternative embedding-document linkage (Sec. 7.2, "Contiguity
Requirements").

The default REIS layout stores the document region contiguously and links
embeddings to documents by *logical slot* (DADR = slot index resolved
through the region's coarse arithmetic).  The paper discusses an
alternative that drops the contiguity requirement for the document
region: each embedding's OOB record carries the **physical address** of
its chunk, so chunks can live anywhere in storage.

The price is maintenance complexity: whenever a chunk is remapped (GC,
refresh, host updates), every embedding that points at it must have its
OOB record rewritten -- and OOB bits cannot be rewritten in place on
NAND, so the *embedding page* itself must be relocated.
:class:`PhysicalLinkageDirectory` implements the bookkeeping and makes
that cost measurable, which is exactly the trade-off the paper raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.nand.geometry import FlashGeometry, PhysicalPageAddress


@dataclass(frozen=True)
class PhysicalLink:
    """One embedding-to-chunk link at physical granularity."""

    embedding_slot: int
    chunk_address: PhysicalPageAddress
    chunk_subpage: int  # which 4KB sub-page of the target page

    def encode_bytes(self, geometry: FlashGeometry) -> int:
        """OOB bytes this link occupies: a linear PPA + subpage index."""
        return 5  # 4B linear page address + 1B subpage index


@dataclass
class RelinkResult:
    """Cost of updating links after chunks moved."""

    links_updated: int = 0
    embedding_pages_rewritten: int = 0


class PhysicalLinkageDirectory:
    """Tracks physical links and the embedding pages that carry them.

    The directory is the controller-side inverse map (chunk page ->
    embedding slots pointing at it) that the alternative design needs to
    find stale links after a remap.  It lives in controller DRAM, which
    is itself a cost the default slot-based design avoids.
    """

    def __init__(self, geometry: FlashGeometry, embeddings_per_page: int) -> None:
        if embeddings_per_page <= 0:
            raise ValueError("embeddings_per_page must be positive")
        self.geometry = geometry
        self.embeddings_per_page = embeddings_per_page
        self._links: Dict[int, PhysicalLink] = {}
        self._reverse: Dict[int, List[int]] = {}

    def __len__(self) -> int:
        return len(self._links)

    # ------------------------------------------------------------ building

    def add_link(self, slot: int, chunk_address: PhysicalPageAddress, subpage: int = 0) -> None:
        if slot in self._links:
            raise ValueError(f"slot {slot} already linked")
        if not 0 <= subpage < self.geometry.subpages_per_page:
            raise ValueError("subpage outside the page")
        chunk_address.validate(self.geometry)
        link = PhysicalLink(slot, chunk_address, subpage)
        self._links[slot] = link
        key = chunk_address.to_linear(self.geometry)
        self._reverse.setdefault(key, []).append(slot)

    def chunk_of(self, slot: int) -> Tuple[PhysicalPageAddress, int]:
        link = self._links[slot]
        return link.chunk_address, link.chunk_subpage

    def slots_pointing_at(self, chunk_address: PhysicalPageAddress) -> List[int]:
        return sorted(self._reverse.get(chunk_address.to_linear(self.geometry), []))

    # --------------------------------------------------------- maintenance

    def relink(
        self, old_address: PhysicalPageAddress, new_address: PhysicalPageAddress
    ) -> RelinkResult:
        """Update every link after a chunk page moved.

        Returns the update cost: besides the DRAM bookkeeping, every
        *distinct embedding page* carrying a stale link must be rewritten
        (OOB areas are not independently reprogrammable).  This is the
        complexity the paper cites for rejecting the physical-linkage
        design as the default.
        """
        old_key = old_address.to_linear(self.geometry)
        slots = self._reverse.pop(old_key, [])
        result = RelinkResult()
        touched_pages = set()
        for slot in slots:
            link = self._links[slot]
            self._links[slot] = PhysicalLink(slot, new_address, link.chunk_subpage)
            result.links_updated += 1
            touched_pages.add(slot // self.embeddings_per_page)
        if slots:
            new_key = new_address.to_linear(self.geometry)
            self._reverse.setdefault(new_key, []).extend(slots)
        result.embedding_pages_rewritten = len(touched_pages)
        return result

    # ----------------------------------------------------------- footprint

    @property
    def dram_bytes(self) -> int:
        """Controller-DRAM cost of the reverse map (8B per link entry)."""
        return sum(8 * len(slots) for slots in self._reverse.values())

    def update_amplification(self, chunks_per_page: int) -> float:
        """Expected embedding-page rewrites per relocated *document page*.

        With ``chunks_per_page`` chunks per document page and links
        scattered across embedding pages, relocating one document page
        forces up to ``chunks_per_page`` embedding-page rewrites -- the
        write amplification the slot-based default avoids entirely.
        """
        if chunks_per_page <= 0:
            raise ValueError("chunks_per_page must be positive")
        return float(min(chunks_per_page, self.embeddings_per_page))
