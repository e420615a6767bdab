"""REIS vector-database layout and deployment (Sec. 4.1 / 4.2.1).

The layout splits a database into four physically contiguous regions, each
striped across all planes in parallelism-first order:

1. **centroid region** (ESP-SLC): binary centroid codes; each centroid's
   8-bit cluster tag lives in the page's OOB area.
2. **embedding region** (ESP-SLC): binary embedding codes, cluster by
   cluster so IVF fine search streams contiguous pages; each embedding's
   OOB entry links it to its document chunk (DADR) and its INT8 twin (RADR).
3. **INT8 region** (TLC): INT8 embeddings for reranking.
4. **document region** (TLC): one chunk per 4KB sub-page.

Regions are block-aligned (a block has a single cell mode) and registered
in the R-DB with coarse-grained access, so queries never touch the
page-level FTL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.ann.distances import hamming_packed
from repro.ann.ivf import IvfModel
from repro.ann.quantization import BinaryQuantizer, Int8Quantizer
from repro.core.config import EngineParams
from repro.core.plan import validate_metadata_tags
from repro.core.registry import RDb, RDbEntry, RIvf
from repro.nand.cell import CellMode
from repro.nand.geometry import FlashGeometry
from repro.rag.documents import Corpus
from repro.sim.rng import make_rng
from repro.ssd.coarse import CoarseRegion
from repro.ssd.device import SimulatedSSD


@dataclass(frozen=True)
class RegionInfo:
    """One deployed region: geometry window + slot packing."""

    name: str
    region: CoarseRegion
    mode: CellMode
    slots_per_page: int
    n_slots: int
    item_bytes: int

    @property
    def n_pages(self) -> int:
        return math.ceil(self.n_slots / self.slots_per_page) if self.n_slots else 0


@dataclass
class DeployedDatabase:
    """Everything the engine needs to serve one deployed database."""

    db_id: int
    name: str
    n_entries: int
    dim: int
    code_bytes: int
    embedding_region: RegionInfo
    int8_region: RegionInfo
    document_region: RegionInfo
    centroid_region: Optional[RegionInfo]
    r_ivf: Optional[RIvf]
    binary_quantizer: BinaryQuantizer
    int8_quantizer: Int8Quantizer
    slot_to_original: np.ndarray  # deployment order -> original id
    original_to_slot: np.ndarray
    filter_threshold: int  # distance-filtering cutoff (bits)
    oob_record_bytes: int = 8  # per-embedding OOB linkage record size
    metadata_tags: Optional[np.ndarray] = field(default=None, repr=False)
    corpus: Optional[Corpus] = field(default=None, repr=False)
    # Streaming-ingest headroom: regions are sized for n_entries +
    # growth_entries slots, with the tail left erased for appends.
    growth_entries: int = 0
    # The live IngestManager's view of cluster membership, installed by
    # core/ingest.py; None for an immutable (deploy-once) database.
    mutable_index: Optional[object] = field(default=None, repr=False)

    @property
    def has_metadata(self) -> bool:
        return self.metadata_tags is not None

    @property
    def regions(self) -> Tuple[RegionInfo, ...]:
        """Every region of the database, in allocation order."""
        regions = (self.embedding_region, self.int8_region, self.document_region)
        if self.centroid_region is None:
            return regions
        return (self.centroid_region,) + regions

    def original_of_dadr(self, dadr):
        """Original (external) id of the entry stored at document slot
        ``dadr`` (one slot or an array of them: a column gather).  At
        deploy time DADR == slot, so the base mapping is the slot table;
        streamed appends may place an entry's document at a different slot
        than its embedding, which the mutable index tracks.
        """
        if self.mutable_index is not None:
            return self.mutable_index.dadr_to_id[dadr]
        return self.slot_to_original[dadr]

    @property
    def is_ivf(self) -> bool:
        return self.r_ivf is not None

    @property
    def n_clusters(self) -> int:
        return len(self.r_ivf) if self.r_ivf is not None else 0


class CapacityError(RuntimeError):
    """The flash array cannot hold the requested database."""


class DatabaseDeployer:
    """Implements ``DB_Deploy`` / ``IVF_Deploy`` (Sec. 4.4.1).

    Deployment reserves contiguous regions (performing the defragmentation
    the paper describes as an amortized upfront cost), converts their blocks
    to the right cell mode, writes the data with OOB links, and registers
    the database in the R-DB (and R-IVF for IVF databases).  Pages are
    written by :func:`program_slots` with :func:`oob_records`, the writer
    and OOB format streamed appends and compaction
    (:class:`~repro.core.ingest.IngestManager`) use too; :meth:`_rollback`
    is the one erase of a region window, for a failed deploy and for a
    dropped database at the top of the heap alike.
    """

    def __init__(self, ssd: SimulatedSSD, params: Optional[EngineParams] = None) -> None:
        self.ssd = ssd
        self.params = params or EngineParams()
        self.r_db = RDb(ssd.dram)
        self._next_page_in_plane = 0

    # ---------------------------------------------------------- allocation

    def _geometry(self) -> FlashGeometry:
        return self.ssd.spec.geometry

    @staticmethod
    def packed_doc_slot_bytes(max_chunk_bytes: int, params: EngineParams) -> int:
        """Smallest power-of-two document slot that holds the largest chunk.

        Bounded below by ``params.doc_pack_floor_bytes`` (streamed appends
        need headroom for chunks a little larger than the deployed corpus's)
        and above by ``params.doc_slot_bytes`` (one chunk per 4KB sub-page,
        the unpacked layout; larger chunks truncate there exactly as
        before).  Power-of-two widths within a power-of-two page mean a
        chunk never straddles an ECC codeword or sub-page boundary.
        """
        slot = max(int(params.doc_pack_floor_bytes), 1)
        cap = int(params.doc_slot_bytes)
        while slot < max_chunk_bytes and slot < cap:
            slot *= 2
        return min(slot, cap)

    def _allocate_region(
        self, name: str, n_slots: int, slots_per_page: int, item_bytes: int, mode: CellMode
    ) -> RegionInfo:
        g = self._geometry()
        pages_total = math.ceil(n_slots / slots_per_page) if n_slots else 0
        pages_per_plane = math.ceil(pages_total / g.total_planes)
        # Block alignment: a block has one cell mode, so regions start and
        # end on block boundaries.
        ppb = g.pages_per_block
        aligned = math.ceil(max(pages_per_plane, 1) / ppb) * ppb
        start = self._next_page_in_plane
        end = start + aligned
        if end > g.pages_per_plane:
            raise CapacityError(
                f"region {name!r} needs {aligned} pages/plane at offset {start}, "
                f"but planes only have {g.pages_per_plane} pages"
            )
        self._next_page_in_plane = end
        self.ssd.hybrid.convert_region(start, end, mode)
        return RegionInfo(
            name=name,
            region=CoarseRegion(start, end),
            mode=mode,
            slots_per_page=slots_per_page,
            n_slots=n_slots,
            item_bytes=item_bytes,
        )

    def _reserve_deployed_space(self) -> None:
        """Keep normal-mode machinery out of the deployed regions.

        The page allocator's per-plane cursors are advanced past the
        deployment high-water mark so host writes land in the remaining
        space, and every deployed block is reserved from garbage
        collection (GC must never relocate coarse-addressed data,
        Sec. 7.2).
        """
        g = self._geometry()
        boundary = self._next_page_in_plane
        allocator = self.ssd.allocator
        allocator._next_page = [
            max(cursor, boundary) for cursor in allocator._next_page
        ]
        self.ssd.reserved[:, : -(-boundary // g.pages_per_block)] = True

    # ---------------------------------------------------------- deployment

    def deploy(
        self,
        db_id: int,
        name: str,
        vectors: np.ndarray,
        corpus: Optional[Corpus] = None,
        ivf_model: Optional[IvfModel] = None,
        metadata_tags: Optional[np.ndarray] = None,
        seed: object = 0,
        codecs: Optional[DeploymentCodecs] = None,
        growth_entries: int = 0,
    ) -> DeployedDatabase:
        """Deploy a database; with ``ivf_model`` this is ``IVF_Deploy``.

        ``growth_entries`` reserves slot headroom for streaming ingest: the
        embedding/INT8/document regions are allocated for
        ``n + growth_entries`` slots, the initial corpus is programmed into
        the head, and the tail pages stay erased so
        :class:`repro.core.ingest.IngestManager` can append cluster-tail
        pages later without re-layout.  Appends start at each region's
        page-aligned tail, so the rest of the last deployed page comes out
        of the headroom.

        ``metadata_tags`` optionally attaches one integer tag per embedding
        for Sec. 7.1 metadata filtering; tags are stored as a third 4-byte
        word in each embedding's OOB record.

        ``codecs`` optionally injects pre-fit quantizers and a pre-calibrated
        distance-filtering threshold.  By default every deployment fits its
        own (:func:`fit_deployment_codecs` on the deployed vectors); a
        multi-device deployment instead fits one codec set on the *full*
        corpus and hands it to every shard, so all shards measure distances
        in the same code space -- the precondition for merging per-shard
        shortlists by distance (:mod:`repro.core.shard`).

        Deployment is transactional: if any region fails to allocate or
        program (e.g. the array is too small), all space reserved by this
        call is erased and released before the error propagates.
        """
        checkpoint = self._next_page_in_plane
        try:
            return self._deploy(
                db_id, name, vectors, corpus, ivf_model, metadata_tags, seed,
                codecs, growth_entries,
            )
        except Exception:
            self._rollback(checkpoint)
            raise

    def _rollback(self, checkpoint: int) -> None:
        """Erase and release everything allocated past ``checkpoint``."""
        g = self._geometry()
        ppb = g.pages_per_block
        first_block = checkpoint // ppb
        last_block = (self._next_page_in_plane - 1) // ppb if self._next_page_in_plane else -1
        used = self.ssd.array.pages.next_page[:, first_block : last_block + 1] > 0
        planes, blocks = used.nonzero()
        self.ssd.array.erase_blocks(planes, blocks + first_block)
        self._next_page_in_plane = checkpoint

    def _deploy(
        self,
        db_id: int,
        name: str,
        vectors: np.ndarray,
        corpus: Optional[Corpus],
        ivf_model: Optional[IvfModel],
        metadata_tags: Optional[np.ndarray],
        seed: object,
        codecs: Optional[DeploymentCodecs] = None,
        growth_entries: int = 0,
    ) -> DeployedDatabase:
        vectors = np.asarray(vectors, dtype=np.float32)
        n, dim = vectors.shape
        if growth_entries < 0:
            raise ValueError("growth_entries must be non-negative")
        if dim % 8 != 0:
            raise ValueError("embedding dimension must be a multiple of 8")
        if corpus is not None and len(corpus) != n:
            raise ValueError("corpus size must match the number of embeddings")
        if metadata_tags is not None:
            metadata_tags = validate_metadata_tags(metadata_tags)
            if metadata_tags.shape != (n,):
                raise ValueError("need exactly one metadata tag per embedding")
        g = self._geometry()
        params = self.params

        if codecs is None:
            codecs = fit_deployment_codecs(vectors, params, seed)
        binary = codecs.binary
        int8 = codecs.int8
        code_bytes = dim // 8

        # IVF-tailored ordering: embeddings of a cluster are contiguous.
        order = deployment_order(n, ivf_model)
        original_to_slot = np.empty(n, dtype=np.int64)
        original_to_slot[order] = np.arange(n, dtype=np.int64)

        codes = binary.encode(vectors)[order]
        codes_i8 = int8.encode(vectors)[order]

        oob_record_bytes = params.oob_link_bytes + (4 if metadata_tags is not None else 0)
        emb_spp = min(g.page_bytes // code_bytes, g.oob_bytes // oob_record_bytes)
        int8_spp = g.page_bytes // dim
        # Packed document region: size the slot to this database's largest
        # chunk (synthetic no-corpus deploys write 32-byte blobs) instead of
        # burning a whole sub-page per chunk.
        max_chunk = corpus.max_chunk_bytes() if corpus is not None else 32
        doc_item_bytes = self.packed_doc_slot_bytes(max_chunk, params)
        doc_spp = g.page_bytes // doc_item_bytes

        centroid_region = None
        r_ivf = None
        if ivf_model is not None:
            centroid_codes = binary.encode(ivf_model.centroids)
            cen_spp = min(g.page_bytes // code_bytes, g.oob_bytes // params.tag_bytes)
            centroid_region = self._allocate_region(
                f"{name}/centroids",
                ivf_model.nlist,
                cen_spp,
                code_bytes,
                CellMode.SLC_ESP,
            )
        # Mutable regions are allocated with ingest headroom; programming the
        # initial corpus leaves it erased for streamed appends.
        n_total = n + growth_entries
        embedding_region = self._allocate_region(
            f"{name}/embeddings", n_total, emb_spp, code_bytes, CellMode.SLC_ESP
        )
        int8_region = self._allocate_region(
            f"{name}/int8", n_total, int8_spp, dim, CellMode.TLC
        )
        document_region = self._allocate_region(
            f"{name}/documents", n_total, doc_spp, doc_item_bytes, CellMode.TLC
        )

        # Embedding pages: payload = binary code; OOB = DADR + RADR per slot
        # (both the slot at deploy), plus the tag word when tags are deployed.
        slots = np.arange(n)
        tags = None if metadata_tags is None else metadata_tags[order]
        program_slots(
            self.ssd, embedding_region, codes, oob_records(slots, slots, tags)
        )

        # Centroid pages: payload = centroid code; OOB = 8-bit tag per slot.
        if centroid_region is not None:
            cluster_tags = (np.arange(ivf_model.nlist) & 0xFF).astype(np.uint8)
            program_slots(
                self.ssd, centroid_region, centroid_codes, cluster_tags[:, None]
            )
            r_ivf = RIvf.packed(ivf_model.cluster_sizes(), self.ssd.dram, db_id)

        # INT8 pages (TLC, ECC-protected): int8 viewed as raw bytes.
        program_slots(self.ssd, int8_region, codes_i8.view(np.uint8))

        # Document pages: chunk text bytes in deployment order.
        if corpus is not None:
            doc_payloads = np.stack([
                corpus[int(original)].encode_bytes(doc_item_bytes)
                for original in order
            ])
        else:
            blob = b"".join(
                f"chunk-{original}".encode().ljust(32, b"\x00")
                for original in order.tolist()
            )
            doc_payloads = np.frombuffer(blob, dtype=np.uint8).reshape(n, 32)
        program_slots(self.ssd, document_region, doc_payloads)

        self.r_db.register(
            RDbEntry(
                db_id=db_id,
                embedding_region=embedding_region.region,
                document_region=document_region.region,
                n_entries=n,
                doc_slot_bytes=doc_item_bytes,
            )
        )
        self._reserve_deployed_space()
        return DeployedDatabase(
            db_id=db_id,
            name=name,
            n_entries=n,
            dim=dim,
            code_bytes=code_bytes,
            embedding_region=embedding_region,
            int8_region=int8_region,
            document_region=document_region,
            centroid_region=centroid_region,
            r_ivf=r_ivf,
            binary_quantizer=binary,
            int8_quantizer=int8,
            slot_to_original=order,
            original_to_slot=original_to_slot,
            filter_threshold=codecs.filter_threshold,
            oob_record_bytes=oob_record_bytes,
            metadata_tags=metadata_tags,
            corpus=corpus,
            growth_entries=growth_entries,
        )


def oob_records(
    dadr: np.ndarray, radr: np.ndarray, meta: Optional[np.ndarray] = None
) -> np.ndarray:
    """The embedding-page OOB wire format: per slot, a little-endian DADR
    word and RADR word, plus the metadata tag word when the database
    carries tags, as ``(n, 4 * words)`` bytes."""
    words = (dadr, radr) if meta is None else (dadr, radr, meta)
    return np.stack(words, axis=1).astype("<u4").view(np.uint8)


def program_slots(
    ssd: SimulatedSSD,
    region: RegionInfo,
    payloads: np.ndarray,
    records: Optional[np.ndarray] = None,
    first_page: int = 0,
) -> int:
    """Program slot rows into a region's pages ``first_page``, ``first_page
    + 1``, ...: the one writer of deployed regions (deploy, streamed
    appends and compaction).

    Slots pack page-major: row ``i`` of ``payloads`` (at most ``item_bytes``
    wide) is slot ``i % slots_per_page`` of the ``i // slots_per_page``-th
    page, and row ``i`` of ``records`` that slot's OOB record.  Short rows
    and a last page's empty slots read as zeros.  Region page ``o`` is
    programmed at ``region.region.translate(o)``, every page in one
    :meth:`~repro.nand.array.FlashArray.program_pages`.  Returns the number
    of pages programmed.
    """
    spp = region.slots_per_page
    n_pages = -(-len(payloads) // spp)
    data = _page_rows(payloads, n_pages, spp, region.item_bytes)
    oob = None if records is None else _page_rows(
        records, n_pages, spp, records.shape[1]
    )
    planes, blocks, pages = region.region.translate_columns(
        np.arange(first_page, first_page + n_pages), ssd.spec.geometry
    )[:3]
    ssd.array.program_pages(planes, blocks, pages, data, oob)
    return n_pages


def _page_rows(
    rows: np.ndarray, n_pages: int, slots_per_page: int, width: int
) -> np.ndarray:
    """``rows`` zero-padded to ``width`` bytes and to ``n_pages`` whole
    pages, one page's slots per row of the result."""
    out = np.zeros((n_pages * slots_per_page, width), dtype=np.uint8)
    out[: len(rows), : rows.shape[1]] = rows
    return out.reshape(n_pages, slots_per_page * width)


@dataclass(frozen=True)
class DeploymentCodecs:
    """The data-dependent pieces of a deployment: quantizers + DF threshold.

    Fitting these is separated from :meth:`DatabaseDeployer.deploy` so a
    multi-device deployment can fit them **once on the full corpus** and
    inject the same codecs into every shard: binary/INT8 distances are then
    comparable across shards (one code space) and the distance filter cuts
    at the same calibrated threshold everywhere, which is what makes
    per-shard shortlists mergeable by raw distance.
    """

    binary: BinaryQuantizer
    int8: Int8Quantizer
    filter_threshold: int


def fit_deployment_codecs(
    vectors: np.ndarray,
    params: Optional[EngineParams] = None,
    seed: object = 0,
) -> DeploymentCodecs:
    """Fit the quantizers and calibrate the DF threshold for a corpus.

    This is exactly what :meth:`DatabaseDeployer.deploy` does when no codecs
    are injected, factored out so single-device and sharded deployments of
    the same corpus produce bit-identical code spaces.
    """
    vectors = np.asarray(vectors, dtype=np.float32)
    params = params or EngineParams()
    n = vectors.shape[0]
    binary = BinaryQuantizer().fit(vectors)
    int8 = Int8Quantizer().fit(vectors)
    # The distance-filtering threshold must pass at least the rescoring
    # shortlist.  At paper scale (10s of millions of entries) the
    # shortlist is a vanishing fraction and the configured quantile
    # dominates; at functional scale the shortlist fraction dominates.
    shortlist_fraction = min(
        1.0, 1.5 * params.shortlist_factor * 10 / max(n, 1)
    )
    keep_quantile = max(params.filter_keep_quantile, shortlist_fraction)
    threshold = _calibrate_filter_threshold(vectors, binary, keep_quantile, seed)
    return DeploymentCodecs(binary=binary, int8=int8, filter_threshold=threshold)


def deployment_order(n: int, ivf_model: Optional[IvfModel]) -> np.ndarray:
    """The canonical slot order of a deployment: cluster-major for IVF
    (cluster members contiguous, ascending id within a cluster), identity
    for flat databases.

    Exposed so the shard router can compute the slot a vector *would*
    occupy on a single device -- the tie-breaking key that keeps
    distance-merged shortlists bit-identical to the unsharded engine.
    """
    if ivf_model is None:
        return np.arange(n, dtype=np.int64)
    order = np.concatenate([np.empty(0, np.int64), *ivf_model.lists]).astype(np.int64)
    if order.size != n:
        raise ValueError("IVF lists do not cover every vector exactly once")
    return order


def _calibrate_filter_threshold(
    vectors: np.ndarray,
    binary: BinaryQuantizer,
    keep_quantile: float,
    seed: object,
    n_sample_queries: int = 64,
    n_sample_codes: int = 2048,
) -> int:
    """Distance-filtering threshold (Sec. 4.3.3).

    The threshold is the ``keep_quantile`` of query-to-database Hamming
    distances over a deployment-time sample; the paper finds one threshold
    filters effectively across dataset sizes, so a modest sample suffices.
    """
    rng = make_rng("df-threshold", seed)
    n = vectors.shape[0]
    queries = vectors[rng.integers(0, n, size=min(n_sample_queries, n))]
    sample = vectors[rng.integers(0, n, size=min(n_sample_codes, n))]
    distances = hamming_packed(binary.encode(queries), binary.encode(sample))
    threshold = int(np.quantile(distances, keep_quantile))
    return max(threshold, 1)
