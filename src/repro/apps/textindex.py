"""Text indexing application (§6.2: "19× for text indexing").

A co-processor builds an inverted index over a document directory:
worker threads read files through whichever file-system stack is
mounted (Solros stub or virtio/NFS baseline), tokenize them (real
tokenization of the actual bytes — the index is functionally correct),
merge per-worker partial indexes, and write the result back.

Tokenization is branch-divergent string processing, charged per byte
on the executing Phi cores identically under every stack — so the
end-to-end ratio between stacks is the paper's I/O story, diluted only
by the (parallel) compute.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Sequence

from ..fs.vfs import O_CREAT, O_RDWR, Vfs
from ..hw.cpu import Core
from ..sim.engine import Engine

__all__ = ["TextIndexer", "IndexResult"]

# Tokenization cost: ~0.8 host-ns per input byte (an optimized
# scanner runs at ~1.2 GB/s per host core).
TOKENIZE_UNITS_PER_BYTE = 0.8
MERGE_UNITS_PER_POSTING = 6
READ_CHUNK = 1 << 20


class IndexResult:
    """The built index plus run metrics."""

    def __init__(self) -> None:
        self.index: Dict[str, Dict[str, int]] = {}
        self.docs_indexed = 0
        self.bytes_read = 0
        self.elapsed_ns = 0

    def postings(self, term: str) -> Dict[str, int]:
        return self.index.get(term, {})

    @property
    def n_terms(self) -> int:
        return len(self.index)

    def throughput_mb_s(self) -> float:
        if self.elapsed_ns == 0:
            return 0.0
        return self.bytes_read / self.elapsed_ns * 1000.0


class TextIndexer:
    """Parallel inverted-index builder over a VFS."""

    def __init__(self, engine: Engine, vfs: Vfs):
        self.engine = engine
        self.vfs = vfs

    def run(
        self,
        cores: Sequence[Core],
        directory: str,
        output_path: str = "/index.out",
    ) -> Generator:
        """Index every file in ``directory``; returns IndexResult."""
        result = IndexResult()
        start = self.engine.now
        lister_core = cores[0]
        names = yield from self.vfs.readdir(lister_core, directory)
        files = [f"{directory}/{n}" for n in names]

        partials: List[Dict[str, Dict[str, int]]] = []
        workers = []
        for w, core in enumerate(cores):
            mine = files[w :: len(cores)]
            partial: Dict[str, Dict[str, int]] = {}
            partials.append(partial)
            workers.append(
                self.engine.spawn(
                    self._index_files(core, mine, partial, result),
                    name=f"indexer-{w}",
                )
            )
        yield self.engine.all_of(workers)

        # Merge partial indexes (single-threaded reduce).
        n_postings = 0
        for partial in partials:
            for term, docs in partial.items():
                bucket = result.index.setdefault(term, {})
                for doc, tf in docs.items():
                    bucket[doc] = bucket.get(doc, 0) + tf
                    n_postings += 1
        yield lister_core.compute(
            MERGE_UNITS_PER_POSTING * n_postings, "branchy"
        )

        yield from self._write_index(lister_core, result, output_path)
        result.elapsed_ns = self.engine.now - start
        return result

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _index_files(
        self,
        core: Core,
        files: List[str],
        partial: Dict[str, Dict[str, int]],
        result: IndexResult,
    ) -> Generator:
        for path in files:
            fd = yield from self.vfs.open(core, path)
            doc = path.rsplit("/", 1)[-1]
            offset = 0
            pieces: List[bytes] = []
            while True:
                data = yield from self.vfs.pread(core, fd, READ_CHUNK, offset)
                if not data:
                    break
                pieces.append(data)
                offset += len(data)
            yield from self.vfs.close(core, fd)
            text = b"".join(pieces)
            result.bytes_read += len(text)
            yield core.compute(
                TOKENIZE_UNITS_PER_BYTE * len(text), "branchy"
            )
            for token in text.decode(errors="replace").split():
                bucket = partial.setdefault(token, {})
                bucket[doc] = bucket.get(doc, 0) + 1
            result.docs_indexed += 1

    def _write_index(
        self, core: Core, result: IndexResult, output_path: str
    ) -> Generator:
        lines = []
        for term in sorted(result.index):
            docs = result.index[term]
            posting = ",".join(f"{d}:{tf}" for d, tf in sorted(docs.items()))
            lines.append(f"{term} {posting}")
        payload = "\n".join(lines).encode()
        fd = yield from self.vfs.open(core, output_path, O_CREAT | O_RDWR)
        yield from self.vfs.write(core, fd, data=payload)
        yield from self.vfs.close(core, fd)
