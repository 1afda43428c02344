"""Image search application (§6.2: "2× for image search").

k-nearest-neighbour search over a feature-vector database: the
co-processor loads the database file through the mounted file-system
stack, then worker threads score queries against it.  The distance
kernel is dense floating-point — exactly what a wide-SIMD co-processor
is *good* at (charged at the ``simd`` rate, not the branchy one) — so
compute is a much larger share of runtime than in text indexing and
the stack speedup dilutes to ~2×, matching the paper's contrast
between the two applications.

Scoring is real numpy math on real bytes read back through the stack,
so the returned neighbours are verifiably correct.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, List, Sequence, Tuple

from ..fs.vfs import Vfs
from ..hw.cpu import Core
from ..sim.engine import Engine

if TYPE_CHECKING:
    import numpy as np

__all__ = ["ImageSearch", "SearchResult"]

# Distance kernel: ~0.55 host-ns per multiply-add pair (memory-bound
# GEMV), charged at the SIMD rate on the executing core.
SCORE_UNITS_PER_MAC = 0.55
TOPK_UNITS_PER_ROW = 2.0
READ_CHUNK = 1 << 20


class SearchResult:
    def __init__(self) -> None:
        self.neighbors: List[np.ndarray] = []   # per query: top-k indices
        self.db_rows = 0
        self.bytes_read = 0
        self.load_ns = 0
        self.compute_ns = 0
        self.elapsed_ns = 0


class ImageSearch:
    """Parallel k-NN over a feature database file."""

    def __init__(self, engine: Engine, vfs: Vfs, dim: int = 128):
        self.engine = engine
        self.vfs = vfs
        self.dim = dim

    def run(
        self,
        cores: Sequence[Core],
        db_path: str,
        queries: np.ndarray,
        k: int = 5,
    ) -> Generator:
        """Load the DB through the VFS and answer ``queries``."""
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError("queries shape mismatch")
        result = SearchResult()
        start = self.engine.now

        db = yield from self._load_db(cores[0], db_path, result)
        result.load_ns = self.engine.now - start
        result.db_rows = db.shape[0]

        # Fan queries out over worker cores.
        compute_start = self.engine.now
        answers: List[Tuple[int, np.ndarray]] = []
        workers = []
        for w, core in enumerate(cores):
            mine = [(i, queries[i]) for i in range(w, len(queries), len(cores))]
            workers.append(
                self.engine.spawn(
                    self._score(core, db, mine, k, answers),
                    name=f"search-{w}",
                )
            )
        yield self.engine.all_of(workers)
        result.compute_ns = self.engine.now - compute_start
        answers.sort(key=lambda item: item[0])
        result.neighbors = [idx for _i, idx in answers]
        result.elapsed_ns = self.engine.now - start
        return result

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _load_db(self, core: Core, db_path: str, result: SearchResult) -> Generator:
        import numpy as np

        fd = yield from self.vfs.open(core, db_path)
        pieces: List[bytes] = []
        offset = 0
        while True:
            data = yield from self.vfs.pread(core, fd, READ_CHUNK, offset)
            if not data:
                break
            pieces.append(data)
            offset += len(data)
        yield from self.vfs.close(core, fd)
        raw = b"".join(pieces)
        result.bytes_read = len(raw)
        m = np.frombuffer(raw, dtype=np.float32)
        if m.size % self.dim:
            raise ValueError(f"corrupt feature DB: {m.size} floats")
        return m.reshape(-1, self.dim)

    def _score(
        self,
        core: Core,
        db: np.ndarray,
        queries: List[Tuple[int, np.ndarray]],
        k: int,
        answers: List[Tuple[int, np.ndarray]],
    ) -> Generator:
        import numpy as np

        n_rows = db.shape[0]
        for qi, q in queries:
            # Real math: cosine similarity against every DB row.
            scores = db @ q
            top = np.argsort(-scores)[:k]
            answers.append((qi, top))
            macs = n_rows * self.dim
            yield core.compute(SCORE_UNITS_PER_MAC * macs, "simd")
            yield core.compute(TOPK_UNITS_PER_ROW * n_rows, "scalar")
