"""Synthetic workload generators for the §6.2 applications.

The paper's applications consume a text corpus (indexing) and an image
dataset (search).  We cannot ship those, so seeded generators produce
synthetic equivalents with matched structure: Zipf-ish word frequency
for text (so the inverted index has realistic posting-list skew) and
unit-norm float feature vectors for images (so distance ranking is
meaningful).  Everything is deterministic per seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..fs.vfs import O_CREAT, O_RDWR, Vfs
from ..hw.cpu import Core

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SyntheticCorpus", "FeatureDataset"]


class SyntheticCorpus:
    """A deterministic document collection with Zipfian vocabulary."""

    def __init__(
        self,
        n_docs: int = 64,
        avg_doc_bytes: int = 16 * 1024,
        vocab_size: int = 2000,
        seed: int = 42,
    ):
        if n_docs < 1 or avg_doc_bytes < 16 or vocab_size < 10:
            raise ValueError("degenerate corpus parameters")
        self.n_docs = n_docs
        self.avg_doc_bytes = avg_doc_bytes
        self.vocab_size = vocab_size
        self.seed = seed
        self._vocab = [f"w{i:05d}" for i in range(vocab_size)]
        # Zipf CDF for word selection.
        weights = [1.0 / (rank + 1) for rank in range(vocab_size)]
        total = sum(weights)
        acc, cdf = 0.0, []
        for w in weights:
            acc += w / total
            cdf.append(acc)
        self._cdf = cdf

    def doc_name(self, i: int) -> str:
        return f"doc{i:05d}.txt"

    def doc_bytes(self, i: int) -> bytes:
        """Generate document ``i`` (deterministic, independent of order)."""
        import numpy as np

        rng = np.random.default_rng((self.seed << 20) ^ i)
        target = int(self.avg_doc_bytes * (0.5 + rng.random()))
        # Every word is "wNNNNN " = 7 bytes including the separator.
        n_words = max(1, target // 7)
        cdf = np.asarray(self._cdf)
        picks = np.searchsorted(cdf, rng.random(n_words), side="left")
        picks = np.minimum(picks, self.vocab_size - 1)
        vocab = np.asarray(self._vocab)
        return " ".join(vocab[picks]).encode()

    def total_bytes(self) -> int:
        return sum(len(self.doc_bytes(i)) for i in range(self.n_docs))

    def populate(self, core: Core, vfs: Vfs, directory: str) -> Generator:
        """Write the corpus into ``directory`` through ``vfs`` (timed)."""
        yield from vfs.mkdir(core, directory)
        for i in range(self.n_docs):
            path = f"{directory}/{self.doc_name(i)}"
            fd = yield from vfs.open(core, path, O_CREAT | O_RDWR)
            yield from vfs.write(core, fd, data=self.doc_bytes(i))
            yield from vfs.close(core, fd)


class FeatureDataset:
    """Unit-norm feature vectors, serialized as float32 rows."""

    def __init__(self, n_vectors: int = 1024, dim: int = 128, seed: int = 7):
        if n_vectors < 1 or dim < 2:
            raise ValueError("degenerate dataset parameters")
        self.n_vectors = n_vectors
        self.dim = dim
        self.seed = seed

    @property
    def row_bytes(self) -> int:
        return self.dim * 4

    @property
    def total_bytes(self) -> int:
        return self.n_vectors * self.row_bytes

    def matrix(self) -> np.ndarray:
        """The full database as an (n, dim) float32 array."""
        import numpy as np

        rng = np.random.default_rng(self.seed)
        m = rng.standard_normal((self.n_vectors, self.dim)).astype(np.float32)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        return m / norms

    def to_bytes(self) -> bytes:
        return self.matrix().tobytes()

    @staticmethod
    def from_bytes(raw: bytes, dim: int) -> np.ndarray:
        import numpy as np

        m = np.frombuffer(raw, dtype=np.float32)
        if m.size % dim:
            raise ValueError("corrupt feature file")
        return m.reshape(-1, dim)

    def queries(self, n_queries: int, noise: float = 0.1) -> np.ndarray:
        """Noisy copies of random database rows (so each query has an
        unambiguous true nearest neighbour)."""
        import numpy as np

        rng = np.random.default_rng(self.seed ^ 0xBEEF)
        base = self.matrix()
        idx = rng.integers(0, self.n_vectors, size=n_queries)
        q = base[idx] + noise * rng.standard_normal(
            (n_queries, self.dim)
        ).astype(np.float32)
        norms = np.linalg.norm(q, axis=1, keepdims=True)
        return q / norms

    def populate(self, core: Core, vfs: Vfs, path: str) -> Generator:
        """Write the database file through ``vfs`` (timed)."""
        fd = yield from vfs.open(core, path, O_CREAT | O_RDWR)
        yield from vfs.write(core, fd, data=self.to_bytes())
        yield from vfs.close(core, fd)
