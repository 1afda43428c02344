"""Tests for the §6.2 applications (functional correctness + the
Solros-vs-baseline ordering)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps import FeatureDataset, ImageSearch, SyntheticCorpus, TextIndexer
from repro.core import SolrosSystem
from repro.sim import Engine


@pytest.fixture(scope="module")
def booted():
    eng = Engine()
    system = SolrosSystem(eng)
    eng.run_process(system.boot(n_phis=1))
    return eng, system


def test_numpy_stays_off_the_kv_and_core_import_path():
    """Only the image-search and corpus generators need numpy; they
    import it when called, so the kv store and the core system load
    without it."""
    code = (
        "import sys, repro.apps.kvstore, repro.core, repro.net.testbed\n"
        "print('numpy' in sys.modules)\n"
        "from repro.apps import ImageSearch, FeatureDataset\n"
        "FeatureDataset(n_vectors=2, dim=4).matrix()\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.split() == ["False", "True"]


def test_corpus_is_deterministic():
    a = SyntheticCorpus(n_docs=4, avg_doc_bytes=512, seed=5)
    b = SyntheticCorpus(n_docs=4, avg_doc_bytes=512, seed=5)
    assert a.doc_bytes(2) == b.doc_bytes(2)
    c = SyntheticCorpus(n_docs=4, avg_doc_bytes=512, seed=6)
    assert a.doc_bytes(2) != c.doc_bytes(2)


def test_corpus_zipf_skew():
    corpus = SyntheticCorpus(n_docs=2, avg_doc_bytes=8192, seed=1)
    words = corpus.doc_bytes(0).decode().split()
    counts = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    # The most common word should dominate a mid-rank word.
    assert counts.get("w00000", 0) > 5 * counts.get("w00100", 1)


def test_feature_dataset_shapes_and_roundtrip():
    ds = FeatureDataset(n_vectors=64, dim=16, seed=3)
    m = ds.matrix()
    assert m.shape == (64, 16)
    np.testing.assert_allclose(np.linalg.norm(m, axis=1), 1.0, rtol=1e-5)
    back = FeatureDataset.from_bytes(ds.to_bytes(), 16)
    np.testing.assert_array_equal(m, back)


def test_text_indexer_correct_over_solros(booted):
    eng, system = booted
    phi = system.dataplane(0)
    corpus = SyntheticCorpus(n_docs=8, avg_doc_bytes=2048, seed=11)

    def app(eng):
        core = phi.core(0)
        yield from corpus.populate(core, phi.fs, "/corpus")
        indexer = TextIndexer(eng, phi.fs)
        result = yield from indexer.run(phi.app_cores(4), "/corpus")
        return result

    result = eng.run_process(app(eng))
    assert result.docs_indexed == 8
    # Verify against ground truth for a handful of terms.
    truth = {}
    for i in range(8):
        for token in corpus.doc_bytes(i).decode().split():
            truth.setdefault(token, {}).setdefault(corpus.doc_name(i), 0)
            truth[token][corpus.doc_name(i)] += 1
    for term in ["w00000", "w00003", "w00050"]:
        assert result.postings(term) == truth.get(term, {})
    assert result.n_terms == len(truth)


def test_image_search_returns_true_neighbors(booted):
    eng, system = booted
    phi = system.dataplane(0)
    ds = FeatureDataset(n_vectors=256, dim=32, seed=9)
    queries = ds.queries(6, noise=0.05)

    def app(eng):
        core = phi.core(0)
        yield from ds.populate(core, phi.fs, "/features.db")
        search = ImageSearch(eng, phi.fs, dim=32)
        result = yield from search.run(phi.app_cores(4), "/features.db", queries, k=3)
        return result

    result = eng.run_process(app(eng))
    assert result.db_rows == 256
    assert len(result.neighbors) == 6
    # Compare against an independent brute-force check.
    db = ds.matrix()
    for qi in range(6):
        expect = np.argsort(-(db @ queries[qi]))[:3]
        np.testing.assert_array_equal(result.neighbors[qi], expect)


def test_image_search_compute_dominates_io(booted):
    """The reason image search only speeds up ~2x: it is compute-heavy."""
    eng, system = booted
    phi = system.dataplane(0)
    ds = FeatureDataset(n_vectors=4096, dim=128, seed=13)
    queries = ds.queries(96)

    def app(eng):
        core = phi.core(0)
        yield from ds.populate(core, phi.fs, "/feat2.db")
        search = ImageSearch(eng, phi.fs, dim=128)
        result = yield from search.run(
            phi.app_cores(8), "/feat2.db", queries, k=5
        )
        return result

    result = eng.run_process(app(eng))
    assert result.compute_ns > result.load_ns
