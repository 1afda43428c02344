"""Tests for the benchmark harness itself: stack setup, report
rendering, the CLI's claim registry, and the workload generators'
validation."""

import pytest

from repro.apps import FeatureDataset, SyntheticCorpus
from repro.bench import render_series, render_table, setup_fs_stack
from repro.bench.claims import CLAIMS
from repro.bench.report import fmt
from repro.hw import KB


def test_setup_fs_stack_rejects_unknown():
    with pytest.raises(ValueError, match="unknown stack"):
        setup_fs_stack("zfs")


@pytest.mark.parametrize(
    "stack", ["host", "solros", "solros-xnuma", "virtio", "nfs"]
)
def test_setup_fs_stack_smoke(stack):
    setup = setup_fs_stack(stack, max_threads=2, disk_blocks=4096)
    assert setup.vfs is not None
    assert setup.fs is not None
    assert len(setup.cores) >= 2
    eng = setup.engine

    def probe(eng):
        names = yield from setup.vfs.readdir(setup.cores[0], "/")
        return names

    assert eng.run_process(probe(eng)) == []


def test_render_table_contains_everything():
    text = render_table(
        "Title", ["a", "b"], [[1, 2.5], ["x", 0.001]], subtitle="sub"
    )
    assert "Title" in text and "sub" in text
    assert "2.50" in text and "0.001" in text
    assert "x" in text


def test_render_series_aligns_columns():
    text = render_series(
        "S", "x", [1, 2], {"one": [10.0, 20.0], "two": [0.5, 0.25]}
    )
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = next(ln for ln in lines if "one" in ln)
    assert "two" in header
    assert "x" in header


def test_fmt_number_styles():
    assert fmt(1234.5).strip() == "1234"  # >=100 -> no decimals
    assert fmt(12.345).strip() == "12.35"
    assert fmt(0.1234).strip() == "0.123"
    assert fmt(0.0).strip() == "0"
    assert fmt("label").strip() == "label"


def test_cli_discovers_every_figure():
    for fig in ["fig01a", "fig01b", "fig04", "fig08", "fig09", "fig10",
                "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
                "fig17", "fig18", "table1"]:
        assert fig in CLAIMS, f"{fig} missing from the claim registry"
    assert any(k.startswith("ablation_") for k in CLAIMS)


# ----------------------------------------------------------------------
# Workload generator validation
# ----------------------------------------------------------------------
def test_corpus_rejects_degenerate_params():
    with pytest.raises(ValueError):
        SyntheticCorpus(n_docs=0)
    with pytest.raises(ValueError):
        SyntheticCorpus(avg_doc_bytes=1)
    with pytest.raises(ValueError):
        SyntheticCorpus(vocab_size=2)


def test_feature_dataset_rejects_degenerate_params():
    with pytest.raises(ValueError):
        FeatureDataset(n_vectors=0)
    with pytest.raises(ValueError):
        FeatureDataset(dim=1)


def test_feature_dataset_from_bytes_validates():
    ds = FeatureDataset(n_vectors=4, dim=8)
    with pytest.raises(ValueError):
        FeatureDataset.from_bytes(ds.to_bytes()[:-4], 8)


def test_corpus_doc_size_near_target():
    corpus = SyntheticCorpus(n_docs=4, avg_doc_bytes=32 * KB, seed=2)
    sizes = [len(corpus.doc_bytes(i)) for i in range(4)]
    # Each doc lands within the 0.5x..1.5x envelope of the average.
    for size in sizes:
        assert 0.3 * 32 * KB < size < 1.7 * 32 * KB
