import pytest

from netobserve.datasets import REGISTRY, data_directory, load_dataset, locate


def dataset_available(name):
    return locate(name) is not None


class TestRegistry:
    def test_four_corpora_registered(self):
        assert set(REGISTRY) == {"monks", "blogs", "books", "coauthorship"}

    def test_expected_rows_complete(self):
        for spec in REGISTRY.values():
            assert {"n", "edges", "n_alpha", "n_beta_min"} <= set(spec.expected)
            assert spec.source_url.startswith("http")

    def test_data_directory_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NETOBSERVE_DATA", raising=False)
        assert data_directory(tmp_path) == tmp_path
        monkeypatch.setenv("NETOBSERVE_DATA", str(tmp_path / "env"))
        assert data_directory() == tmp_path / "env"
        monkeypatch.delenv("NETOBSERVE_DATA")
        assert data_directory() == data_directory(None)


class TestLoading:
    def test_missing_file_message_points_at_fetcher(self, tmp_path):
        with pytest.raises(FileNotFoundError) as e:
            load_dataset("monks", data_dir=tmp_path)
        assert "fetch_datasets" in str(e.value)

    def test_load_from_explicit_dir(self, tmp_path):
        (tmp_path / "monks.gml").write_text(
            'graph [ directed 1 node [ id 0 ] node [ id 1 ] '
            'edge [ source 0 target 1 ] ]')
        lg = load_dataset("monks", data_dir=tmp_path)
        assert lg.digraph.node_count == 2

    def test_preprocess_override(self, tmp_path):
        (tmp_path / "polblogs.gml").write_text(
            'graph [ directed 1 node [ id 0 ] node [ id 1 ] node [ id 2 ] '
            'edge [ source 0 target 1 ] ]')
        cooked = load_dataset("blogs", data_dir=tmp_path)
        assert cooked.digraph.node_count == 2  # isolate dropped per registry


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_published_row_reproduced(name):
    """Full published-table reproduction; skips when the corpus is absent."""
    if not dataset_available(name):
        pytest.skip(f"dataset {name!r} not present under {data_directory()}; "
                    "run scripts/fetch_datasets.py on a machine with "
                    "internet access")
    from netobserve.classify import decompose, structural_counts_report

    spec = REGISTRY[name]
    lg = load_dataset(name)
    row = structural_counts_report(decompose(lg.digraph), name=name)
    for key, want in spec.expected.items():
        assert row[key] == want, f"{name}: {key} = {row[key]}, published {want}"
