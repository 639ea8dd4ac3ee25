"""Registry of the four case-study corpora.

The corpora themselves are distributed separately (license and size); this
module knows how to find, load, and preprocess them, and records the
published summary each one is expected to reproduce.  Files are looked up
in, in order: an explicit ``data_dir`` argument, the ``NETOBSERVE_DATA``
environment variable, and ``./data``.  ``scripts/fetch_datasets.py``
downloads them on a machine with internet access.

Preprocessing notes (the published node counts assume it):

* ``books`` and ``coauthorship`` are undirected (their GML says
  ``directed 0``) and get symmetrized;
* ``blogs`` and ``coauthorship`` are distributed with isolated nodes
  (1490 and 1589 raw) that must be dropped to match the published
  1224/1461-node figures.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .ingest import LabeledGraph, drop_isolates, parse_gml


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    filenames: tuple[str, ...]  # accepted GML file names, first found wins
    drop_isolated_nodes: bool
    expected: dict  # published summary row
    source_url: str


REGISTRY: dict[str, DatasetSpec] = {
    "monks": DatasetSpec(
        name="monks",
        filenames=("monks.gml", "sampson.gml", "monks.txt"),
        drop_isolated_nodes=False,
        expected={"n": 18, "edges": 88, "n_alpha": 0, "n_beta_min": 1},
        source_url="http://vlado.fmf.uni-lj.si/pub/networks/data/esna/sampson.htm",
    ),
    "blogs": DatasetSpec(
        name="blogs",
        filenames=("polblogs.gml", "blogs.gml"),
        drop_isolated_nodes=True,
        expected={"n": 1224, "edges": 19025, "n_alpha": 436, "n_beta_min": 0},
        source_url="http://www-personal.umich.edu/~mejn/netdata/polblogs.zip",
    ),
    "books": DatasetSpec(
        name="books",
        filenames=("polbooks.gml", "books.gml"),
        drop_isolated_nodes=False,
        expected={"n": 105, "edges": 882, "n_alpha": 0, "n_beta_min": 1},
        source_url="http://www-personal.umich.edu/~mejn/netdata/polbooks.zip",
    ),
    "coauthorship": DatasetSpec(
        name="coauthorship",
        filenames=("netscience.gml", "coauthorship.gml"),
        drop_isolated_nodes=True,
        expected={"n": 1461, "edges": 5484, "n_alpha": 37, "n_beta_min": 248,
                  "n_components": 268, "n_matched_components": 248},
        source_url="http://www-personal.umich.edu/~mejn/netdata/netscience.zip",
    ),
}


def data_directory(data_dir: str | os.PathLike | None = None) -> Path:
    if data_dir is not None:
        return Path(data_dir)
    env = os.environ.get("NETOBSERVE_DATA")
    return Path(env) if env else Path("data")


def locate(name: str, data_dir: str | os.PathLike | None = None) -> Path | None:
    spec = REGISTRY[name]
    base = data_directory(data_dir)
    for fname in spec.filenames:
        path = base / fname
        if path.is_file():
            return path
    return None


def load_dataset(name: str, data_dir: str | os.PathLike | None = None) -> LabeledGraph:
    """Load a registered corpus, applying its documented preprocessing."""
    spec = REGISTRY[name]
    path = locate(name, data_dir)
    if path is None:
        raise FileNotFoundError(
            f"dataset {name!r} not found under {data_directory(data_dir)}; "
            f"expected one of {spec.filenames} "
            f"(see scripts/fetch_datasets.py; source: {spec.source_url})")
    lg = parse_gml(path.read_bytes(), source=str(path))
    if spec.drop_isolated_nodes:
        lg = drop_isolates(lg)
    return lg
