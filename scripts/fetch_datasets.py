#!/usr/bin/env python3
"""Download the four case-study corpora into a data directory.

Run on a machine with internet access:

    python3 scripts/fetch_datasets.py [--data-dir data]

Each corpus is pulled from its registered source URL (zip archives are
unpacked in place), then parsed and preprocessed exactly the way
``netobserve.datasets.load_dataset`` does, and the resulting node/edge
counts are compared against the published summary row so a bad mirror or a
changed file is caught immediately.

The monks (Sampson monastery) corpus has no stable single-file download;
if the registered page is unreachable, obtain ``sampson.gml`` from any
network-data mirror and place it in the data directory by hand.
"""

from __future__ import annotations

import argparse
import io
import sys
import urllib.request
import zipfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from netobserve.datasets import REGISTRY, load_dataset, locate  # noqa: E402


def fetch(url: str) -> bytes:
    req = urllib.request.Request(url, headers={"User-Agent": "netobserve-fetch"})
    with urllib.request.urlopen(req, timeout=60) as resp:
        return resp.read()


def install(name: str, data_dir: Path) -> bool:
    spec = REGISTRY[name]
    if locate(name, data_dir) is not None:
        print(f"[{name}] already present, skipping download")
        return True
    print(f"[{name}] fetching {spec.source_url}")
    try:
        blob = fetch(spec.source_url)
    except Exception as exc:  # noqa: BLE001 - report and move on
        print(f"[{name}] download failed: {exc}")
        print(f"[{name}] place one of {spec.filenames} under {data_dir} manually")
        return False
    if spec.source_url.endswith(".zip"):
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            gml = [m for m in zf.namelist() if m.endswith(".gml")]
            if not gml:
                print(f"[{name}] archive contains no .gml member: {zf.namelist()}")
                return False
            (data_dir / spec.filenames[0]).write_bytes(zf.read(gml[0]))
    else:
        (data_dir / spec.filenames[0]).write_bytes(blob)
    return True


def verify(name: str, data_dir: Path) -> bool:
    spec = REGISTRY[name]
    lg = load_dataset(name, data_dir=data_dir)
    got = {"n": lg.digraph.node_count, "edges": lg.digraph.edge_count}
    want = {k: spec.expected[k] for k in got}
    status = "ok" if got == want else f"MISMATCH (expected {want})"
    print(f"[{name}] n={got['n']} edges={got['edges']} {status}")
    return got == want


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", default="data", type=Path)
    parser.add_argument("names", nargs="*", default=sorted(REGISTRY),
                        help="subset of datasets to fetch (default: all)")
    args = parser.parse_args()
    args.data_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for name in args.names or sorted(REGISTRY):
        if name not in REGISTRY:
            print(f"unknown dataset {name!r}; choices: {sorted(REGISTRY)}")
            return 2
        if not (install(name, args.data_dir)
                and verify(name, args.data_dir)):
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
