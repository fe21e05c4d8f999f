#!/usr/bin/env python3
"""Demonstrate the PIR building block on a real (small) page file.

The paper treats PIR as a black box with proven guarantees.  This example
opens the box on a demonstration scale: it builds a small region-data file,
then retrieves one of its pages through the same two-server XOR read the
query engine uses (``UsablePirSimulator`` with a server kernel switched on),
showing that the retrieved page is bit-exact while each individual server
observes only a uniformly random subset of page numbers.

Run with:  python examples/oblivious_retrieval_demo.py   (takes ~1 s)
"""

from repro import SystemSpec, UsablePirSimulator, random_planar_network
from repro.partition import packed_kdtree_partition
from repro.schemes.files import build_region_data_file
from repro.storage import Database


def main() -> None:
    # Build a small region-data file exactly like the schemes do.
    network = random_planar_network(num_nodes=120, seed=5)
    spec = SystemSpec(page_size=256)
    partitioning = packed_kdtree_partition(network, spec.page_size - 8)
    database = Database(spec.page_size)
    data_file = build_region_data_file(database, network, partitioning, pages_per_region=1)
    pages = [data_file.read_page(number) for number in range(data_file.num_pages)]
    print(f"region data file: {len(pages)} pages of {spec.page_size} bytes")

    wanted = len(pages) // 2
    print(f"client wants page {wanted} (the region data of region {wanted})\n")

    # --- two-server information-theoretic PIR -------------------------------
    pir = UsablePirSimulator(database, spec=spec, xor_kernel="auto", log_queries=True)
    retrieved = pir.retrieve_page(data_file.name, wanted)
    print(f"two-server XOR PIR ({pir.xor_kernel} server kernel):")
    print(f"  retrieved page matches original: {retrieved == pages[wanted]}")
    (file_name, subset_a), (_, subset_b) = pir.queries_seen[-2:]
    print(
        f"  server A only saw a random subset of {len(subset_a)} page indices of "
        f"{file_name!r} (contains the wanted page: {wanted in subset_a} — "
        "uninformative either way)"
    )
    print(
        f"  server B saw {len(subset_b)} indices; the two subsets differ in exactly "
        f"the wanted page ({sorted(subset_a ^ subset_b) == [wanted]}), which only "
        "the client, holding both, can use"
    )

if __name__ == "__main__":
    main()
