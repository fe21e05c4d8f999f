"""Database-bytes contract: every scheme build is pinned by a page digest.

Each case builds one scheme on a generated network and hashes the header plus
every page of every file, files in name order.  The golden values were
recorded before the pre-computation and index-builder fast paths went in;
any change to partitioning, border products, fragment placement, compression
or page layout moves a digest.  The bytes must also be identical on every
page-store backend (``REPRO_STORE_BACKEND``).

The generators draw from numpy's RNG when numpy imports and from a
pure-Python stand-in otherwise, so each RNG has its own golden table.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import SystemSpec
from repro.network import generators, random_planar_network
from repro.schemes import (
    ApproximatePassageIndexScheme,
    ConciseIndexScheme,
    HybridScheme,
    PassageIndexScheme,
)

PAGE_SIZE = 256
NETWORKS = {"n300s1": (300, 1), "n400s7": (400, 7)}

BUILDS = {
    "CI": lambda network, spec: ConciseIndexScheme.build(network, spec),
    "PI": lambda network, spec: PassageIndexScheme.build(network, spec),
    "PI_raw": lambda network, spec: PassageIndexScheme.build(network, spec, compress=False),
    "PI_star": lambda network, spec: PassageIndexScheme.build(
        network, spec, pages_per_region=2
    ),
    "APX": lambda network, spec: ApproximatePassageIndexScheme.build(network, spec=spec),
    "HY": lambda network, spec: HybridScheme.build(network, spec),
}

GOLDEN = {
    "numpy": {
        "n300s1/APX": "6bb871d136e2b0ee6728c589726ce43dbaeebaf5aaacd919e107b995b15c572d",
        "n300s1/CI": "d3fe44b007db71efb51f37fb0f7b71a2a4b0599f4e383f47d4f15c953a3a730c",
        "n300s1/HY": "018964b0c7ac2e0db309bd93375f1ccbee75107c73a316237fc6132816d6d049",
        "n300s1/PI": "fc0a900e06f8e86628f83bccfb7ddd684efebf9dfccf7fcc7d3154fa767c1fda",
        "n300s1/PI_raw": "dc93a508cd6c191164a3b8f0f19d33cb3e559859ec734ac622f0befff342ebef",
        "n300s1/PI_star": "116e7643a9ca2edfe602cc3daa5e7a4d2890974e247ead9a0da3df4603e90d72",
        "n400s7/APX": "b6b394778c88596ddb166e0fcd6e492bdb471ff8179f1798e59f6771621de13f",
        "n400s7/CI": "afe7b8732539ee254c46c88b634c69809654e8b45605238baf07349c2f3905a6",
        "n400s7/HY": "e5ef4e9e52a5ba0cb3c09b2ccae3fa9aec74a02500f100cd7640e5d033aa3a3d",
        "n400s7/PI": "37bd180b64657c01dfe4d4cf854d81bc21ad3d01612621c20a2a390441163131",
        "n400s7/PI_raw": "37bd180b64657c01dfe4d4cf854d81bc21ad3d01612621c20a2a390441163131",
        "n400s7/PI_star": "30101a3a0ef6536d59071cee61718fc2893f66ec8e1db3fc3f3610381e693b5a",
    },
    "pure": {
        "n300s1/APX": "e64d3f9929ee5ba9ef937a9168e207152598c7f95e5fd36a1b9b1a39dacc0818",
        "n300s1/CI": "5afc5255ec010eaf3552783f033d911e7551d7c434aa77bddce05fba4cf584a9",
        "n300s1/HY": "bcbbbd3362b559883a862554cd88155023b27a54ce26b0db68fb0b5784a506a5",
        "n300s1/PI": "590aadff8f1454e103380a536a18dd0826e4c4ee6ce529833f7bf5a63eda8eb0",
        "n300s1/PI_raw": "5a0be4affd7d73c29c22597339289a17eb15a712ccdc37fa970f6d0e00b54964",
        "n300s1/PI_star": "e1799e8b7cbd7e3ef843865c3480f54ab6da897a8994ddcf1e85813f860d1f6e",
        "n400s7/APX": "fe719cf871292ffd4d4d19b1ce246e9dd170bb3e688e542d5e0c6d6fe878aa13",
        "n400s7/CI": "5d2dc01cde81b3d840e72005bdf940e70562dc73713dc72bbea83024f35ed9e0",
        "n400s7/HY": "d3b8b85c832465449b0ff7939f44b454ccba6f87b4c4ba445ded823479a2e8f6",
        "n400s7/PI": "e06fc4df678c0a15dd1090924cfe483b3075d9c410b4be28a4fa5bc984bd741d",
        "n400s7/PI_raw": "f2e8d1d6e277e2d4be22471ff59f0c28ddf13ed4a1dc2f18ce98b451f3b30fa6",
        "n400s7/PI_star": "3cec0eb7bc8ad2425dec073d0fac2d25231829c7bae70b763e6d7f82841a8bf3",
    },
}


def database_digest(database) -> str:
    """SHA-256 over the header and every page of every file, in name order."""
    digest = hashlib.sha256()
    digest.update(len(database.header).to_bytes(8, "little"))
    digest.update(database.header)
    for name in sorted(database.file_names()):
        page_file = database.file(name)
        digest.update(name.encode("utf-8"))
        digest.update(page_file.num_pages.to_bytes(8, "little"))
        for page_number in range(page_file.num_pages):
            digest.update(page_file.read_page(page_number))
    return digest.hexdigest()


def rng_flavour() -> str:
    return "numpy" if generators._np is not None else "pure"


def build_digest(network_name: str, build_name: str) -> str:
    nodes, seed = NETWORKS[network_name]
    network = random_planar_network(nodes, seed=seed)
    scheme = BUILDS[build_name](network, SystemSpec(page_size=PAGE_SIZE))
    try:
        return database_digest(scheme.database)
    finally:
        scheme.database.close()


@pytest.mark.parametrize("build_name", sorted(BUILDS))
@pytest.mark.parametrize("network_name", sorted(NETWORKS))
def test_database_bytes_match_golden(network_name, build_name):
    expected = GOLDEN[rng_flavour()][f"{network_name}/{build_name}"]
    assert build_digest(network_name, build_name) == expected
