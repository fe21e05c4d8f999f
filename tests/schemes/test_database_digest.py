"""Database-bytes contract: every file of every scheme build is pinned by a digest.

Each case builds one scheme on a generated network and hashes the header and,
separately, every page of each file.  The golden table pins each file's page
count and digest, so a change to the bytes of one file names that file and
leaves the others' pins standing: a region-record format change may move the
files that hold region records (``data``, or HY's ``combined``) and nothing
else.  The golden values were recorded before the pre-computation and
index-builder fast paths went in; any change to partitioning, border
products, fragment placement, compression or page layout moves a digest.  The
bytes must also be identical on every page-store backend
(``REPRO_STORE_BACKEND``).

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

#: ``{rng: {"network/build": {file: (pages, sha256)}}}``; the ``header``
#: entry holds the header's byte length instead of a page count.
GOLDEN = {
    "numpy": {
        "n300s1/APX": {
            "data": (51, "ba68d0b435a9bedd0d734acd1cdfc369d361416845e95b7a7aa09b579144f3b8"),
            "header": (1206, "b63eadfda0f5c2be1f0f2630504d4a58c18cae67b8a1c5c70dff8f57fcc1267b"),
            "index": (7878, "a4646fd88c3b13c9519eb7abe34ea3da50ea8daf992bfd7e1bc4cfc2a185914c"),
            "lookup": (41, "260beb26fc58b52f6b218fe40a27466ac0a951bf63df8e3a004b2049c4b4ce75"),
        },
        "n300s1/CI": {
            "data": (51, "ba68d0b435a9bedd0d734acd1cdfc369d361416845e95b7a7aa09b579144f3b8"),
            "header": (1207, "f50b63c95eb4be6422f330e90a8ff46164aac6af0e598998fd2b60093e8a80ba"),
            "index": (273, "66029a20dc98705d16a4c0da45dfed671e1c5c3ea7776828549cc1a7b2945bcd"),
            "lookup": (41, "69bf52591d91a561fffd7a56656efef4ebf58fc7104a3e6b8c814993a3fec1d0"),
        },
        "n300s1/HY": {
            "combined": (2490, "36f978f8ad55d69e5f49262f2dbc7b449af2afcc7b9f1e230821b119f5ab8391"),
            "header": (1221, "eddd78c780c070410092eaca9808f622fd511fdccac771920018a2677fa0fc2e"),
            "lookup": (41, "a6134e013d63bca619c55be6820ab7c789e85b12068d3af3f0a366bd3ccf0bca"),
        },
        "n300s1/PI": {
            "data": (51, "ba68d0b435a9bedd0d734acd1cdfc369d361416845e95b7a7aa09b579144f3b8"),
            "header": (1205, "67d11954d640e246056dcd195da4f8d676fb23a09dc688bb22a0d4ab9a848547"),
            "index": (8008, "f169f1bd8443f058fb64ffd57ab47d74ae67a4c4bdd773aa7d8316594a450ed1"),
            "lookup": (41, "4d6ccb63635ea9df993d0611af30fa9a16283a1b1ae3ef7b7166202f5950449e"),
        },
        "n300s1/PI_raw": {
            "data": (51, "ba68d0b435a9bedd0d734acd1cdfc369d361416845e95b7a7aa09b579144f3b8"),
            "header": (1205, "17ded2f9b0ac0ea830a5fdde5000718f241197811d0cb1c9a0d0e7bdd19d70c4"),
            "index": (8009, "100b60acb730833fb944a5578abeaa9b1228f823b8b4ec448f662a1eaff4ea22"),
            "lookup": (41, "961b15280651d623a50969d93bd4348396596138988963cdda8d35e75b6210eb"),
        },
        "n300s1/PI_star": {
            "data": (44, "200cfde1e0ae477ba67723617b69265229a12f9071cc803fed02508a7d72429b"),
            "header": (567, "925e0918e2112bda396bc2b73bfe00aaabd2386296ea6b9a92a076067122ef45"),
            "index": (2138, "71d6a6884227df59b3149426d63a11300d854086cb56d6b869668cd4229aaa67"),
            "lookup": (8, "655b120d5aa4869063957a19e26418d186f0329a9ca0d79375fd4f399b45b74d"),
        },
        "n400s7/APX": {
            "data": (67, "dca694bf3f95831a775e885a3ba545fb37fbc00d153eadc1e78cf45aa7e6e561"),
            "header": (1564, "190534500fa3dd89e757ba08c53b6419e4403447777fbecde38144a828be8b31"),
            "index": (13946, "c611b07b190f06d23ffc086180e03fbb5285a9d127a37ebaae664bc67b3b9306"),
            "lookup": (71, "22c7bd3b18913786198505f1b4648c9e1b9a221eb29eb3787afa85e1a2b6a4c6"),
        },
        "n400s7/CI": {
            "data": (67, "dca694bf3f95831a775e885a3ba545fb37fbc00d153eadc1e78cf45aa7e6e561"),
            "header": (1565, "ed76edba14d6103bb600683cfa55446ba8bafa2ff7a1274ce3756f5d7586d7c4"),
            "index": (527, "d12aa4a9e916f6519467b044c76cba410e044ff0ec589451cac377b50b022951"),
            "lookup": (71, "b4c19e9322bf8870e5fcc01f4d2688ab213cc75a93a95e4ae4838d3127b2f3ed"),
        },
        "n400s7/HY": {
            "combined": (5249, "b8f929c1271c82225d9ac6827165ca84a6f6f36edcce67461b962367d70afb72"),
            "header": (1579, "f95a486660c5aa6a4ffd245f01fd82385625166a13c762f9df22ab9fc6e9c817"),
            "lookup": (71, "fe8483871b7d242e93f00a6067b82f08633b6e841f4de444e97809380a282728"),
        },
        "n400s7/PI": {
            "data": (67, "dca694bf3f95831a775e885a3ba545fb37fbc00d153eadc1e78cf45aa7e6e561"),
            "header": (1563, "1d5097bd691f71c543b22a26d9b124d31bd7c7cba28c6e9724d4e802a7be5893"),
            "index": (14075, "50b87a8005382bc381cced315c52dada8c93bb2556c94ffcd981f5c0ba7be567"),
            "lookup": (71, "3796ebbee13c1a110fbb530bb5308d592f0e032df4a1707707621fe0d43f33f6"),
        },
        "n400s7/PI_raw": {
            "data": (67, "dca694bf3f95831a775e885a3ba545fb37fbc00d153eadc1e78cf45aa7e6e561"),
            "header": (1563, "1d5097bd691f71c543b22a26d9b124d31bd7c7cba28c6e9724d4e802a7be5893"),
            "index": (14075, "50b87a8005382bc381cced315c52dada8c93bb2556c94ffcd981f5c0ba7be567"),
            "lookup": (71, "3796ebbee13c1a110fbb530bb5308d592f0e032df4a1707707621fe0d43f33f6"),
        },
        "n400s7/PI_star": {
            "data": (58, "8932b080b0fb8ca81257e8f0c83238a830d10bfc5e7a26fabb3c7ca5bf6d3471"),
            "header": (721, "0d7c263fcf5c1dfac7ea7dd2b0b57237fd61dd7934b5ff44f93109e73e8befc5"),
            "index": (3863, "66ee8a7cfcb4e33d34c36561065a84f91d0cfb8b590e1de555220efa68aed018"),
            "lookup": (14, "f029c10ed1a5f0fe3980f5c0d141822d3faaff71b764ca3b905451e0f0c8cfc1"),
        },
    },
    "pure": {
        "n300s1/APX": {
            "data": (51, "172507e93491f9c7d0ed0d4d2bf3b173af0df9c6e20ebfbf47cc3d748796df83"),
            "header": (1206, "7fcdc8c5a52fdbc6f6bbcb74d0ccb8764fb292965fd7b0841c25559cd18146bf"),
            "index": (8025, "709e73ee490f535783d839c15ccd98fac0aebfbeb7571dae483b67c0ea68cb21"),
            "lookup": (41, "1cfaa5674cecb2841c74daa32e4bc047e1764990e6f653b55313df123f1afc2a"),
        },
        "n300s1/CI": {
            "data": (51, "172507e93491f9c7d0ed0d4d2bf3b173af0df9c6e20ebfbf47cc3d748796df83"),
            "header": (1207, "9718fd048a122e2b895f9e8706eb4fa98bb9c941e097c0499d762a8170c66526"),
            "index": (261, "eb54203e0d83bc1d691208012f7feb639af576c2e314a719d598323e7bb426db"),
            "lookup": (41, "7288f44062ca872431be1419e751d1662f7954fa93cc58b1b52eb6c610bdc9e0"),
        },
        "n300s1/HY": {
            "combined": (2950, "2148f8fa99f4616dd14d05014faeb1d5081085740b5f1d205551745c162df813"),
            "header": (1221, "68ee30219e0ed4b7b61ff414a081af038c2dfa702893fbc126ccb16fca174191"),
            "lookup": (41, "e3a84da412223bd623d7c02a1e4d9162313a05b3bdd7ba4e3fee637568f7f4e9"),
        },
        "n300s1/PI": {
            "data": (51, "172507e93491f9c7d0ed0d4d2bf3b173af0df9c6e20ebfbf47cc3d748796df83"),
            "header": (1205, "cccb1d1bb9abf0590c93dd76b26d9162b3fbb1c803689cbc942eee1b28ed7c74"),
            "index": (8036, "8cd747be7636ecbf00d04169415af6527a9afd13f5fe8adf20ac169e5fd51ab5"),
            "lookup": (41, "7fe50ce65c20845a43300cf3cfb11e9010ab04a36acb31fb5ed4238f4cc9c096"),
        },
        "n300s1/PI_raw": {
            "data": (51, "172507e93491f9c7d0ed0d4d2bf3b173af0df9c6e20ebfbf47cc3d748796df83"),
            "header": (1205, "0fdbd3623f56c6824a60350b54fb2deeffb6efa43fe4472f27fa8294dcbbafa0"),
            "index": (8037, "d73a8ba23297244502e2720da8475870f991e7994cfbbcdea0e9c3805e15060b"),
            "lookup": (41, "63e725dc282850c2cf36a0115c793dde32894772829c13e8b952727d198c0fb9"),
        },
        "n300s1/PI_star": {
            "data": (44, "e1f02f334da0faa5589d07b07d370f1bc17170ca5935a6980c7a80eefd3845dd"),
            "header": (567, "7b366dda70e2c19ed2443db8d468775bb9064b92e2d0f806abee2397c4a58ff4"),
            "index": (1884, "17830a7a62c91835497fdbcdcf1eea9323c5dfb9c8c35195237b6c9eafc8ead1"),
            "lookup": (8, "f0858ce47e2f72510c0b42dd5b0e04151e8c51b5dfd328cb7813d6847c714945"),
        },
        "n400s7/APX": {
            "data": (67, "0d9fd0f1e6abf2dbc45acc2e6f44d2f9f8be6cadc5160bab2285589b11bd43d5"),
            "header": (1564, "65498f5985662ccd1b35d08ed38f85d18a071081e8b2a7f62ef19be1d7b1b9b5"),
            "index": (12798, "b629c913c64b69f8ae625375e61dba3144d3b79e045e584a392910e5d74c54b8"),
            "lookup": (71, "8d99c6a48ee287317690de5866fe38a4e3a0f6d810a9ab408d69d0decf6f32d5"),
        },
        "n400s7/CI": {
            "data": (67, "0d9fd0f1e6abf2dbc45acc2e6f44d2f9f8be6cadc5160bab2285589b11bd43d5"),
            "header": (1565, "d83d88397d7b75717c2fe30df1f83456691244d3e0523b6ef2539c4eeacfd08f"),
            "index": (468, "6aa21c5721164173c9769d20aceb852bee86824e97ecfe92ab92ad47b892b16e"),
            "lookup": (71, "2d7640a0620b1784ac80f87d828980bac3f1af89fb76a7eae1b681c1108cb597"),
        },
        "n400s7/HY": {
            "combined": (3240, "45bdb632b3ac169b9f7e3045d218faf89e191eca97ab4cd76219911fbbbb2678"),
            "header": (1579, "1490db8187c17cf54f37adcb8f963e1abd8124483828eb344874ab0dce1ca015"),
            "lookup": (71, "42a438254861666c63882f12ee12ec1c609abd4c0c10a01b1587223908ead68b"),
        },
        "n400s7/PI": {
            "data": (67, "0d9fd0f1e6abf2dbc45acc2e6f44d2f9f8be6cadc5160bab2285589b11bd43d5"),
            "header": (1563, "cc8f112da15be617450849e60ca7d999cf46d372c0f0faa02bdd6ec054f98251"),
            "index": (12875, "c3f8c5766b5ef533c9cc121ced25aa5cc2726d2a0bac8d24484c35a2c8bc5e85"),
            "lookup": (71, "6d9b9dac05a3cd66be8be8c30603cf66b807ea4dd44acde70c7b496cf03d5e63"),
        },
        "n400s7/PI_raw": {
            "data": (67, "0d9fd0f1e6abf2dbc45acc2e6f44d2f9f8be6cadc5160bab2285589b11bd43d5"),
            "header": (1563, "426657ae24207c8454196b7c572faf031b3693254d9802344f30464386fdce7f"),
            "index": (12878, "e05db0490e2ec2569712c043b5b4bcd80ae608a21ee6d8882c1dab69f7de79c0"),
            "lookup": (71, "382c90305366fb1c4a38a0731909432d510b04b79ae399ef942e1e158781d2e0"),
        },
        "n400s7/PI_star": {
            "data": (58, "4445939e177c528a36e91234c0c1f87bc8133c91389135dba541252b9ffff7f5"),
            "header": (721, "34bcfecb8d0ff152234b3ddbf4b4d5f5f2e6ad3c445ac0b69c282c385a925888"),
            "index": (3544, "96b8b30071bc71d341ab4fad0644b649d93e38bb0dc1b967aa79f610f9515eb3"),
            "lookup": (14, "e9e94911705289e9f19eb08603f6dc6a2e9f18f06e48db62b38d51832853028f"),
        },
    },
}


def file_digests(database) -> dict:
    """``{file: (pages, sha256 of its pages in order)}`` plus the header's."""
    digests = {
        "header": (len(database.header), hashlib.sha256(database.header).hexdigest())
    }
    for name in database.file_names():
        page_file = database.file(name)
        digest = hashlib.sha256()
        for page_number in range(page_file.num_pages):
            digest.update(page_file.read_page(page_number))
        digests[name] = (page_file.num_pages, digest.hexdigest())
    return digests


def rng_flavour() -> str:
    return "numpy" if generators._np is not None else "pure"


def build_digests(network_name: str, build_name: str) -> dict:
    nodes, seed = NETWORKS[network_name]
    network = random_planar_network(nodes, seed=seed)
    scheme = BUILDS[build_name](network, SystemSpec(page_size=PAGE_SIZE))
    try:
        return file_digests(scheme.database)
    finally:
        scheme.database.close()


@pytest.mark.parametrize("build_name", sorted(BUILDS))
@pytest.mark.parametrize("network_name", sorted(NETWORKS))
def test_database_bytes_match_golden(network_name, build_name):
    expected = GOLDEN[rng_flavour()][f"{network_name}/{build_name}"]
    assert build_digests(network_name, build_name) == expected
