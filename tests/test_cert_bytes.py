"""Certificate bytes pinned: both builders emit exactly these JSON documents.

The digests are sha256 of JSON text. A refactor that claims byte-identical
certificates must keep them; a change that means to alter the format updates
them in the same commit and says why.

PINNED_NATURAL is `to_json()` of each certificate as built: every
coefficient at its least period, its "values" object holding its natural
residues 2i + sigma alone, sigma = sum(parts) mod 2.
PINNED is the same document with "0" written at every residue key off the
class, the bytes to_json wrote before it left those keys out:
`helpers.full_json`, a standard-library transform of the JSON, must still
print them.
PINNED_TILED is PINNED's document with every coefficient tiled to the
master period tau = lcm(parts), as the builders wrote it before they stored
coefficients at their own periods: `helpers.tiled_json` of PINNED's document
must still print those bytes.
Each of the three documents, read back, must write PINNED_NATURAL's bytes.
"""

import hashlib

import pytest

from denumerant import QuasiPoly, build_explicit, build_recursive
from helpers import full_json, tiled_json

PINNED_NATURAL = {
    (1, 2, 3, 4): "32e63920a5c843a6c4d44e1e84e1b048d7d8f41db46cbe106d19d3eeef424215",
    (1, 2, 3, 4, 5): "fc8a63b74b71115c00e379a72cbf2a7bcea375c8054cbb41ea88a817402c542e",
    (1, 1, 2, 2, 3, 3): "401c28f13de62536c70e6b7fc1d4bbaef8b8f22c6eb3955ef9cad2f66162367d",
    (2, 3, 5, 7): "a6d556aea5ed0d0a998b3a2ffc783b1df026dd1c529d817eb0b4f805f96ee5de",
    (5, 7, 9): "17104150af3bfd20c4aa4576688dd031cea0be5a87dbd0b40a58bf48322c228e",
    (3, 1, 2): "8b0faad23d4b65ba4abf2b4d840ba891f0198dc4ea53686e4b659e3ff4721fc8",
    (6, 1, 4, 1): "b2c6e80fdb65671e902fe68a3588f8eccce2e14968a4b244e893d389c59325b1",
    (2, 1, 2, 1, 3): "e1765b147a80ae1507d0d33688924b09b77bff093cb0bdf63e1276f435a6ba66",
    (5, 2, 2): "9b09cd376cc04a0cd94962480f8be32c7456420a18baf00870c4dc52567547cb",
    (1, 2, 3, 4, 5, 6, 7): "1b6de4eb13cfe2c30bf8ad39544396a4381e7a478f39a4a8dbd2c3520fcc02e3",
    (4, 9, 11): "65b0cf405faa73e144d98608f3442d891906b8a3d95cf8b6d89f992602501d5b",
    (7, 8, 9): "092b58192324189ebad293bf58f2870802e3c9c26c73bd4938e29bfa4c1aac53",
    (1, 2, 3, 4, 5, 6, 7, 8): "9149f7c74f66e868c3b7e1cb3108774f095eb013cf9d92e4a131a46f04015545",
    (31, 37, 41): "12b57a665568375ba54609b099f06eaaedb5e77dc0db1e07eb26719a3b3ff8eb",
    (2, 2, 2, 2): "e929b6a36927f6f94739d06808a8bed359ec875bf393d5d8069b94f072a715c9",
    (1, 1, 1, 2, 2, 3): "32b02ff6112e95e7ab1e1600e545a41e928b1a8c3ccc72ba6c6272a673634a5c",
}

PINNED = {
    (1, 2, 3, 4): "066eb3a3a63eb59021a1d899eda66d2ba7c183f52a8e69fb1683c5523728d9c9",
    (1, 2, 3, 4, 5): "821233cc544fdfc30f7230189a10b94873722537d37800f475ab99cdc77e1e45",
    (1, 1, 2, 2, 3, 3): "fb08c5e9768c55e98bf8313ac70fc52ce25cf0d57d0e8150c75f66e7b2f67c28",
    (2, 3, 5, 7): "bfda5264f8db8527cc592fb097b64fdbe2ce1fe920d7ec0a7f741c8c82f6cf14",
    (5, 7, 9): "df30c2e00621187c98776230e0046913714186354a5f33faa528090d7bcc1a39",
    (3, 1, 2): "c4ff9cbe7c81b13ea0c463b54b850e9e04ba4b04871e32df03de39a7d9368b41",
    (6, 1, 4, 1): "a240b6f433148013816e8e684054595256f1d67d3f0f1bdbbc509a39b034bf79",
    (2, 1, 2, 1, 3): "0ffc029468e51d63e780909b556309d60ebbe80fd563b639a96a8cc24e41f90c",
    (5, 2, 2): "3298dbb401df564bb19d9aa047a2b87f82a5cbc48b22ce26eb2a40882e130c4f",
    (1, 2, 3, 4, 5, 6, 7): "2126d779ae3713d101a4fff853434ac536673a0e99929ebd56c85ef210f70f75",
    (4, 9, 11): "1db336dd4c61e690726e82cc91bebf364534bf1e9bf4d5e0593d5efd96610839",
    (7, 8, 9): "9e181ccf4061c5f5d7dcd46fa032d9f25a13ef616b355c8406b99a0407124dee",
    (1, 2, 3, 4, 5, 6, 7, 8): "d126a5196239eb1a53a19351ff0f62c02e5b44dc61b369d17d34a16db874aa15",
    (31, 37, 41): "b1f73896726c65d2c64aea3328f568e4d76a1a5c5454de9afc92dd20ae03efd1",
    (2, 2, 2, 2): "8eacbcf66d55a57ff0f27d34cf400ed4bc5424e43c8291cdaf78f9c829ab6634",
    (1, 1, 1, 2, 2, 3): "097113ed9c953832f7a5f39c9f30107bd5c77094d743fe6426513bb99afb413c",
}

PINNED_TILED = {
    (1, 2, 3, 4): "cf2a5707738a85c7065e3fd22d6734275cbe79d86dd8eba5dc513a3da4e8e70a",
    (1, 2, 3, 4, 5): "dfaf5c615e5e8c5a8c9ef22be105cfb8e00439afcfbe8480d4c40aae6d372731",
    (1, 1, 2, 2, 3, 3): "8c01f845778c36974fd5fcf4771c54a014f740f85b38f5f9a2709dd05e0e5080",
    (2, 3, 5, 7): "b91e766f1087aca31ac67d46428ef1fabd990f897d7cdca15fb1d42ab4b444b7",
    (5, 7, 9): "06862df5b60830a996f51360d1f2c89ff44bc931fc6457ddf3c9b2fcd145631e",
    (3, 1, 2): "e0e5e8ba9d45653d73be093bd26cab353a53c3ec048e8f77ca402a27e125064b",
    (6, 1, 4, 1): "dca0e0a1d1f5592d7189e45587f9a2b65d82c46c7dabfbd281410598ee705261",
    (2, 1, 2, 1, 3): "70a5ecb3173f6207c8381c937b46e1d0811a23872834981263e17445505d52cd",
    (5, 2, 2): "f8e37ccfa8ad081eee91aa6b49fcfc35fda38b12113dc5e228ca8557bf20ffce",
    (1, 2, 3, 4, 5, 6, 7): "71e11ec767aee5fbfda957821934c250826055de6dce892c0c8c23dbf746c19b",
    (4, 9, 11): "60598211e484465912ecfae788610c414530d5f72cb6a186fe0e2afcf6d212c2",
    (7, 8, 9): "338b328be2f7339ad962101fc9e6f85f1dd1aa8c491db400bebf2e38126c7323",
    (1, 2, 3, 4, 5, 6, 7, 8): "615a3733c7efc1f021b898352626c65cc130779fa2101c160d8236c3bbd6f4fc",
    (31, 37, 41): "07d17d1ddf1ab57cb8031b3d8ef4342e8cb06863ab0c7b7b9cb1d77d2cc08fbb",
    (2, 2, 2, 2): "5a3b1c37494a0ce7eaca77f2a4f9e97405325a518adca564cfbec8b708beb587",
    (1, 1, 1, 2, 2, 3): "1276abfe0baed21dcb96cbafad925af40568ecaac8bc8a351444123fa32ae1b1",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("parts", list(PINNED), ids=lambda p: ",".join(map(str, p)))
@pytest.mark.parametrize("builder", [build_explicit, build_recursive], ids=lambda b: b.__name__)
def test_certificate_bytes(builder, parts):
    text = builder(parts).to_json()
    assert _digest(full_json(text)) == PINNED[parts]


@pytest.mark.parametrize("parts", list(PINNED_TILED), ids=lambda p: ",".join(map(str, p)))
@pytest.mark.parametrize("builder", [build_explicit, build_recursive], ids=lambda b: b.__name__)
def test_tiled_certificate_bytes(builder, parts):
    text = builder(parts).to_json()
    tiled = tiled_json(full_json(text))
    assert _digest(tiled) == PINNED_TILED[parts]
    assert QuasiPoly.from_json(tiled).to_json() == text


@pytest.mark.parametrize("parts", list(PINNED_NATURAL), ids=lambda p: ",".join(map(str, p)))
@pytest.mark.parametrize("builder", [build_explicit, build_recursive], ids=lambda b: b.__name__)
def test_natural_certificate_bytes(builder, parts):
    # the bytes written, and what every layout of the same certificate reads
    # back to: every key at least periods, every key tiled to tau, and the
    # natural keys alone, at least periods and tiled
    text = builder(parts).to_json()
    assert _digest(text) == PINNED_NATURAL[parts]
    for layout in (text, full_json(text), tiled_json(full_json(text)), tiled_json(text)):
        assert QuasiPoly.from_json(layout).to_json() == text
