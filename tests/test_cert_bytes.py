"""Certificate bytes pinned: both builders emit exactly these JSON documents.

The digests are sha256 of `to_json()`. A refactor that claims byte-identical
certificates must keep them; a change that means to alter the format updates
them in the same commit and says why.

PINNED is each certificate as built, every coefficient at its least period.
PINNED_TILED is the same certificate with every coefficient tiled to the
master period tau = lcm(parts), as the builders wrote it before they stored
coefficients at their own periods: `helpers.tiled_json` of PINNED's document,
a standard-library transform of the JSON, must still print those bytes, and
reading them back must give PINNED's document again.
"""

import hashlib

import pytest

from denumerant import QuasiPoly, build_explicit, build_recursive
from helpers import tiled_json

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
    assert _digest(text) == PINNED[parts]


@pytest.mark.parametrize("parts", list(PINNED_TILED), ids=lambda p: ",".join(map(str, p)))
@pytest.mark.parametrize("builder", [build_explicit, build_recursive], ids=lambda b: b.__name__)
def test_tiled_certificate_bytes(builder, parts):
    text = builder(parts).to_json()
    tiled = tiled_json(text)
    assert _digest(tiled) == PINNED_TILED[parts]
    assert QuasiPoly.from_json(tiled).to_json() == text
