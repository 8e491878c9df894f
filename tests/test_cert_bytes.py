"""Certificate bytes pinned: both builders emit exactly these JSON documents.

The digests are sha256 of `to_json()`. A refactor that claims byte-identical
certificates must keep them; a change that means to alter the format updates
them in the same commit and says why.
"""

import hashlib

import pytest

from denumerant import build_explicit, build_recursive

PINNED = {
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


@pytest.mark.parametrize("parts", list(PINNED), ids=lambda p: ",".join(map(str, p)))
@pytest.mark.parametrize("builder", [build_explicit, build_recursive], ids=lambda b: b.__name__)
def test_certificate_bytes(builder, parts):
    text = builder(parts).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[parts]
