"""Verify reports pinned: `run_properties` gives exactly these reports.

The digests are sha256 of `json.dumps(report.to_json_dict())`: one report per
list for builder output, and one digest over a seeded run of tampered
certificates (each nudged at one class of the lcm of the parts) per list. A
nudge off the class 2s = sum(parts) mod 2 is refused when the certificate is
built, so its draw gives no report; the TAMPERED digests cover the reports of
the other draws, the same reports the checks gave when such certificates
could still be built and were checked. A change to how the properties are
checked must keep them; a change that means to alter a report updates them in
the same commit and says why.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from denumerant import lcm_of, run_properties
from denumerant.verify import BUILDERS
from test_verify import _tampered

CLEAN = {
    (1,): "ac84dac9fdf74bf9fcd51417a7f1c272520af8bbfab9bf5dc6c6d59c0c5ba1a3",
    (4,): "1e428d4fd6a6f27ce105f83b4120f7ebdb14884cd4247dfeca7a6605d3bd0798",
    (1, 2): "7e696095fcac54945af31e09ab92d92f9e92c1b43fbfdfa6de1cdb6cba26a3f5",
    (2, 3): "bfaa634f7f07b785f916add07a66cd789ad558c68a1b4cd9b77fa807c0d09ee9",
    (1, 2, 3): "f841ed592668827b846a86ba549b4eafd2d4255c81628ffaff9e9244d6851267",
    (3, 1, 2): "551bf64605b141c3f9021999c67b5d176ca8f6543b7cd0bdbb0e2f394b40b72f",
    (2, 3, 4): "52f07f562e36025ad196ba62c25fa28b73a35568549705e03b32a716118ae075",
    (1, 1, 2, 3): "3b89d07a203057b991ccb0db777b4c41642eca3cb7ea9bd68189c877a3ffd447",
    (5, 2, 2): "6356a329a1745efe7a5f5e2b46e9da9846333b6bb0cdb37f1c60b1a8a2c54c28",
    (6, 1, 4, 1): "d11927cfc5efc884c76c690d251aa8073a2f2e0bcaa941316202cc0b69f67a0c",
    (2, 1, 2, 1, 3): "21d72105054ad94cd3dc57fd9bf083e338eeb1990323288527085d5c0b92bbe3",
    (1, 2, 3, 4, 5): "fd82d346ffb4f8c3c40a11c9fe7fa697e8542118c6073669d151528df95cf127",
    (2, 3, 5, 7): "15b6291cee46ccb2bbaa8f708f9ecf36d1a9401f189b1d2fab2de5232ad93dfe",
    (5, 7, 9): "944095e3c63381eefa0ec333e8bebcaf6c31a95989549ae64f0598bb584608d5",
    (1, 1, 1, 2, 2, 3): "27e615af3026f7711e2a92bce8930aa28aee5400619a5cbaf7661bd3d1ca24af",
    (1, 1, 2, 2, 3, 3): "c7133ad3136502169d07be1718d63052719dd75697e1d337142908c8b96d821a",
    (1, 2, 2, 3, 3, 4): "82693b3ad8fa1c9828ef381e28a2cc624f44dc0dc3fa7cbbba3e7d94994d6390",
    (2, 2, 3, 3, 4, 4): "407e7cbe71f47df80066bdc4ea7aa556167bc2a3394376a195d3c81f1f10d9f6",
    (5, 6, 7): "90dab2177b34e0784e0023faa38d2c5b8b0ee5dce29f13836ec36f0baedd5171",
    (3, 7, 10): "bc5ee1b8d09e1c9c315001be49b3bcba7d468c4a0ff45886bae71a59839d7e8b",
    (3, 7, 11): "93d71a5dbbd15b96698790a55aa7b549eaaa6074b46cc6a8b3ce8f097e90d03c",
    (4, 5, 11): "d006b963fc763a11eccf9eb709b4c0ad9775f0ad2552d926eb0e8e9a7187435b",
}

# taken at 9d1585e, where off-class certificates could be built, over the
# draws on the class only
TAMPERED = {
    (1, 2): "59e1e281a2aed53920e1fce3c2be8fb6e2eafc15ce75471e35742fb92ed5a3a4",
    (1, 2, 3): "8992e47784cf7731f2d9b54c158cfb5e837913590604555d7427e3cafa2431d4",
    (3, 1, 2): "188d77a8c485a7f28baf6d31e3ace23ab5117a72f439e0e637eb264add777ade",
    (2, 3, 4): "d117927470aada4c8b93a25383df77108fac28f966c9348132518eb2ef8eb24b",
    (1, 1, 2, 3): "7b7bbf4b4f77ef9f4a7f8d7288db72b944a0a510bb712dfb5b85365720be4a10",
    (5, 2, 2): "3eeafe7d4a3cd9401e400da0b2f87f239bb9958232c6beb88e2d272bd858d036",
    (2, 1, 2, 1, 3): "681a67ef20141aeeec9c35c27e5f815f31abaa4bf88ca71ea25e9b87f98e3689",
    (2, 3, 5, 7): "c5348e1e7a3577e0cf47091b650a7bd4a8d3562246c6ba6033e1e9cc73705d1e",
    (5, 6, 7): "5f574700617f125ebc726ab0e5aecb77cb5eebe2ea28dcd64d95341205d78013",
    (3, 7, 11): "4c74f29df1c1349d8a249036d42d9f468fa5439a03f1c0c720c6aa353046fdb6",
}
N_TAMPERED = 12
WHICH = (("explicit",), ("recursive",), ("explicit", "recursive"))
DELTAS = (Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-2, 7))


def _digest(reports) -> str:
    text = json.dumps([report.to_json_dict() for report in reports])
    return hashlib.sha256(text.encode()).hexdigest()


def _ids(parts) -> str:
    return ",".join(map(str, parts))


@pytest.mark.parametrize("parts", list(CLEAN), ids=_ids)
def test_builder_reports(parts):
    assert _digest([run_properties(parts)]) == CLEAN[parts]


@pytest.mark.parametrize("parts", list(TAMPERED), ids=_ids)
def test_tampered_reports(parts):
    good = {label: build(parts) for label, build in BUILDERS.items()}
    rng = random.Random(f"tampered:{_ids(parts)}")
    reports = []
    for _ in range(N_TAMPERED):
        which = rng.choice(WHICH)
        index = rng.randrange(len(parts))
        rho = rng.randrange(2 * lcm_of(parts))
        delta = rng.choice(DELTAS)
        certs = {
            label: _tampered(cert, index, rho, delta) if label in which else cert
            for label, cert in good.items()
        }
        if None not in certs.values():  # None off the class: refused
            reports.append(run_properties(parts, certs=certs))
    assert not all(report.passed for report in reports)
    assert _digest(reports) == TAMPERED[parts]
