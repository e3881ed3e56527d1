"""Pins of every suite program and of walks over it.

A change to how programs are generated or walked must not move one
instruction of a program or one record of a trace: the trace cache keys
only on how a trace was requested (``_GENERATOR_VERSION``, workload,
seeds, length), so a moved record would leave stale cached traces beside
fresh ones.  The walks are taken back to back from one program object,
so state that one walk leaves on the program shows up in the next.

The digests are the same under CPython 3.10, 3.11 and 3.12; see
``tests/_program_digests.py`` for what they cover.
"""

from __future__ import annotations

import pytest

from tests._program_digests import digests

#: workload -> (program digest, walks digest).
PINNED = {
    "compress_like": (
        "e3c315eb4922ae2cda129981440c5b836792886553c8913ef862199ae226f59c",
        "9d3562a59d6f86173b69ddf8cc3bb7a02108e96faefde8c1dac62f0e7555ced8"),
    "li_like": (
        "337a91de6d1a39d5e76cf9e6d57e3704792f887b1a3d97c19e68152465b96db3",
        "613fe8c6b732a5a10003b14643d0344fa93b77991b03d145e017a7f00a911646"),
    "ijpeg_like": (
        "de04d92b05e5739b64b277e0f2ad3f6ae246e2b16ed259ab2c14f69eb1e3a6de",
        "b2aa5a28f316d09b795ea00322811f72ab47959c2aa2499a82f569f03ac141c6"),
    "m88ksim_like": (
        "02257ee0121d9f84de39b7c7d1659cf92ad7712acc38365f7f55cb38912c6b9b",
        "5cdd562df1e6438a5cf94c695b6e20add93d7109f62c62ef7ad224a3a0abceff"),
    "deltablue_like": (
        "f67fdf165e2926c29e3895b9b67f666faa2cc7c2b2241049a92f880dabd4b8e9",
        "53018bdec714d8f380e4ee58744d41cb3c9a3499cfdaaa487e268fd4caea913c"),
    "go_like": (
        "2849d3762f02b67b5b5660fbbf682882c46708b2b9ab9a727aa831d31289a4ec",
        "af9b77dca1588ac51dc6a49c119bee0fa5192dddda439ed5825f787be52a6aa5"),
    "groff_like": (
        "ff7907425d5e25a87b1e7ecb6c1eb7bc17be78818ffd22f849f18f639a1c28f0",
        "8ffda0b09fb58f7ee2ee428a95afb425395035b8fdc339eb0191cbff7efb5139"),
    "perl_like": (
        "fd8b9f9b8ff9baefc781a8ea90c75cc9443e5ac169172995f551d1fdc67d4ba0",
        "b74e2378b5b20d87c9fe0c09035d9f5246e218f8b8488896540e0033a38abf2c"),
    "gcc_like": (
        "e5dcecb4a86e8253260dcac8b8b43c9b80b6d21486b5db1f5c7402a7fcc030c2",
        "ce9e149c9a42bfe78f5725509f12101d83249b70291d9e99b0fbca6d5df9eb90"),
    "vortex_like": (
        "5488ae7813ac35d8b0ffbc15ddc56bd519fc1b98d03f4f0c2a99711e79d74b6c",
        "0058cd10050b42eef4ccd7f1bfcf64b9b923bdfcf436e288b564ee146155dc56"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_program_and_walks_pinned(name):
    program, walks = digests(name)
    assert program == PINNED[name][0], f"{name}: the program moved"
    assert walks == PINNED[name][1], f"{name}: a walk moved"
