"""Every output of the table in pinned.py has its pinned sha256."""

from pinned import PINS, check


def test_outputs_match_their_pinned_digests(pinned_sha256):
    assert len({pin.name for pin in PINS}) == len(PINS)
    check(PINS, pinned_sha256)
