"""The package's public surface."""

import wavecorr


def test_every_exported_name_resolves():
    assert len(set(wavecorr.__all__)) == len(wavecorr.__all__)
    missing = [name for name in wavecorr.__all__ if not hasattr(wavecorr, name)]
    assert missing == []
