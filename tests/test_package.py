import libags


def test_public_names_resolve_once():
    assert len(libags.__all__) == len(set(libags.__all__))
    missing = [name for name in libags.__all__ if not hasattr(libags, name)]
    assert missing == []
