import gaincover


def test_every_exported_name_resolves():
    assert len(set(gaincover.__all__)) == len(gaincover.__all__)
    for name in gaincover.__all__:
        assert getattr(gaincover, name) is not None, name
