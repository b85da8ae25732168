import uwbcal


def test_every_exported_name_resolves():
    assert len(set(uwbcal.__all__)) == len(uwbcal.__all__)
    assert [name for name in uwbcal.__all__ if not hasattr(uwbcal, name)] == []
