import hypersem


def test_every_export_resolves_once():
    names = hypersem.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(hypersem, n)]
    assert not missing
