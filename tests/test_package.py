import types

import fairchores


def test_all_names_resolve_and_are_not_modules():
    assert len(set(fairchores.__all__)) == len(fairchores.__all__)
    for name in fairchores.__all__:
        assert not isinstance(getattr(fairchores, name), types.ModuleType), name
