import types

import quasimode


def test_all_lists_every_public_name():
    bound = {
        name
        for name, value in vars(quasimode).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(quasimode.__all__) == bound
    assert len(quasimode.__all__) == len(set(quasimode.__all__))
