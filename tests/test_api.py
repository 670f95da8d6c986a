import twirltomo


def test_star_import_resolves_every_public_name():
    """Every name in twirltomo.__all__ exists, so a star import succeeds."""
    namespace = {}
    exec("from twirltomo import *", namespace)
    for name in twirltomo.__all__:
        assert hasattr(twirltomo, name), name
        assert name in namespace, name
