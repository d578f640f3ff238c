"""Tests of the curve layer."""

from hypothesis import settings


def examples(pinned: int) -> int:
    """*pinned* examples under the default profile, the loaded profile's
    count under any other (``--hypothesis-profile nightly``: 2000).

    A ``max_examples`` given to ``@settings`` outranks the loaded
    profile, so a test that pins its count for the per-change run would
    otherwise keep that count in the nightly run too.
    """
    loaded = settings.default.max_examples
    if loaded == settings.get_profile("default").max_examples:
        return pinned
    return loaded
