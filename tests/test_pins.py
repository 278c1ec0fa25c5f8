from tests.pins import differences


def test_differences_name_moved_added_and_dropped_pins():
    assert differences({"keys": {"K": "a"}, "corpus": "c", "walk": {"x": "d"}},
                       {"keys": {"K": "b"}, "corpus": "c", "walk": {"y": "d"}}) == [
        ("keys/K", "a", "b"), ("walk/x", "d", None), ("walk/y", None, "d")]
