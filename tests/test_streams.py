"""Stream identity, splitting, and variate reproducibility."""

import numpy as np
import pytest

from voimc import RandomStream
from voimc.streams import _Reflecting, _Replay


def test_same_identity_reproduces_draws():
    a = RandomStream(42).uniforms(1000)
    b = RandomStream(42).uniforms(1000)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = RandomStream(1).uniforms(100)
    b = RandomStream(2).uniforms(100)
    assert not np.array_equal(a, b)


def test_split_does_not_consume_parent_state():
    parent = RandomStream(7)
    before = RandomStream(7).uniforms(50)
    parent.split(3).uniforms(10)
    np.testing.assert_array_equal(parent.uniforms(50), before)


def test_split_is_identity_based():
    child = RandomStream(7).split(3)
    rebuilt = RandomStream(7, path=(3,))
    np.testing.assert_array_equal(child.normals(20), rebuilt.normals(20))


def test_sibling_splits_differ():
    parent = RandomStream(9)
    a = parent.split(0).uniforms(100)
    b = parent.split(1).uniforms(100)
    assert not np.array_equal(a, b)


def test_nested_split_path():
    deep = RandomStream(5).split(2).split(4)
    assert deep.path == (2, 4)
    np.testing.assert_array_equal(
        deep.uniforms(10), RandomStream(5, path=(2, 4)).uniforms(10)
    )


def test_negative_split_index_rejected():
    with pytest.raises(ValueError):
        RandomStream(1).split(-1)
    with pytest.raises(ValueError):
        RandomStream(1, path=(-2,))


def test_seed_is_masked_to_64_bits():
    wide = RandomStream(2**64 + 5)
    assert wide.seed == 5
    np.testing.assert_array_equal(wide.uniforms(10), RandomStream(5).uniforms(10))


def test_uniforms_bounded_away_from_zero():
    u = RandomStream(3).uniforms(200_000)
    assert u.min() >= 2.0**-54
    assert u.max() < 1.0


def test_normals_shape_handling():
    s = RandomStream(11)
    flat = s.normals(12)
    assert flat.shape == (12,)
    boxed = RandomStream(11).normals((3, 4))
    assert boxed.shape == (3, 4)
    np.testing.assert_array_equal(boxed.ravel(), flat)


def test_normals_match_inverse_cdf_of_uniforms():
    from scipy.special import ndtri

    u = RandomStream(13).uniforms(1000)
    z = RandomStream(13).normals(1000)
    np.testing.assert_array_equal(z, ndtri(u))


def test_normals_roughly_standard():
    z = RandomStream(17).normals(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_draw_count_validation():
    with pytest.raises(ValueError):
        RandomStream(1).uniforms(-1)


def test_replay_answers_each_call_with_its_reflection():
    stream = _Reflecting(RandomStream(5))
    fresh = RandomStream(5)
    calls = [("normals", 6), ("normals", (4, 3)), ("uniforms", 8), ("normals", (2, 10, 3))]
    drawn = []
    for kind, shape in calls:
        got = getattr(stream, kind)(shape)
        want = getattr(fresh, kind)(shape)
        # a draw passes through as the stream's own, and changing it in
        # place afterwards leaves its kept reflection alone
        assert got.tobytes() == want.tobytes()
        drawn.append(want)
        got *= 3.0
    replay = _Replay(stream.reflections)
    for (kind, shape), want in zip(calls, drawn):
        got = getattr(replay, kind)(shape)
        if kind == "normals":
            assert got.tobytes() == (-want).tobytes()
        else:
            np.testing.assert_array_equal(got, 1.0 - want)
    replay.close()


def test_replay_refuses_calls_that_differ():
    def replay():
        stream = _Reflecting(RandomStream(5))
        stream.normals((4, 3))
        stream.uniforms(4)
        return _Replay(stream.reflections)

    for bad in (
        lambda r: r.normals((3, 4)),  # another shape
        lambda r: r.normals(12),  # the same count, laid out another way
        lambda r: r.uniforms(12),  # another kind
        lambda r: (r.normals((4, 3)), r.normals(4)),  # another kind second
        lambda r: (r.normals((4, 3)), r.uniforms(4), r.uniforms(4)),  # one call too many
        lambda r: (r.normals((4, 3)), r.close()),  # one call short
    ):
        with pytest.raises(ValueError):
            bad(replay())


def test_reflected_uniforms_stay_below_one():
    # a raw draw of 0.0 is clamped to 2^-54, whose reflection rounds to 1.0,
    # where the inverse normal CDF is infinite
    class Clamped:
        def uniforms(self, n):
            return np.full(n, 2.0**-54)

    stream = _Reflecting(Clamped())
    assert stream.uniforms(1)[0] == 2.0**-54
    assert _Replay(stream.reflections).uniforms(1)[0] == 1.0 - 2.0**-53
