"""Tests for the counter-based generator."""

import numpy as np
import pytest

from adafamily import rng


def test_known_vector():
    # Published splitmix64 outputs for seed 1234567.  The counter form
    # out[i] = mix64(key + (i+1)*GOLDEN) must reproduce the sequential
    # reference exactly.
    expected = [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    got = rng.random_u64(1234567, 5)
    assert got.dtype == np.uint64
    assert [int(x) for x in got] == expected


def test_random_access_matches_streaming():
    # Output i depends only on (key, i): it is the mix of counter i + 1,
    # and a longer draw extends a shorter one.
    full = rng.random_u64(99, 10)
    assert [int(x) for x in full[3:]] == [rng.mix64(99 + i * rng.GOLDEN) for i in range(4, 11)]
    assert np.array_equal(full[:7], rng.random_u64(99, 7))


def test_mix64_scalar_matches_array():
    xs = [0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
    arr = rng._mix64_array(np.array(xs, dtype=np.uint64))
    for x, a in zip(xs, arr):
        assert rng.mix64(x) == int(a)


def test_uniforms_range_and_mean():
    u = rng.uniforms(2024, 20000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # mean of U[0,1) is 0.5, sd of the sample mean is 1/sqrt(12*20000) ~ 0.002
    assert abs(u.mean() - 0.5) < 0.01


def test_uniforms_are_53_bit():
    # (x >> 11) * 2^-53 lands on the 53-bit grid exactly
    u = rng.uniforms(7, 1000)
    scaled = u * 2.0**53
    assert np.array_equal(scaled, np.round(scaled))


def test_normals_moments():
    z = rng.normals(31337, 20000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03
    # Box-Muller never returns non-finite values because u1 > 0
    assert np.all(np.isfinite(z))


def test_normals_odd_length():
    z = rng.normals(5, 7)
    assert z.shape == (7,)


@pytest.mark.parametrize("n", [-1, -2, -3])
def test_normals_refuses_a_negative_count_and_names_it(n):
    # before drawing, naming n itself, as uniforms and random_u64 refuse it
    with pytest.raises(ValueError, match=f"^n must be >= 0, got {n}$"):
        rng.normals(5, n)


@pytest.mark.parametrize("draw", [rng.random_u64, rng.uniforms], ids=["random_u64", "uniforms"])
def test_raw_draws_refuse_a_negative_count(draw):
    with pytest.raises(ValueError, match="^n must be >= 0, got -1$"):
        draw(5, -1)


def test_determinism():
    assert np.array_equal(rng.random_u64(5, 100), rng.random_u64(5, 100))
    assert np.array_equal(rng.uniforms(5, 100), rng.uniforms(5, 100))
    assert np.array_equal(rng.normals(5, 100), rng.normals(5, 100))
    assert np.array_equal(rng.permutation(5, 100), rng.permutation(5, 100))


def test_keys_decorrelate():
    a = rng.random_u64(1, 100)
    b = rng.random_u64(2, 100)
    assert not np.array_equal(a, b)


def test_permutation_is_bijection():
    p = rng.permutation(123, 257)
    assert sorted(p.tolist()) == list(range(257))


def test_permutation_sizes():
    assert rng.permutation(1, 0).tolist() == []
    assert rng.permutation(1, 1).tolist() == [0]


def test_derive_key_is_order_sensitive():
    # frozen values lock the derivation chain
    assert rng.derive_key(42, 1, 2) == 17429180764524046365
    assert rng.derive_key(42, 2, 1) == 14296851108047628347
    assert rng.derive_key(42, 1) == 14312216795054535368
    assert rng.derive_key(42, 1, 2) != rng.derive_key(42, 2, 1)


def test_derive_key_substreams_decorrelate():
    streams = [rng.uniforms(rng.derive_key(9, i), 50) for i in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(streams[i], streams[j])
